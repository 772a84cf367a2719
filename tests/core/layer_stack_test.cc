#include "core/layer_stack.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/beam_search.h"
#include "core/dataset.h"
#include "core/graph.h"
#include "core/rng.h"

namespace gass::core {
namespace {

Dataset RandomData(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Dataset data(n, dim);
  Rng rng(seed);
  for (std::size_t i = 0; i < n * dim; ++i) {
    data.mutable_data()[i] = static_cast<float>(rng.UniformDouble());
  }
  return data;
}

TEST(LayerStackTest, OffsetsForMixedLevels) {
  LayerStack stack(6, /*cap=*/3);
  EXPECT_EQ(stack.num_layers(), 0u);
  stack.AddNode(1, 2);
  stack.AddNode(4, 1);
  stack.AddNode(2, 3);
  // Blocks are [count | cap + 1 ids] = 5 words, appended in AddNode order.
  EXPECT_EQ(stack.Offset(1), 0u);
  EXPECT_EQ(stack.Offset(4), 10u);
  EXPECT_EQ(stack.Offset(2), 15u);
  for (const VectorId v : {0u, 3u, 5u}) {
    EXPECT_EQ(stack.Offset(v), LayerStack::kNoBlocks) << v;
  }
  EXPECT_EQ(stack.num_layers(), 3u);

  // Each (layer, node) list is its own block.
  const VectorId a[] = {4, 2};
  const VectorId b[] = {1};
  stack.SetNeighbors(1, 1, a, 2);
  stack.SetNeighbors(2, 1, b, 1);
  stack.SetNeighbors(3, 2, b, 1);
  std::size_t degree = 0;
  const VectorId* ids = stack.Neighbors(1, 1, &degree);
  ASSERT_EQ(degree, 2u);
  EXPECT_EQ(ids[0], 4u);
  EXPECT_EQ(ids[1], 2u);
  EXPECT_EQ(stack.Neighbors(2, 1, &degree)[0], 1u);
  EXPECT_EQ(degree, 1u);
  stack.Neighbors(1, 4, &degree);
  EXPECT_EQ(degree, 0u);
  stack.Neighbors(2, 2, &degree);
  EXPECT_EQ(degree, 0u);
  EXPECT_EQ(stack.Neighbors(3, 2, &degree)[0], 1u);
  EXPECT_EQ(degree, 1u);

  // Block addresses (what a prefetch requests) follow from the offsets
  // alone: a node's blocks are consecutive, and the ids follow the count.
  EXPECT_EQ(stack.Block(2, 1), stack.Block(1, 1) + 5);
  EXPECT_EQ(stack.Block(1, 1) + 1, stack.Neighbors(1, 1, &degree));
  EXPECT_EQ(stack.Layer(3).Block(2), stack.Block(3, 2));
}

TEST(LayerStackTest, OverflowSlotHoldsOneExtraId) {
  LayerStack stack(6, /*cap=*/3);
  stack.AddNode(0, 1);
  stack.AddNode(1, 1);
  const VectorId full[] = {2, 3, 4};
  stack.SetNeighbors(1, 0, full, 3);
  const VectorId other[] = {5};
  stack.SetNeighbors(1, 1, other, 1);

  // A present id is not appended again.
  EXPECT_FALSE(stack.AddReverseEdge(1, 0, 3));
  std::size_t degree = 0;
  stack.Neighbors(1, 0, &degree);
  EXPECT_EQ(degree, 3u);

  // The fourth id lands in the overflow slot and asks for a re-prune; the
  // next node's block is untouched.
  EXPECT_TRUE(stack.AddReverseEdge(1, 0, 5));
  const VectorId* ids = stack.Neighbors(1, 0, &degree);
  ASSERT_EQ(degree, 4u);
  EXPECT_EQ(ids[3], 5u);
  ids = stack.Neighbors(1, 1, &degree);
  ASSERT_EQ(degree, 1u);
  EXPECT_EQ(ids[0], 5u);

  // Below the cap an append does not ask for a re-prune.
  EXPECT_FALSE(stack.AddReverseEdge(1, 1, 0));
  const VectorId pruned[] = {5, 2};
  stack.SetNeighbors(1, 0, pruned, 2);
  ids = stack.Neighbors(1, 0, &degree);
  ASSERT_EQ(degree, 2u);
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 2u);
}

// The stack and a dense Graph per layer holding the same lists.
struct FixedStack {
  std::vector<std::uint32_t> level;
  LayerStack stack;
  std::vector<Graph> dense;  // dense[l - 1] is layer l.
  VectorId entry = 0;
};

FixedStack MakeFixedStack(std::size_t n, std::size_t cap,
                          std::uint64_t seed) {
  FixedStack fixed;
  Rng rng(seed);
  fixed.level.assign(n, 0);
  std::uint32_t top = 0;
  for (VectorId v = 0; v < n; ++v) {
    // P(level >= l) = 4^-l, as Eq. 1 gives for M = 8.
    std::uint32_t l = 0;
    while (rng.UniformInt(4) == 0) ++l;
    fixed.level[v] = l;
    if (l > top) {
      top = l;
      fixed.entry = v;
    }
  }
  fixed.stack = LayerStack(n, cap);
  for (VectorId v = 0; v < n; ++v) {
    if (fixed.level[v] > 0) fixed.stack.AddNode(v, fixed.level[v]);
  }
  fixed.dense.assign(top, Graph(n));
  for (std::uint32_t l = 1; l <= top; ++l) {
    std::vector<VectorId> members;
    for (VectorId v = 0; v < n; ++v) {
      if (fixed.level[v] >= l) members.push_back(v);
    }
    for (const VectorId v : members) {
      std::vector<VectorId> list;
      for (std::size_t i = 0; i < cap && members.size() > 1; ++i) {
        const VectorId u = members[rng.UniformInt(members.size())];
        if (u != v && std::find(list.begin(), list.end(), u) == list.end()) {
          list.push_back(u);
        }
      }
      fixed.stack.SetNeighbors(l, v, list.data(), list.size());
      fixed.dense[l - 1].SetNeighbors(v, list);
    }
  }
  return fixed;
}

// The greedy descent as every hierarchical structure wrote it before
// LayerStack: one distance at a time over dense per-layer graphs.
VectorId ReferenceDescend(const std::vector<Graph>& dense, DistanceComputer& dc,
                          const float* query, VectorId entry,
                          std::size_t from, std::size_t to) {
  VectorId current = entry;
  float current_dist = dc.ToQuery(query, current);
  for (std::size_t l = from; l-- > to;) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const VectorId u : dense[l].Neighbors(current)) {
        const float d = dc.ToQuery(query, u);
        if (d < current_dist) {
          current_dist = d;
          current = u;
          improved = true;
        }
      }
    }
  }
  return current;
}

TEST(LayerStackTest, DescendMatchesDenseReferenceLoop) {
  const Dataset data = RandomData(600, 8, 3);
  const Dataset queries = RandomData(40, 8, 4);
  const FixedStack fixed = MakeFixedStack(data.size(), 6, 5);
  const std::size_t top = fixed.stack.num_layers();
  ASSERT_GE(top, 3u);
  for (VectorId q = 0; q < queries.size(); ++q) {
    for (std::size_t to = 0; to < top; ++to) {
      DistanceComputer dc(data);
      DistanceComputer reference_dc(data);
      const VectorId got = fixed.stack.Descend(dc, queries.Row(q),
                                               fixed.entry, top, to);
      const VectorId want = ReferenceDescend(
          fixed.dense, reference_dc, queries.Row(q), fixed.entry, top, to);
      EXPECT_EQ(got, want) << "query " << q << " to layer " << to;
      EXPECT_EQ(dc.count(), reference_dc.count())
          << "query " << q << " to layer " << to;
      if (to > 0) {
        EXPECT_GE(fixed.level[got], to + 1);
      }
    }
  }
}

TEST(LayerStackTest, BeamSearchOverLayerMatchesDenseGraph) {
  const Dataset data = RandomData(600, 8, 6);
  const FixedStack fixed = MakeFixedStack(data.size(), 6, 7);
  VisitedTable visited(data.size());
  for (VectorId q = 0; q < 20; ++q) {
    DistanceComputer dc(data);
    DistanceComputer reference_dc(data);
    const std::vector<Neighbor> got =
        BeamSearch(fixed.stack.Layer(1), dc, data.Row(q), {fixed.entry}, 5,
                   16, &visited);
    const std::vector<Neighbor> want =
        BeamSearch(fixed.dense[0], reference_dc, data.Row(q), {fixed.entry},
                   5, 16, &visited);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
    EXPECT_EQ(dc.count(), reference_dc.count());
  }
}

TEST(LayerStackTest, MemoryGrowsWithMembersNotWithLayers) {
  constexpr std::size_t kN = 100000;
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kBlockBytes = (kCap + 2) * sizeof(std::uint32_t);
  LayerStack empty(kN, kCap);
  EXPECT_EQ(empty.MemoryBytes(), kN * sizeof(std::uint32_t));

  // Ten memberships cost the same on one layer as on ten.
  LayerStack wide(kN, kCap);
  for (VectorId v = 0; v < 10; ++v) wide.AddNode(v, 1);
  LayerStack tall(kN, kCap);
  tall.AddNode(7, 10);
  wide.ShrinkToFit();
  tall.ShrinkToFit();
  EXPECT_EQ(wide.num_layers(), 1u);
  EXPECT_EQ(tall.num_layers(), 10u);
  EXPECT_EQ(wide.MemoryBytes(), empty.MemoryBytes() + 10 * kBlockBytes);
  EXPECT_EQ(tall.MemoryBytes(), wide.MemoryBytes());

  // A dense Graph pays a list header per node on every layer.
  EXPECT_LT(tall.MemoryBytes(), Graph(kN).MemoryBytes() / 4);
}

}  // namespace
}  // namespace gass::core
