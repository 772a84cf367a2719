#include "core/beam_search.h"

#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eval/ground_truth.h"
#include "knngraph/exact_knn_graph.h"

namespace gass::core {
namespace {

struct BeamFixture {
  Dataset data;
  Graph graph;

  // A single Gaussian cloud: its undirected exact k-NN graph is connected,
  // so traversal-based assertions are stable.
  explicit BeamFixture(std::size_t n = 300, std::size_t k = 10) {
    Rng rng(77);
    data = Dataset(n, 8);
    for (VectorId i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < 8; ++d) {
        data.MutableRow(i)[d] = static_cast<float>(rng.Normal());
      }
    }
    DistanceComputer dc(data);
    graph = knngraph::ExactKnnGraph(dc, k, 1);
    graph.MakeUndirected();  // Ensure the beam can traverse everywhere.
  }
};

TEST(BeamSearchTest, FindsExactNeighborsOnKnnGraphWithWideBeam) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto truth =
      eval::BruteForceKnn(fixture.data, fixture.data.Prefix(5), 5, 1);
  for (VectorId q = 0; q < 5; ++q) {
    const auto found =
        BeamSearch(fixture.graph, dc, fixture.data.Row(q), {0}, 5, 128,
                   &visited);
    ASSERT_EQ(found.size(), 5u);
    // Query q is in the dataset, so its own id must be the top answer.
    EXPECT_EQ(found[0].id, q);
    EXPECT_FLOAT_EQ(found[0].distance, 0.0f);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(found[i].distance, truth[q][i].distance);
    }
  }
}

TEST(BeamSearchTest, ResultsSortedAscending) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(17), {3},
                                10, 64, &visited);
  for (std::size_t i = 0; i + 1 < found.size(); ++i) {
    EXPECT_LE(found[i].distance, found[i + 1].distance);
  }
}

TEST(BeamSearchTest, WiderBeamNeverHurtsTopDistance) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const float* query = fixture.data.Row(42);
  const auto narrow =
      BeamSearch(fixture.graph, dc, query, {0}, 5, 8, &visited);
  const auto wide =
      BeamSearch(fixture.graph, dc, query, {0}, 5, 128, &visited);
  ASSERT_FALSE(narrow.empty());
  ASSERT_FALSE(wide.empty());
  EXPECT_LE(wide.back().distance, narrow.back().distance);
}

TEST(BeamSearchTest, CountsDistancesAndHops) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  SearchStats stats;
  BeamSearch(fixture.graph, dc, fixture.data.Row(1), {0}, 5, 32, &visited,
             &stats);
  EXPECT_GT(dc.count(), 0u);
  EXPECT_GT(stats.hops, 0u);
  // Each evaluated vertex costs exactly one distance computation.
  EXPECT_LE(stats.hops, dc.count());
}

TEST(BeamSearchTest, MultipleSeedsAreAllConsidered) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(9),
                                {0, 9, 100}, 3, 16, &visited);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].id, 9u);  // Seeded directly with the answer.
}

TEST(BeamSearchTest, DuplicateSeedsHandled) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(2),
                                {5, 5, 5}, 3, 16, &visited);
  EXPECT_FALSE(found.empty());
}

TEST(BeamSearchTest, FlatGraphMatchesAdjacencyGraph) {
  BeamFixture fixture;
  const FlatGraph flat = FlatGraph::FromGraph(fixture.graph);
  DistanceComputer dc1(fixture.data);
  DistanceComputer dc2(fixture.data);
  VisitedTable visited1(fixture.data.size());
  VisitedTable visited2(fixture.data.size());
  for (VectorId q = 0; q < 10; ++q) {
    const auto a = BeamSearch(fixture.graph, dc1, fixture.data.Row(q), {0},
                              5, 32, &visited1);
    const auto b =
        BeamSearch(flat, dc2, fixture.data.Row(q), {0}, 5, 32, &visited2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
  EXPECT_EQ(dc1.count(), dc2.count());
}

TEST(BeamSearchCollectTest, EvaluatedSupersetOfResults) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  std::vector<Neighbor> evaluated;
  const auto found =
      BeamSearchCollect(fixture.graph, dc, fixture.data.Row(3), {0}, 10, 32,
                        &visited, &evaluated);
  EXPECT_GE(evaluated.size(), found.size());
  for (const Neighbor& nb : found) {
    EXPECT_NE(std::find_if(evaluated.begin(), evaluated.end(),
                           [&](const Neighbor& e) { return e.id == nb.id; }),
              evaluated.end());
  }
  // Evaluated count equals the distance computations performed.
  EXPECT_EQ(evaluated.size(), dc.count());
}

TEST(BeamSearchTest, PruneBoundCutsCostWithoutChangingBetterAnswers) {
  BeamFixture fixture;
  DistanceComputer dc_free(fixture.data);
  DistanceComputer dc_bound(fixture.data);
  VisitedTable visited(fixture.data.size());
  const float* query = fixture.data.Row(25);

  const auto free_run =
      BeamSearch(fixture.graph, dc_free, query, {0}, 5, 64, &visited);
  ASSERT_EQ(free_run.size(), 5u);
  // Bound just above the true 2nd-best distance: every answer strictly
  // better than the bound must still be found, at no more cost.
  const float bound = free_run[2].distance;
  const auto bounded = BeamSearch(fixture.graph, dc_bound, query, {0}, 5, 64,
                                  &visited, nullptr, bound);
  ASSERT_GE(bounded.size(), 2u);
  EXPECT_EQ(bounded[0].id, free_run[0].id);
  EXPECT_EQ(bounded[1].id, free_run[1].id);
  EXPECT_LE(dc_bound.count(), dc_free.count());
}

// The pre-batching expansion loop, kept as an executable reference: one
// TryVisit / ToQuery / filter / Insert per neighbor. The batched search must
// reproduce its neighbor IDs, bitwise distances, evaluation order, distance
// count, hops and row prefetches exactly.
std::vector<Neighbor> ReferenceBeamSearch(const Graph& graph,
                                          DistanceComputer& dc,
                                          const float* query,
                                          const std::vector<VectorId>& seeds,
                                          std::size_t k,
                                          std::size_t beam_width,
                                          VisitedTable* visited,
                                          std::vector<Neighbor>* evaluated,
                                          SearchStats* stats = nullptr) {
  const std::size_t width = beam_width < k ? k : beam_width;
  CandidatePool pool(width);
  visited->NewEpoch();
  for (VectorId seed : seeds) {
    if (!visited->TryVisit(seed)) continue;
    const float d = dc.ToQuery(query, seed);
    if (evaluated != nullptr) evaluated->push_back(Neighbor(seed, d));
    pool.Insert(Neighbor(seed, d));
  }
  for (;;) {
    const std::size_t next = pool.FirstUnexplored();
    if (next == pool.size()) break;
    const VectorId v = pool[next].id;
    pool.MarkExplored(next);
    if (stats != nullptr) stats->hops += 1;
    for (const VectorId u : graph.Neighbors(v)) {
      if (!visited->TryVisit(u)) continue;
      // Every row claimed during expansion is one row prefetch.
      if (stats != nullptr) stats->prefetches += 1;
      const float d = dc.ToQuery(query, u);
      if (evaluated != nullptr) evaluated->push_back(Neighbor(u, d));
      if (d >= pool.WorstDistance()) continue;
      pool.Insert(Neighbor(u, d));
    }
  }
  return pool.TopK(k);
}

TEST(BeamSearchTest, BatchedExpansionMatchesPerNeighborReference) {
  BeamFixture fixture;
  VisitedTable visited(fixture.data.size());
  for (const std::size_t beam : {4u, 16u, 64u}) {
    for (VectorId q = 0; q < 20; ++q) {
      DistanceComputer dc_batched(fixture.data);
      DistanceComputer dc_ref(fixture.data);
      const auto batched = BeamSearch(fixture.graph, dc_batched,
                                      fixture.data.Row(q), {0, 7}, 10, beam,
                                      &visited);
      const auto reference =
          ReferenceBeamSearch(fixture.graph, dc_ref, fixture.data.Row(q),
                              {0, 7}, 10, beam, &visited, nullptr);
      ASSERT_EQ(batched.size(), reference.size()) << "beam=" << beam
                                                  << " q=" << q;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].id, reference[i].id);
        EXPECT_EQ(batched[i].distance, reference[i].distance);  // Bitwise.
      }
      EXPECT_EQ(dc_batched.count(), dc_ref.count()) << "beam=" << beam
                                                    << " q=" << q;
    }
  }
}

TEST(BeamSearchCollectTest, BatchedCollectMatchesPerNeighborReference) {
  BeamFixture fixture;
  VisitedTable visited(fixture.data.size());
  for (VectorId q = 0; q < 10; ++q) {
    DistanceComputer dc_batched(fixture.data);
    DistanceComputer dc_ref(fixture.data);
    std::vector<Neighbor> eval_batched;
    std::vector<Neighbor> eval_ref;
    const auto batched =
        BeamSearchCollect(fixture.graph, dc_batched, fixture.data.Row(q), {0},
                          10, 32, &visited, &eval_batched);
    const auto reference =
        ReferenceBeamSearch(fixture.graph, dc_ref, fixture.data.Row(q), {0},
                            10, 32, &visited, &eval_ref);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].id, reference[i].id);
      EXPECT_EQ(batched[i].distance, reference[i].distance);
    }
    // The evaluation trace — ids, distances, and order — must be identical.
    ASSERT_EQ(eval_batched.size(), eval_ref.size());
    for (std::size_t i = 0; i < eval_batched.size(); ++i) {
      EXPECT_EQ(eval_batched[i].id, eval_ref[i].id);
      EXPECT_EQ(eval_batched[i].distance, eval_ref[i].distance);
    }
    EXPECT_EQ(dc_batched.count(), dc_ref.count());
    EXPECT_EQ(eval_batched.size(), dc_batched.count());
  }
}

// Seeded random graph: each list holds up to `cap` distinct ids, never v.
Graph RandomGraph(std::size_t n, std::size_t cap, std::uint64_t seed) {
  Rng rng(seed);
  Graph graph(n);
  for (VectorId v = 0; v < n; ++v) {
    const std::size_t tries = rng.UniformInt(cap + 1);
    for (std::size_t i = 0; i < tries; ++i) {
      const auto u = static_cast<VectorId>(rng.UniformInt(n));
      if (u != v) graph.AddEdgeUnique(v, u);
    }
  }
  return graph;
}

// The same lists as layer 1 of a LayerStack whose nodes all have level 1.
LayerStack SingleLayerStack(const Graph& graph, std::size_t cap) {
  LayerStack stack(graph.size(), cap);
  for (VectorId v = 0; v < graph.size(); ++v) {
    stack.AddNode(v, 1);
    const std::vector<VectorId>& list = graph.Neighbors(v);
    stack.SetNeighbors(1, v, list.data(), list.size());
  }
  return stack;
}

// Everything one search reports: answers, evaluation trace and counters.
struct Walked {
  std::vector<Neighbor> found;
  std::vector<Neighbor> evaluated;
  SearchStats stats;
  std::uint64_t dists = 0;
};

void ExpectSameWalk(const Walked& got, const Walked& want,
                    const std::string& what) {
  ASSERT_EQ(got.found.size(), want.found.size()) << what;
  for (std::size_t i = 0; i < got.found.size(); ++i) {
    EXPECT_EQ(got.found[i].id, want.found[i].id) << what << " #" << i;
    EXPECT_EQ(got.found[i].distance, want.found[i].distance) << what;
  }
  ASSERT_EQ(got.evaluated.size(), want.evaluated.size()) << what;
  for (std::size_t i = 0; i < got.evaluated.size(); ++i) {
    EXPECT_EQ(got.evaluated[i].id, want.evaluated[i].id) << what << " #" << i;
    EXPECT_EQ(got.evaluated[i].distance, want.evaluated[i].distance) << what;
  }
  EXPECT_EQ(got.dists, want.dists) << what;
  EXPECT_EQ(got.stats.hops, want.stats.hops) << what;
  EXPECT_EQ(got.stats.prefetches, want.stats.prefetches) << what;
  EXPECT_EQ(got.stats.deadline_expiries, want.stats.deadline_expiries)
      << what;
}

struct WalkArgs {
  const Dataset* data;
  const float* query;
  std::vector<VectorId> seeds;
  std::size_t beam;
  bool collect = false;
  const Deadline* deadline = nullptr;
  const TombstoneSet* tombstones = nullptr;
};

template <typename GraphT>
Walked RunWalk(const GraphT& graph, const WalkArgs& a) {
  DistanceComputer dc(*a.data);
  VisitedTable visited(a.data->size());
  Walked w;
  if (a.collect) {
    w.found = BeamSearchCollect(graph, dc, a.query, a.seeds, 10, a.beam,
                                &visited, &w.evaluated, &w.stats);
  } else {
    w.found = BeamSearch(graph, dc, a.query, a.seeds, 10, a.beam, &visited,
                         &w.stats, std::numeric_limits<float>::max(),
                         a.deadline, a.tombstones);
  }
  w.dists = dc.count();
  return w;
}

// Graph, FlatGraph and a LayerStack layer holding the same lists walk the
// same way through both entry points: the layouts (and the next-hop list
// prefetch each one issues) change when memory is requested, never what
// is evaluated, in what order, or what is counted.
TEST(BeamSearchLayoutTest, GraphFlatGraphAndLayerStackWalkIdentically) {
  constexpr std::size_t kN = 500;
  constexpr std::size_t kCap = 12;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Dataset data(kN, 8);
    Rng rng(seed);
    for (std::size_t i = 0; i < kN * 8; ++i) {
      data.mutable_data()[i] = static_cast<float>(rng.Normal());
    }
    const Graph graph = RandomGraph(kN, kCap, seed);
    const FlatGraph flat = FlatGraph::FromGraph(graph);
    const LayerStack stack = SingleLayerStack(graph, kCap);
    TombstoneSet tombstones;
    for (VectorId v = 0; v < kN; v += 3) tombstones.Insert(v);
    const Deadline expired = Deadline::Expired();

    for (VectorId q = 0; q < 12; ++q) {
      for (const std::size_t beam : {8u, 40u}) {
        WalkArgs args{&data, data.Row(q),
                      {static_cast<VectorId>((q * 37 + 5) % kN), q}, beam};
        const std::string what = "seed " + std::to_string(seed) + " q " +
                                 std::to_string(q) + " beam " +
                                 std::to_string(beam);
        for (const bool collect : {false, true}) {
          args.collect = collect;
          Walked reference;
          VisitedTable visited(kN);
          DistanceComputer dc(data);
          reference.found = ReferenceBeamSearch(
              graph, dc, args.query, args.seeds, 10, beam, &visited,
              collect ? &reference.evaluated : nullptr, &reference.stats);
          reference.dists = dc.count();
          const std::string entry = what + (collect ? " collect" : " search");
          ExpectSameWalk(RunWalk(graph, args), reference, entry + " Graph");
          ExpectSameWalk(RunWalk(flat, args), reference, entry + " FlatGraph");
          ExpectSameWalk(RunWalk(stack.Layer(1), args), reference,
                         entry + " LayerStack");
        }

        // Tombstones only filter the answers: the walk is the reference's.
        args.collect = false;
        args.tombstones = &tombstones;
        const Walked filtered = RunWalk(graph, args);
        ExpectSameWalk(RunWalk(flat, args), filtered, what + " tombstones");
        ExpectSameWalk(RunWalk(stack.Layer(1), args), filtered,
                       what + " tombstones");
        args.tombstones = nullptr;
        EXPECT_EQ(filtered.stats.hops, RunWalk(graph, args).stats.hops) << what;
        for (const Neighbor& nb : filtered.found) {
          EXPECT_FALSE(tombstones.Contains(nb.id)) << what;
        }

        // An expired deadline stops before the first expansion.
        args.deadline = &expired;
        const Walked cut = RunWalk(graph, args);
        EXPECT_EQ(cut.stats.deadline_expiries, 1u) << what;
        EXPECT_EQ(cut.stats.hops, 0u) << what;
        EXPECT_EQ(cut.stats.prefetches, 0u) << what;
        EXPECT_EQ(cut.dists, cut.found.size()) << what;
        ExpectSameWalk(RunWalk(flat, args), cut, what + " expired");
        ExpectSameWalk(RunWalk(stack.Layer(1), args), cut, what + " expired");
      }
    }
  }
}

// Lists at and above one expansion batch (degree 32, 33 and 70: up to
// three kernel calls per hop) and lists that repeat an id (claimed once,
// on its first occurrence): every layout still walks exactly like the
// per-neighbour reference.
TEST(BeamSearchLayoutTest, LongAndRepeatingListsWalkLikeReference) {
  constexpr std::size_t kN = 400;
  constexpr std::size_t kLong = 70;
  static_assert(kLong > 2 * internal::kExpandBatch, "three chunks per hop");
  for (const std::uint64_t seed : {31u, 32u}) {
    Dataset data(kN, 8);
    Rng rng(seed);
    for (std::size_t i = 0; i < kN * 8; ++i) {
      data.mutable_data()[i] = static_cast<float>(rng.Normal());
    }
    Graph graph(kN);
    std::size_t cap = 0;
    for (VectorId v = 0; v < kN; ++v) {
      const std::size_t degrees[] = {internal::kExpandBatch,
                                     internal::kExpandBatch + 1, kLong,
                                     rng.UniformInt(12)};
      std::vector<VectorId> list;
      for (std::size_t i = degrees[v % 4]; i > 0; --i) {
        list.push_back(static_cast<VectorId>(rng.UniformInt(kN)));
      }
      // Every third list repeats itself back to front.
      if (v % 3 == 0) list.insert(list.end(), list.rbegin(), list.rend());
      cap = std::max(cap, list.size());
      graph.SetNeighbors(v, std::move(list));
    }
    const FlatGraph flat = FlatGraph::FromGraph(graph);
    const LayerStack stack = SingleLayerStack(graph, cap);

    for (VectorId q = 0; q < 10; ++q) {
      for (const std::size_t beam : {8u, 48u}) {
        WalkArgs args{&data, data.Row(q),
                      {static_cast<VectorId>((q * 41 + 3) % kN), q}, beam};
        for (const bool collect : {false, true}) {
          args.collect = collect;
          Walked reference;
          VisitedTable visited(kN);
          DistanceComputer dc(data);
          reference.found = ReferenceBeamSearch(
              graph, dc, args.query, args.seeds, 10, beam, &visited,
              collect ? &reference.evaluated : nullptr, &reference.stats);
          reference.dists = dc.count();
          const std::string what =
              "seed " + std::to_string(seed) + " q " + std::to_string(q) +
              " beam " + std::to_string(beam) +
              (collect ? " collect" : " search");
          ExpectSameWalk(RunWalk(graph, args), reference, what + " Graph");
          ExpectSameWalk(RunWalk(flat, args), reference, what + " FlatGraph");
          ExpectSameWalk(RunWalk(stack.Layer(1), args), reference,
                         what + " LayerStack");
        }
      }
    }
  }
}

TEST(BeamSearchTest, SingletonGraph) {
  Dataset data(1, 4);
  for (std::size_t d = 0; d < 4; ++d) data.MutableRow(0)[d] = 1.0f;
  Graph graph(1);
  DistanceComputer dc(data);
  VisitedTable visited(1);
  const float query[4] = {0, 0, 0, 0};
  const auto found = BeamSearch(graph, dc, query, {0}, 3, 8, &visited);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 0u);
}

}  // namespace
}  // namespace gass::core
