#include "seeds/seed_selector.h"

#include <algorithm>
#include <cmath>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/neighbor.h"
#include "core/visited.h"
#include "diversify/diversify.h"

namespace gass::seeds {

using core::DistanceComputer;
using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

std::string StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSn:
      return "SN";
    case Strategy::kKd:
      return "KD";
    case Strategy::kLsh:
      return "LSH";
    case Strategy::kMd:
      return "MD";
    case Strategy::kSf:
      return "SF";
    case Strategy::kKs:
      return "KS";
    case Strategy::kKm:
      return "KM";
  }
  return "unknown";
}

std::vector<VectorId> KsRandomSeeds::Select(DistanceComputer& dc,
                                            const float* query,
                                            std::size_t count,
                                            Rng* rng) const {
  (void)dc;
  (void)query;
  GASS_CHECK(n_ > 0);
  count = std::max<std::size_t>(1, std::min(count, n_));
  std::vector<VectorId> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(static_cast<VectorId>(rng->UniformInt(n_)));
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

namespace {

std::vector<VectorId> NodePlusNeighbors(VectorId node, const Graph* graph,
                                        std::size_t count) {
  std::vector<VectorId> seeds{node};
  if (graph != nullptr && node < graph->size()) {
    for (VectorId u : graph->Neighbors(node)) {
      if (seeds.size() >= count) break;
      seeds.push_back(u);
    }
  }
  return seeds;
}

}  // namespace

std::vector<VectorId> SfFixedSeed::Select(DistanceComputer& dc,
                                          const float* query,
                                          std::size_t count, Rng* rng) const {
  (void)dc;
  (void)query;
  (void)rng;
  return NodePlusNeighbors(fixed_, graph_, std::max<std::size_t>(1, count));
}

std::vector<VectorId> MedoidSeeds::Select(DistanceComputer& dc,
                                          const float* query,
                                          std::size_t count, Rng* rng) const {
  (void)dc;
  (void)query;
  (void)rng;
  return NodePlusNeighbors(medoid_, graph_, std::max<std::size_t>(1, count));
}

std::vector<VectorId> KdSeeds::Select(DistanceComputer& dc, const float* query,
                                      std::size_t count, Rng* rng) const {
  (void)dc;  // Tree traversal compares split planes, not full vectors.
  (void)rng;
  std::vector<VectorId> seeds =
      forest_->SearchCandidates(*data_, query, std::max<std::size_t>(1, count));
  if (seeds.empty()) seeds.push_back(0);
  return seeds;
}

std::vector<VectorId> KmSeeds::Select(DistanceComputer& dc, const float* query,
                                      std::size_t count, Rng* rng) const {
  (void)dc;  // Centroid comparisons are against tree centroids, not data.
  (void)rng;
  std::vector<VectorId> seeds;
  tree_->SearchCandidates(*data_, query, std::max<std::size_t>(1, count),
                          &seeds);
  if (seeds.empty()) seeds.push_back(0);
  return seeds;
}

std::vector<VectorId> LshSeeds::Select(DistanceComputer& dc,
                                       const float* query, std::size_t count,
                                       Rng* rng) const {
  (void)dc;
  count = std::max<std::size_t>(1, count);
  std::vector<VectorId> seeds = index_->Candidates(query, count);
  // Bucket misses (common for out-of-distribution queries): top up with
  // random warm-up seeds so the beam search always has coverage.
  while (seeds.size() < count && n_ > 0) {
    seeds.push_back(static_cast<VectorId>(rng->UniformInt(n_)));
  }
  return seeds;
}

StackedNswLayers StackedNswLayers::Build(const core::Dataset& data,
                                         const Params& params,
                                         std::uint64_t seed,
                                         DistanceComputer* dc) {
  GASS_CHECK(!data.empty());
  GASS_CHECK(params.max_degree >= 2);
  StackedNswLayers stack;
  Rng rng(seed);

  // Draw each node's maximum layer per the paper's Eq. 1:
  //   L = -ln(ξ) / ln(M / 2)   (ξ uniform in (0,1)),
  // floored; layer 0 (the base graph) belongs to the caller.
  const double denom =
      std::log(std::max(2.0, static_cast<double>(params.max_degree) / 2.0));
  std::vector<std::uint32_t> level(data.size(), 0);
  std::uint32_t top = 0;
  VectorId top_node = 0;
  for (VectorId v = 0; v < data.size(); ++v) {
    double xi = rng.UniformDouble();
    if (xi < 1e-12) xi = 1e-12;
    const auto l = static_cast<std::uint32_t>(-std::log(xi) / denom);
    level[v] = l;
    if (l >= top) {
      top = l;
      top_node = v;
    }
  }
  if (top == 0) {
    // No hierarchical nodes at all (tiny datasets): keep a single layer
    // containing just the top node so Descend still works.
    level[top_node] = 1;
  }

  core::LayerStack& layers = stack.layers_;
  layers = core::LayerStack(data.size(), params.max_degree);
  for (VectorId v = 0; v < data.size(); ++v) {
    if (level[v] > 0) layers.AddNode(v, level[v]);
  }
  layers.ShrinkToFit();

  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params.max_degree;

  core::VisitedTable visited(data.size());
  VectorId entry = top_node;
  std::uint32_t entry_level = 0;
  for (VectorId v = 0; v < data.size(); ++v) {
    const std::uint32_t node_level = level[v];
    if (node_level == 0) continue;
    if (entry_level == 0) {
      // The first hierarchical node only enters the stack.
      entry = v;
      entry_level = node_level;
      continue;
    }
    VectorId current =
        layers.Descend(*dc, data.Row(v), entry, entry_level, node_level);
    // Insert into layers min(level, entry level)..1 with beam search + RND
    // pruning and bidirectional links, re-pruning overflowing lists.
    for (std::uint32_t l = std::min(node_level, entry_level); l > 0; --l) {
      const std::vector<Neighbor> candidates = core::BeamSearch(
          layers.Layer(l), *dc, data.Row(v), {current}, params.beam_width,
          params.beam_width, &visited);
      diversify::InstallBidirectional(
          *dc, &layers, l, v, diversify::Diversify(*dc, v, candidates, prune),
          prune);
      if (!candidates.empty()) current = candidates.front().id;
    }
    if (node_level > entry_level) {
      entry = v;
      entry_level = node_level;
    }
  }
  stack.entry_point_ = entry;
  return stack;
}

VectorId StackedNswLayers::Descend(DistanceComputer& dc,
                                   const float* query) const {
  return layers_.Descend(dc, query, entry_point_, layers_.num_layers(), 0);
}

std::vector<VectorId> SnSeeds::Select(DistanceComputer& dc,
                                      const float* query, std::size_t count,
                                      Rng* rng) const {
  (void)rng;
  count = std::max<std::size_t>(1, count);
  const VectorId node = layers_->Descend(dc, query);
  std::size_t degree = 0;
  const VectorId* ids = layers_->layers().Neighbors(1, node, &degree);
  std::vector<VectorId> seeds;
  seeds.reserve(std::min(count, degree + 1));
  seeds.push_back(node);
  for (std::size_t i = 0; i < degree && seeds.size() < count; ++i) {
    seeds.push_back(ids[i]);
  }
  return seeds;
}

VectorId ComputeMedoid(const core::Dataset& data) {
  GASS_CHECK(!data.empty());
  const std::size_t dim = data.dim();
  std::vector<double> mean(dim, 0.0);
  for (VectorId i = 0; i < data.size(); ++i) {
    const float* row = data.Row(i);
    for (std::size_t d = 0; d < dim; ++d) mean[d] += row[d];
  }
  std::vector<float> center(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    center[d] = static_cast<float>(mean[d] / static_cast<double>(data.size()));
  }
  VectorId best = 0;
  float best_dist = 3.402823466e38f;
  for (VectorId i = 0; i < data.size(); ++i) {
    const float d = core::L2Sq(center.data(), data.Row(i), dim);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

}  // namespace gass::seeds
