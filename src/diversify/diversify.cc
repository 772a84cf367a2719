#include "diversify/diversify.h"

#include <algorithm>
#include <cmath>

#include "core/macros.h"

namespace gass::diversify {

using core::DistanceComputer;
using core::Neighbor;
using core::VectorId;

std::string StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNone:
      return "NoND";
    case Strategy::kRnd:
      return "RND";
    case Strategy::kRrnd:
      return "RRND";
    case Strategy::kMond:
      return "MOND";
  }
  return "unknown";
}

namespace {

// cos of the angle at X_q in triangle (X_i, X_q, X_j), via the law of
// cosines over *squared* distances: cos = (a² + b² - c²) / (2ab) with
// a = |X_q X_i|, b = |X_q X_j|, c = |X_i X_j|.
double CosAngleAtQ(float a_sq, float b_sq, float c_sq) {
  const double ab =
      std::sqrt(static_cast<double>(a_sq)) * std::sqrt(static_cast<double>(b_sq));
  if (ab <= 0.0) return 1.0;  // Degenerate: coincident points.
  double value = (static_cast<double>(a_sq) + b_sq - c_sq) / (2.0 * ab);
  return std::clamp(value, -1.0, 1.0);
}

}  // namespace

std::vector<Neighbor> Diversify(DistanceComputer& dc, VectorId self,
                                const std::vector<Neighbor>& candidates,
                                const Params& params, PruneStats* stats) {
  GASS_CHECK(params.max_degree > 0);
  GASS_DCHECK(std::is_sorted(candidates.begin(), candidates.end()));

  const double cos_theta =
      std::cos(static_cast<double>(params.theta_degrees) * 3.14159265358979 /
               180.0);
  const float alpha = params.alpha;
  GASS_CHECK(params.strategy != Strategy::kRrnd || alpha >= 1.0f);

  std::vector<Neighbor> kept;
  kept.reserve(params.max_degree);

  std::size_t offered = 0;
  for (const Neighbor& candidate : candidates) {
    if (kept.size() == params.max_degree) break;
    if (candidate.id == self) continue;
    // Skip duplicates already kept.
    bool duplicate = false;
    for (const Neighbor& existing : kept) {
      if (existing.id == candidate.id) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    ++offered;

    bool keep = true;
    if (params.strategy != Strategy::kNone) {
      for (const Neighbor& existing : kept) {
        const float inter = dc.Between(existing.id, candidate.id);
        switch (params.strategy) {
          case Strategy::kRnd:
            // Keep iff dist(X_q, X_j) < dist(X_i, X_j) for all kept X_i.
            if (candidate.distance >= inter) keep = false;
            break;
          case Strategy::kRrnd:
            // Keep iff dist(X_q, X_j) < α · dist(X_i, X_j). Distances are
            // squared, so α scales as α² on this side.
            if (candidate.distance >= alpha * alpha * inter) keep = false;
            break;
          case Strategy::kMond:
            // Keep iff the angle at X_q exceeds θ, i.e. cos(angle) < cosθ.
            if (CosAngleAtQ(existing.distance, candidate.distance, inter) >=
                cos_theta) {
              keep = false;
            }
            break;
          case Strategy::kNone:
            break;
        }
        if (!keep) break;
      }
    }
    if (keep) kept.push_back(candidate);
  }

  if (stats != nullptr) {
    ++stats->nodes;
    stats->candidates += offered;
    stats->kept += kept.size();
    stats->truncated_quota += std::min(offered, params.max_degree);
  }
  return kept;
}

namespace {

void SetKept(core::LayerStack* stack, std::size_t layer, VectorId v,
             const std::vector<Neighbor>& kept) {
  std::vector<VectorId> ids;
  ids.reserve(kept.size());
  for (const Neighbor& nb : kept) ids.push_back(nb.id);
  stack->SetNeighbors(layer, v, ids.data(), ids.size());
}

}  // namespace

void AddReverseEdge(DistanceComputer& dc, core::LayerStack* stack,
                    std::size_t layer, VectorId target, VectorId source,
                    const Params& params, PruneStats* stats) {
  GASS_DCHECK(params.max_degree == stack->cap());
  if (!stack->AddReverseEdge(layer, target, source)) return;
  std::size_t degree = 0;
  const VectorId* ids = stack->Neighbors(layer, target, &degree);
  std::vector<Neighbor> candidates;
  candidates.reserve(degree);
  AppendScored(dc, target, ids, degree, &candidates);
  std::sort(candidates.begin(), candidates.end());
  SetKept(stack, layer, target,
          Diversify(dc, target, candidates, params, stats));
}

void InstallBidirectional(DistanceComputer& dc, core::LayerStack* stack,
                          std::size_t layer, VectorId v,
                          const std::vector<Neighbor>& kept,
                          const Params& params) {
  SetKept(stack, layer, v, kept);
  for (const Neighbor& nb : kept) {
    AddReverseEdge(dc, stack, layer, nb.id, v, params);
  }
}

}  // namespace gass::diversify
