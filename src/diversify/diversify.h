// Neighborhood Diversification (ND) strategies — Section 3.4 of the paper.
//
// Given a node X_q and a candidate neighbor list C_q sorted by ascending
// distance to X_q, a diversifier greedily builds the result list R_q:
// candidates are visited nearest-first, and candidate X_j is kept iff the
// strategy's geometric condition holds against every already-kept X_i:
//
//   RND   (Def. 3): dist(X_q, X_j) <  dist(X_i, X_j)
//   RRND  (Def. 4): dist(X_q, X_j) <  α · dist(X_i, X_j),  α ≥ 1
//   MOND  (Def. 5): ∠(X_i X_q X_j) >  θ,                   θ ≥ 60°
//   NoND:           always kept (plain nearest-first truncation)
//
// All conditions are evaluated from distances only (MOND's angle comes from
// the law of cosines), so a diversifier needs just a DistanceComputer.
// Any node pruned by RRND or MOND is also pruned by RND, but not vice versa
// (paper Section 3.4), which the property tests verify.

#ifndef GASS_DIVERSIFY_DIVERSIFY_H_
#define GASS_DIVERSIFY_DIVERSIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/distance.h"
#include "core/layer_stack.h"
#include "core/neighbor.h"

namespace gass::diversify {

/// Which ND condition to apply.
enum class Strategy {
  kNone,  ///< NoND: nearest-first truncation to max_degree.
  kRnd,   ///< Relative Neighborhood Diversification (HNSW, NSG, SPTAG, ELPIS).
  kRrnd,  ///< Relaxed RND with factor alpha (Vamana).
  kMond,  ///< Maximum-Oriented ND with angle theta (DPG, SSG).
};

/// Human-readable strategy name ("RND", "RRND", ...).
std::string StrategyName(Strategy strategy);

/// Diversification parameters.
struct Params {
  Strategy strategy = Strategy::kRnd;
  /// RRND relaxation factor (α ≥ 1; α = 1 reduces RRND to RND).
  float alpha = 1.3f;
  /// MOND angle threshold in degrees (θ ≥ 60° per Def. 5).
  float theta_degrees = 60.0f;
  /// Maximum size of the kept neighbor list (the graph's out-degree bound).
  std::size_t max_degree = 32;
};

/// Accumulates the before/after list sizes behind Table 1's pruning ratios.
struct PruneStats {
  std::uint64_t nodes = 0;            ///< Diversification calls.
  std::uint64_t candidates = 0;       ///< Total candidates offered.
  std::uint64_t kept = 0;             ///< Total neighbors kept.
  std::uint64_t truncated_quota = 0;  ///< Σ min(|C_q|, max_degree).

  /// Percentage reduction of the kept list versus the NoND baseline
  /// (min(|C_q|, max_degree)) — the Table 1 measure. In [0, 1].
  double PruningRatio() const {
    if (truncated_quota == 0) return 0.0;
    return 1.0 - static_cast<double>(kept) /
                     static_cast<double>(truncated_quota);
  }
};

/// Applies the configured strategy to `candidates` (sorted ascending by
/// distance to the node being diversified; each Neighbor carries
/// dist(X_q, ·)). Returns the kept list, still sorted ascending, of size at
/// most params.max_degree. Inter-candidate distances are computed through
/// `dc` (and counted there). Duplicate ids in `candidates` are ignored.
///
/// `self` is the id of X_q when it is a dataset vector (used only to skip a
/// self-candidate); pass core::kInvalidVectorId for external query points.
std::vector<core::Neighbor> Diversify(core::DistanceComputer& dc,
                                      core::VectorId self,
                                      const std::vector<core::Neighbor>& candidates,
                                      const Params& params,
                                      PruneStats* stats = nullptr);

/// Appends (u, dc.Between(v, u)) for every u in [ids, ids + n) to `scored`,
/// evaluating distances through the batched kernels with rows prefetched
/// ahead of the compute. Same count and bit-identical distances as a
/// per-neighbor loop.
inline void AppendScored(core::DistanceComputer& dc, core::VectorId v,
                         const core::VectorId* ids, std::size_t n,
                         std::vector<core::Neighbor>* scored) {
  constexpr std::size_t kChunk = core::DistanceComputer::kBatchChunk;
  float dist[kChunk];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kChunk ? n - done : kChunk;
    for (std::size_t j = 0; j < m; ++j) dc.Prefetch(ids[done + j]);
    dc.BetweenBatch(v, ids + done, m, dist);
    for (std::size_t j = 0; j < m; ++j) {
      scored->emplace_back(ids[done + j], dist[j]);
    }
    done += m;
  }
}

/// Adds the edge target -> source on `layer` of `stack` unless present. A
/// list that overflows the stack's cap is re-pruned: scored against
/// `target`, sorted nearest-first and diversified with `params`, whose
/// max_degree must equal the cap (the II overflow treatment that
/// methods::AddReverseEdge applies to a core::Graph). Touches only
/// `target`'s list.
void AddReverseEdge(core::DistanceComputer& dc, core::LayerStack* stack,
                    std::size_t layer, core::VectorId target,
                    core::VectorId source, const Params& params,
                    PruneStats* stats = nullptr);

/// Installs `kept` (at most the cap) as v's list on `layer` and adds the
/// reverse edge to each kept neighbor, in order (see AddReverseEdge).
void InstallBidirectional(core::DistanceComputer& dc, core::LayerStack* stack,
                          std::size_t layer, core::VectorId v,
                          const std::vector<core::Neighbor>& kept,
                          const Params& params);

}  // namespace gass::diversify

#endif  // GASS_DIVERSIFY_DIVERSIFY_H_
