// Shared construction helpers for the method implementations.

#ifndef GASS_METHODS_BUILD_UTIL_H_
#define GASS_METHODS_BUILD_UTIL_H_

#include <algorithm>
#include <vector>

#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"
#include "diversify/diversify.h"

namespace gass::methods {

using diversify::AppendScored;

/// Adds the edge target -> source unless present; a list that overflows
/// `prune.max_degree` is re-pruned with the same ND strategy (the standard
/// II/Vamana overflow treatment). Touches only `target`'s list.
inline void AddReverseEdge(core::DistanceComputer& dc, core::Graph* graph,
                           core::VectorId target, core::VectorId source,
                           const diversify::Params& prune,
                           diversify::PruneStats* stats = nullptr) {
  auto& back = graph->MutableNeighbors(target);
  if (std::find(back.begin(), back.end(), source) != back.end()) return;
  back.push_back(source);
  if (back.size() <= prune.max_degree) return;
  std::vector<core::Neighbor> candidates;
  candidates.reserve(back.size());
  AppendScored(dc, target, back.data(), back.size(), &candidates);
  std::sort(candidates.begin(), candidates.end());
  const std::vector<core::Neighbor> re_kept =
      diversify::Diversify(dc, target, candidates, prune, stats);
  back.clear();
  for (const core::Neighbor& b : re_kept) back.push_back(b.id);
}

/// Installs `kept` as v's neighbor list and adds the reverse edge to each
/// kept neighbor (see AddReverseEdge).
inline void InstallBidirectional(core::DistanceComputer& dc,
                                 core::Graph* graph, core::VectorId v,
                                 const std::vector<core::Neighbor>& kept,
                                 const diversify::Params& prune,
                                 diversify::PruneStats* stats = nullptr) {
  auto& forward = graph->MutableNeighbors(v);
  forward.clear();
  for (const core::Neighbor& nb : kept) forward.push_back(nb.id);
  for (const core::Neighbor& nb : kept) {
    AddReverseEdge(dc, graph, nb.id, v, prune, stats);
  }
}

/// Truncates every neighbor list to its `max_degree` nearest (used by NoND
/// paths and final degree capping).
inline void CapDegrees(core::DistanceComputer& dc, core::Graph* graph,
                       std::size_t max_degree) {
  for (core::VectorId v = 0; v < graph->size(); ++v) {
    auto& list = graph->MutableNeighbors(v);
    if (list.size() <= max_degree) continue;
    std::vector<core::Neighbor> scored;
    scored.reserve(list.size());
    AppendScored(dc, v, list.data(), list.size(), &scored);
    std::sort(scored.begin(), scored.end());
    list.clear();
    for (std::size_t i = 0; i < max_degree; ++i) list.push_back(scored[i].id);
  }
}

}  // namespace gass::methods

#endif  // GASS_METHODS_BUILD_UTIL_H_
