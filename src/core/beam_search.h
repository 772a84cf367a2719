// Beam search (Algorithm 1 of the paper): the single query-answering routine
// shared by every graph-based method.
//
// The search warms a sorted fixed-capacity candidate pool of width L with the
// seed nodes, then repeatedly expands the closest unexplored candidate,
// inserting its unvisited out-neighbors, until every candidate in the pool is
// explored. The best k candidates are returned.

#ifndef GASS_CORE_BEAM_SEARCH_H_
#define GASS_CORE_BEAM_SEARCH_H_

#include <cstddef>
#include <vector>

#include "core/deadline.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/layer_stack.h"
#include "core/neighbor.h"
#include "core/stats.h"
#include "core/tombstones.h"
#include "core/types.h"
#include "core/visited.h"

namespace gass::core {

/// Expansions between deadline polls (see BeamSearch).
inline constexpr std::uint64_t kDeadlineCheckHops = 32;

namespace internal {

/// Result emission shared by BeamSearch overloads: the pool's best k
/// candidates, minus logically deleted ids. Tombstoned nodes still steer
/// the traversal (they stay in the graph as waypoints); they are only
/// barred from the answer. With deletions present the result may hold
/// fewer than k neighbors — the pool is not re-widened, keeping the
/// explored set (and therefore distance_computations/hops) bit-identical
/// to a tombstone-free search. The null/empty path is the exact pre-delete
/// code path.
inline std::vector<Neighbor> EmitTopK(const CandidatePool& pool,
                                      std::size_t k,
                                      const TombstoneSet* tombstones) {
  if (tombstones == nullptr || tombstones->empty()) return pool.TopK(k);
  std::vector<Neighbor> out;
  out.reserve(k);
  for (std::size_t i = 0; i < pool.size() && out.size() < k; ++i) {
    if (tombstones->Contains(pool[i].id)) continue;
    out.push_back(pool[i]);
  }
  return out;
}

inline void ExpandNeighbors(const Graph& graph, VectorId v,
                            const VectorId** out, std::size_t* degree) {
  const auto& list = graph.Neighbors(v);
  *out = list.data();
  *degree = list.size();
}

inline void ExpandNeighbors(const FlatGraph& graph, VectorId v,
                            const VectorId** out, std::size_t* degree) {
  *out = graph.Neighbors(v, degree);
}

inline void ExpandNeighbors(const LayerView& layer, VectorId v,
                            const VectorId** out, std::size_t* degree) {
  *out = layer.Neighbors(v, degree);
}

/// Requests the first cache line of v's adjacency list. Address-only: each
/// overload reads what locates the list (a Graph header, a FlatGraph offset,
/// a LayerStack offset), never the list itself.
inline void PrefetchList(const void* list) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(list, /*rw=*/0, /*locality=*/3);
#else
  (void)list;
#endif
}
inline void PrefetchNeighbors(const Graph& graph, VectorId v) {
  PrefetchList(graph.Neighbors(v).data());
}
inline void PrefetchNeighbors(const FlatGraph& graph, VectorId v) {
  std::size_t degree = 0;
  PrefetchList(graph.Neighbors(v, &degree));
}
inline void PrefetchNeighbors(const LayerView& layer, VectorId v) {
  PrefetchList(layer.Block(v));
}

/// Neighbors evaluated per batched kernel call during expansion.
inline constexpr std::size_t kExpandBatch = DistanceComputer::kBatchChunk;

inline constexpr float kNoPruneBound = 3.402823466e38f;

/// The one expansion loop behind BeamSearch and BeamSearchCollect; appends
/// every evaluated vertex to `evaluated` in visit order when it is non-null.
template <typename GraphT>
std::vector<Neighbor> Walk(const GraphT& graph, DistanceComputer& dc,
                           const float* query,
                           const std::vector<VectorId>& seeds, std::size_t k,
                           std::size_t beam_width, VisitedTable* visited,
                           std::vector<Neighbor>* evaluated,
                           SearchStats* stats, float prune_bound,
                           const Deadline* deadline,
                           const TombstoneSet* tombstones) {
  const std::size_t width = beam_width < k ? k : beam_width;
  CandidatePool pool(width);
  pool.SetPruneBound(prune_bound);
  visited->NewEpoch();

  for (VectorId seed : seeds) {
    if (!visited->TryVisit(seed)) continue;
    const float d = dc.ToQuery(query, seed);
    if (evaluated != nullptr) evaluated->push_back(Neighbor(seed, d));
    pool.Insert(Neighbor(seed, d));
  }

  std::uint64_t hops = 0;
  std::uint64_t prefetched = 0;
  for (;;) {
    if (deadline != nullptr && hops % kDeadlineCheckHops == 0 &&
        deadline->IsExpired()) {
      if (stats != nullptr) stats->deadline_expiries += 1;
      break;
    }
    const std::size_t next = pool.FirstUnexplored();
    if (next == pool.size()) break;
    const VectorId v = pool[next].id;
    pool.MarkExplored(next);
    ++hops;

    // Software pipeline: request the likeliest next hop's list (the next
    // unexplored candidate) now, so it arrives while v's rows are scored. A
    // closer insert may pre-empt the guess, which only wastes the request.
    const std::size_t guess = pool.FirstUnexplored();
    if (guess < pool.size()) PrefetchNeighbors(graph, pool[guess].id);

    // Prefetch-then-batch expansion: claim the unvisited out-neighbors
    // (branch-free: every id is stored, the count advances only for a fresh
    // one), prefetch the claimed rows, evaluate the chunk with one batched
    // kernel call, then filter/insert sequentially. The evaluated set,
    // distance values, count, and insert order are all identical to the
    // one-at-a-time loop — only the memory/compute overlap changes.
    const VectorId* neighbors = nullptr;
    std::size_t degree = 0;
    ExpandNeighbors(graph, v, &neighbors, &degree);
    VectorId chunk[kExpandBatch];
    float dist[kExpandBatch];
    std::size_t i = 0;
    while (i < degree) {
      std::size_t m = 0;
      for (; i < degree && m < kExpandBatch; ++i) {
        const VectorId u = neighbors[i];
        chunk[m] = u;
        m += visited->TryVisit(u);
      }
      if (m == 0) continue;
      for (std::size_t j = 0; j < m; ++j) dc.Prefetch(chunk[j]);
      prefetched += m;
      dc.ToQueryBatch(query, chunk, m, dist);
      for (std::size_t j = 0; j < m; ++j) {
        const Neighbor nb(chunk[j], dist[j]);
        if (evaluated != nullptr) evaluated->push_back(nb);
        if (nb.distance >= pool.WorstDistance()) continue;
        pool.Insert(nb);
      }
    }
  }

  if (stats != nullptr) {
    stats->hops += hops;
    stats->prefetches += prefetched;
  }
  return EmitTopK(pool, k, tombstones);
}

}  // namespace internal

/// Runs Algorithm 1 over `graph` (Graph, FlatGraph or one LayerStack
/// layer).
///
/// `seeds` warm the candidate pool (the first seed acts as the entry node —
/// it is simply the first candidate expanded, since the pool is sorted by
/// distance the distinction only matters for instrumentation). `beam_width`
/// is L (clamped up to k). `visited` must cover the graph's vertex range and
/// is re-epoched here. Distance computations are counted on `dc`; expanded
/// hops and row prefetches on `stats` when provided.
///
/// `deadline`, when given, is polled every kDeadlineCheckHops expansions;
/// on expiry the search stops and returns its best-so-far answers (a
/// partial result), recording the cutoff in `stats->deadline_expiries`.
///
/// `tombstones`, when given, filters logically deleted ids out of the
/// returned results (traversal is unaffected; see internal::EmitTopK).
template <typename GraphT>
std::vector<Neighbor> BeamSearch(const GraphT& graph, DistanceComputer& dc,
                                 const float* query,
                                 const std::vector<VectorId>& seeds,
                                 std::size_t k, std::size_t beam_width,
                                 VisitedTable* visited,
                                 SearchStats* stats = nullptr,
                                 float prune_bound = internal::kNoPruneBound,
                                 const Deadline* deadline = nullptr,
                                 const TombstoneSet* tombstones = nullptr) {
  return internal::Walk(graph, dc, query, seeds, k, beam_width, visited,
                        nullptr, stats, prune_bound, deadline, tombstones);
}

/// BeamSearch variant that also returns every vertex whose distance was
/// evaluated, in visit order. Builders (NSG, Vamana) use the visited list as
/// the candidate set for diversified pruning.
template <typename GraphT>
std::vector<Neighbor> BeamSearchCollect(const GraphT& graph,
                                        DistanceComputer& dc,
                                        const float* query,
                                        const std::vector<VectorId>& seeds,
                                        std::size_t k, std::size_t beam_width,
                                        VisitedTable* visited,
                                        std::vector<Neighbor>* evaluated,
                                        SearchStats* stats = nullptr) {
  evaluated->clear();
  return internal::Walk(graph, dc, query, seeds, k, beam_width, visited,
                        evaluated, stats, internal::kNoPruneBound, nullptr,
                        nullptr);
}

}  // namespace gass::core

#endif  // GASS_CORE_BEAM_SEARCH_H_
