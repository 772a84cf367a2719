// Centroid routing and top-k merge, shared by both sharded indexes
// (shard::ShardedIndex and shard::LiveShardedIndex).
//
// A sharded query ranks every shard by its routing centroid, searches the
// nearest few on shard-local ids, and merges the per-shard answers back
// into one global top-k. The two ends of that pipeline live here, so the
// indexes differ only in what runs in between: replica choice, breakers
// and fan-out for the static index, a plain serial loop for the live one.

#ifndef GASS_SHARD_ROUTE_H_
#define GASS_SHARD_ROUTE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "core/tombstones.h"

namespace gass::shard {

/// Every shard as (squared L2 distance from `query` to its centroid,
/// shard id), nearest first; ties break toward the lower shard id, so
/// routing is deterministic. One distance computation per centroid.
std::vector<std::pair<float, std::uint32_t>> RankShards(
    const float* query, const core::Dataset& centroids);

/// Merges per-shard results into one global top-k. Each Add maps one
/// probe's shard-local ids to global ids and drops tombstoned global ids
/// (sub-searches run without tombstones, which are keyed by global id).
/// A single list passes through untouched — order, ties and length — so a
/// K=1 sharded index stays bit-identical to the unsharded one; two or more
/// are sorted by (distance, id) and truncated to k, so cross-shard ties
/// resolve to the lower global id whatever order the lists arrive in.
class MergeTopK {
 public:
  /// `tombstones` may be null (no filter).
  MergeTopK(std::size_t k, const core::TombstoneSet* tombstones);

  /// Consumes one probe's neighbours; `global_ids[local]` is the global id
  /// of the shard's local row.
  void Add(std::vector<core::Neighbor>&& local,
           const std::vector<core::VectorId>& global_ids);

  /// The merged global top-k.
  std::vector<core::Neighbor> Finish();

 private:
  std::size_t k_;
  const core::TombstoneSet* tombstones_;
  std::size_t lists_ = 0;
  std::vector<core::Neighbor> merged_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_ROUTE_H_
