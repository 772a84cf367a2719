#include "shard/route.h"

#include <algorithm>

#include "core/distance.h"

namespace gass::shard {

std::vector<std::pair<float, std::uint32_t>> RankShards(
    const float* query, const core::Dataset& centroids) {
  std::vector<std::pair<float, std::uint32_t>> ranked(centroids.size());
  for (std::size_t s = 0; s < ranked.size(); ++s) {
    ranked[s] = {core::L2Sq(query,
                            centroids.Row(static_cast<core::VectorId>(s)),
                            centroids.dim()),
                 static_cast<std::uint32_t>(s)};
  }
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

MergeTopK::MergeTopK(std::size_t k, const core::TombstoneSet* tombstones)
    : k_(k),
      tombstones_(tombstones != nullptr && !tombstones->empty() ? tombstones
                                                                : nullptr) {}

void MergeTopK::Add(std::vector<core::Neighbor>&& local,
                    const std::vector<core::VectorId>& global_ids) {
  for (core::Neighbor& nb : local) nb.id = global_ids[nb.id];
  if (tombstones_ != nullptr) {
    local.erase(std::remove_if(local.begin(), local.end(),
                               [this](const core::Neighbor& nb) {
                                 return tombstones_->Contains(nb.id);
                               }),
                local.end());
  }
  if (lists_++ == 0) {
    merged_ = std::move(local);
  } else {
    merged_.insert(merged_.end(), local.begin(), local.end());
  }
}

std::vector<core::Neighbor> MergeTopK::Finish() {
  if (lists_ > 1) {
    // Neighbor's operator< is (distance, id).
    std::sort(merged_.begin(), merged_.end());
    if (merged_.size() > k_) merged_.resize(k_);
  }
  return std::move(merged_);
}

}  // namespace gass::shard
