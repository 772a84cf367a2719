#include "core/layer_stack.h"

#include <algorithm>

namespace gass::core {

void LayerStack::AddNode(VectorId v, std::size_t level) {
  GASS_CHECK(v < offset_.size() && offset_[v] == kNoBlocks);
  GASS_CHECK(level >= 1);
  const std::size_t words = level * BlockWords();
  GASS_CHECK_MSG(pool_.size() + words < kNoBlocks,
                 "layer stack pool exceeds 32-bit offsets");
  offset_[v] = static_cast<std::uint32_t>(pool_.size());
  pool_.resize(pool_.size() + words, 0);
  num_layers_ = std::max(num_layers_, level);
}

void LayerStack::SetNeighbors(std::size_t layer, VectorId v,
                              const VectorId* ids, std::size_t count) {
  GASS_CHECK(count <= cap_);
  std::uint32_t* block = MutableBlock(layer, v);
  block[0] = static_cast<std::uint32_t>(count);
  std::copy(ids, ids + count, block + 1);
}

bool LayerStack::AddReverseEdge(std::size_t layer, VectorId target,
                                VectorId source) {
  std::uint32_t* block = MutableBlock(layer, target);
  const std::uint32_t count = block[0];
  GASS_DCHECK(count <= cap_);
  VectorId* ids = block + 1;
  if (std::find(ids, ids + count, source) != ids + count) return false;
  ids[count] = source;
  block[0] = count + 1;
  return count + 1 > cap_;
}

VectorId LayerStack::Descend(DistanceComputer& dc, const float* query,
                             VectorId entry, std::size_t from,
                             std::size_t to) const {
  GASS_DCHECK(from <= num_layers_);
  VectorId current = entry;
  float current_dist = dc.ToQuery(query, current);
  for (std::size_t layer = from; layer > to; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      // Prefetch-then-batch over the full list of the node this sweep
      // started from; the sequential scan keeps the greedy step (and the
      // distance count) identical to a one-at-a-time loop.
      std::size_t degree = 0;
      const VectorId* ids = Neighbors(layer, current, &degree);
      constexpr std::size_t kChunk = DistanceComputer::kBatchChunk;
      float dist[kChunk];
      for (std::size_t i = 0; i < degree; i += kChunk) {
        const std::size_t m = std::min(kChunk, degree - i);
        for (std::size_t j = 0; j < m; ++j) dc.Prefetch(ids[i + j]);
        dc.ToQueryBatch(query, ids + i, m, dist);
        for (std::size_t j = 0; j < m; ++j) {
          if (dist[j] < current_dist) {
            current_dist = dist[j];
            current = ids[i + j];
            improved = true;
          }
        }
      }
    }
  }
  return current;
}

}  // namespace gass::core
