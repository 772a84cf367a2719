// Compact storage for the upper layers of a hierarchical proximity graph
// (HNSW's layers 1..top, the SN seed stack).
//
// Layer l holds only the nodes whose level is at least l, and with Eq. 1's
// level distribution most nodes have level 0. A dense core::Graph per layer
// pays a 24-byte list header for every node on every layer; at n = 100k
// that is megabytes of empty headers around a few hundred kilobytes of
// edges. LayerStack stores the lists in one contiguous u32 pool instead,
// as Faiss' HNSW does: each node has a u32 offset into the pool, and a node
// of level L owns L consecutive fixed blocks, one per layer 1..L:
//
//   [count | cap + 1 ids]
//
// where cap is the layers' degree bound. The extra id slot holds the one
// overflow entry that a reverse-edge insert appends before its caller
// re-prunes the list back to cap. A level-0 node costs its 4-byte offset.
//
// The stack does not record levels: callers know them (HNSW keeps its level
// table; the SN stack and the II baseline draw them up front), and every
// list must only name nodes that reach its layer. Descend and BeamSearch
// over a Layer() view therefore never leave the layer's members.

#ifndef GASS_CORE_LAYER_STACK_H_
#define GASS_CORE_LAYER_STACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/distance.h"
#include "core/macros.h"
#include "core/types.h"

namespace gass::core {

class LayerStack;

/// One layer of a LayerStack, as core::BeamSearch expands it.
class LayerView {
 public:
  LayerView(const LayerStack& stack, std::size_t layer)
      : stack_(&stack), layer_(layer) {}

  /// Pointer to v's ids on this layer; degree via out-parameter.
  inline const VectorId* Neighbors(VectorId v, std::size_t* degree) const;
  /// Address of v's block on this layer (see LayerStack::Block).
  inline const std::uint32_t* Block(VectorId v) const;

 private:
  const LayerStack* stack_;
  std::size_t layer_;
};

class LayerStack {
 public:
  /// Offset of a node that owns no blocks (level 0).
  static constexpr std::uint32_t kNoBlocks = 0xFFFFFFFFu;

  LayerStack() = default;
  /// `n` nodes, all at level 0; `cap` bounds every list.
  LayerStack(std::size_t n, std::size_t cap)
      : cap_(cap), offset_(n, kNoBlocks) {}

  std::size_t size() const { return offset_.size(); }
  std::size_t cap() const { return cap_; }
  /// Highest level given to any node.
  std::size_t num_layers() const { return num_layers_; }

  /// Gives level-0 node `v` empty lists on layers 1..level (level >= 1),
  /// appended to the pool. Nodes may be added in any order.
  void AddNode(VectorId v, std::size_t level);

  /// The pool index of v's first block, or kNoBlocks.
  std::uint32_t Offset(VectorId v) const {
    GASS_DCHECK(v < offset_.size());
    return offset_[v];
  }

  /// v's ids on `layer` (1 <= layer <= v's level); degree via out-parameter.
  const VectorId* Neighbors(std::size_t layer, VectorId v,
                            std::size_t* degree) const {
    const std::uint32_t* block = Block(layer, v);
    *degree = block[0];
    return block + 1;
  }

  LayerView Layer(std::size_t layer) const { return LayerView(*this, layer); }

  /// Address of v's `[count | ids]` block on `layer`, computed from the
  /// offset table alone: the block itself is not read, so a prefetch can
  /// request it before anything waits on it.
  const std::uint32_t* Block(std::size_t layer, VectorId v) const {
    GASS_DCHECK(layer >= 1 && layer <= num_layers_);
    GASS_DCHECK(v < offset_.size() && offset_[v] != kNoBlocks);
    return pool_.data() + offset_[v] + (layer - 1) * BlockWords();
  }

  /// Replaces v's list on `layer` with ids[0, count); count <= cap.
  void SetNeighbors(std::size_t layer, VectorId v, const VectorId* ids,
                    std::size_t count);

  /// Appends `source` to `target`'s list on `layer` unless it is present.
  /// Returns true when the list now holds cap + 1 ids: the caller must
  /// re-prune it with SetNeighbors before the next append.
  bool AddReverseEdge(std::size_t layer, VectorId target, VectorId source);

  /// Greedy descent from `entry` (a node of level >= from) through layers
  /// from, from - 1, ..., to + 1: on each layer, repeatedly move to the
  /// nearest neighbor of the current node while that is closer to `query`.
  /// Returns the node to enter layer `to` from. The entry's distance and
  /// every neighbor's are counted on `dc`; a node's list is evaluated with
  /// prefetched batched kernels, scanned in order.
  VectorId Descend(DistanceComputer& dc, const float* query, VectorId entry,
                   std::size_t from, std::size_t to) const;

  /// Offsets plus pool, at capacity.
  std::size_t MemoryBytes() const {
    return (offset_.capacity() + pool_.capacity()) * sizeof(std::uint32_t);
  }

  /// Releases pool slack left by growth (after a build or a load).
  void ShrinkToFit() { pool_.shrink_to_fit(); }

 private:
  std::size_t BlockWords() const { return cap_ + 2; }

  std::uint32_t* MutableBlock(std::size_t layer, VectorId v) {
    return const_cast<std::uint32_t*>(Block(layer, v));
  }

  std::size_t cap_ = 0;
  std::size_t num_layers_ = 0;
  std::vector<std::uint32_t> offset_;  ///< kNoBlocks for level-0 nodes.
  std::vector<std::uint32_t> pool_;
};

inline const VectorId* LayerView::Neighbors(VectorId v,
                                            std::size_t* degree) const {
  return stack_->Neighbors(layer_, v, degree);
}

inline const std::uint32_t* LayerView::Block(VectorId v) const {
  return stack_->Block(layer_, v);
}

}  // namespace gass::core

#endif  // GASS_CORE_LAYER_STACK_H_
