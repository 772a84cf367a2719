// HNSW — Hierarchical Navigable Small World (Malkov & Yashunin 2020).
//
// Incremental Insertion + RND diversification + Stacked-NSW seed selection.
// Each node draws a maximum layer from Eq. 1; insertion descends greedily
// from the global entry point through layers above the node's level, then at
// every layer from the node's level down to 0 runs a beam search
// (ef_construction wide), prunes the candidates with RND ("select neighbors
// by heuristic"), and installs bidirectional edges — overflowing lists are
// re-pruned with RND. Layer 0 allows 2·M neighbors (hnswlib's maxM0).
// Queries descend the layers greedily and beam-search layer 0.
//
// Construction inserts in deterministic batches (ParlayANN's prefix
// doubling): node 0 alone, then batches of 1, 2, 4, ... nodes capped at
// max(1, n/50). Every node of a batch searches the graph as it stood when
// the batch began, in parallel; the batch's edges are then applied per
// layer — forward lists first, then the reverse edges grouped by target
// and appended in source-id order, each target re-pruned independently.
// The graph therefore depends only on the data, the seed and the batch
// schedule, never on the number of build threads (BuildPrefix uses
// core::DefaultThreadCount()). Levels are drawn serially in id order, so
// the level stream matches a one-at-a-time build.
//
// BuildPrefix() indexes the first rows of a collection; Extend() inserts
// further rows later without a rebuild, one node at a time (a batch of
// one), which is what the live update path and WAL replay rely on.
//
// Layer 0 is a core::Graph; layers 1..top live in a core::LayerStack, so
// only the nodes that reach an upper layer pay for its lists (M + 1 slots
// per layer, the extra one for the overflow a reverse edge re-prunes).
// Snapshots keep the dense per-layer format.

#ifndef GASS_METHODS_HNSW_INDEX_H_
#define GASS_METHODS_HNSW_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/layer_stack.h"
#include "core/rng.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct HnswParams {
  std::size_t m = 16;                   ///< Out-degree bound (upper layers).
  std::size_t ef_construction = 100;    ///< Construction beam width.
  std::uint64_t seed = 42;
};

class HnswIndex : public GraphIndex {
 public:
  explicit HnswIndex(const HnswParams& params) : params_(params) {}

  std::string Name() const override { return "HNSW"; }

  /// Indexes all rows of `data`.
  BuildStats Build(const core::Dataset& data) override;

  /// Indexes only rows [0, count); the rest can be added later with
  /// Extend(). `data` must already contain every row that will ever be
  /// inserted (rows beyond `count` are simply not indexed yet).
  BuildStats BuildPrefix(const core::Dataset& data, std::size_t count);

  /// Inserts rows [inserted_count(), new_count) into the index. The stats
  /// carry distances and time only: index_bytes would cost a walk over
  /// every adjacency list per call, which live inserts cannot afford.
  BuildStats Extend(std::size_t new_count);

  SearchResult Search(const float* query, const SearchParams& params) override;
  SearchResult Search(const float* query, const SearchParams& params,
                      SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }

  const core::Graph& graph() const override { return base_; }
  std::size_t IndexBytes() const override;

  std::size_t num_layers() const { return layers_.num_layers(); }
  /// Layers 1..top; node v is on layers 1..level(v).
  const core::LayerStack& layers() const { return layers_; }
  std::uint32_t level(core::VectorId v) const { return level_[v]; }
  core::VectorId entry_point() const { return entry_; }
  std::size_t inserted_count() const { return inserted_; }

  /// Persists the full index (levels, entry point, base graph and layer
  /// graphs) as a single snapshot file. The raw vectors are not included;
  /// Load() must be given the same dataset. Thin wrappers over
  /// methods::SaveIndex / methods::LoadIndex.
  core::Status Save(const std::string& path) const;
  core::Status Load(const std::string& path, const core::Dataset& data);

  std::uint64_t ParamsFingerprint() const override;
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

 private:
  friend class HnswIndexTestPeer;  // Varies the build thread count.

  /// BuildPrefix on `threads` workers.
  BuildStats BuildPrefixOn(const core::Dataset& data, std::size_t count,
                           std::size_t threads);

  /// Shared implementation behind both Search overloads; the descent is
  /// deterministic, so only the visited table varies per caller.
  SearchResult SearchWith(const float* query, const SearchParams& params,
                          core::VisitedTable* visited) const;

  /// Draws the next node's maximum layer (Eq. 1) from level_rng_.
  std::uint32_t DrawLevel();

  /// Chooses node `v`'s neighbors against the current graph without
  /// changing it: the descent to v's level, then per layer from
  /// min(level, entry level) down to 0 a beam search and the RND prune.
  /// Returns the kept ids indexed by layer.
  std::vector<std::vector<core::VectorId>> FindNeighbors(
      core::DistanceComputer& dc, core::VisitedTable* visited,
      core::VectorId v) const;

  /// Inserts rows [inserted_, count) in batches of
  /// min(max_batch, max(1, inserted_)) nodes across `threads` workers;
  /// returns the distances computed.
  std::uint64_t InsertRows(std::size_t count, std::size_t max_batch,
                           std::size_t threads);

  /// One build worker's scratch, on its own cache line: the distance
  /// counter is written on every computation, and workers sharing a line
  /// would contend for it.
  /// Its visited table is made on first use, so a worker that a small
  /// batch or an inline (nested) ParallelFor never reaches allocates none.
  struct alignas(64) BuildWorker {
    explicit BuildWorker(const core::Dataset& data) : dc(data) {}
    core::DistanceComputer dc;
    core::VisitedTable* visited = nullptr;
    std::unique_ptr<core::VisitedTable> owned;
  };

  /// Inserts rows [inserted_, end) as one batch over the frozen graph.
  void InsertBatch(std::size_t end, std::vector<BuildWorker>& workers);

  HnswParams params_;
  core::Graph base_;         ///< Layer 0.
  core::LayerStack layers_;  ///< Layers 1..top, cap M.
  std::vector<std::uint32_t> level_;
  core::VectorId entry_ = 0;
  std::uint32_t entry_level_ = 0;
  std::size_t inserted_ = 0;
  std::unique_ptr<core::Rng> level_rng_;
  std::unique_ptr<core::VisitedTable> visited_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HNSW_INDEX_H_
