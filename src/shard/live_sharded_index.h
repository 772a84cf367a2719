// LiveIndex over a centroid-routed collection of streaming HNSW shards.
//
// The sharded sibling of serve::LiveHnsw: the base dataset is partitioned
// once at build time (shard::Partition), each shard gets its own
// fixed-capacity arena + HnswIndex built over its base rows, and live
// inserts route to the nearest-centroid shard with arena room — each
// shard is one WAL stream, so an id's insert (and its later delete, via
// RouteDelete = owning shard) is logged in that shard's log and per-stream
// replay order is sufficient for recovery.
//
// Searches rank the shard centroids against the query and probe the top
// `nprobe` shards serially, merging through the same RankShards and
// MergeTopK (shard/route.h) as shard::ShardedIndex. This class is the
// mutable data plane: one graph per shard, with no replicas, breakers,
// hedging or fan-out pool.
//
// Implements both methods::GraphIndex (the searchable face handed to
// serve::Frontend) and serve::LiveIndex (the update face handed to
// serve::Updater).

#ifndef GASS_SHARD_LIVE_SHARDED_INDEX_H_
#define GASS_SHARD_LIVE_SHARDED_INDEX_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "methods/hnsw_index.h"
#include "serve/live_index.h"
#include "shard/partitioner.h"

namespace gass::shard {

struct LiveShardedOptions {
  std::size_t num_shards = 4;
  /// Shards probed per query, best-centroid first (0 = all shards).
  std::size_t nprobe = 0;
  /// Arena headroom per shard: live inserts a shard accepts beyond its
  /// base rows.
  std::size_t reserve_per_shard = 1024;
  methods::HnswParams hnsw;
  PartitionerParams partitioner;
  std::uint64_t seed = 42;
};

class LiveShardedIndex : public methods::GraphIndex, public serve::LiveIndex {
 public:
  explicit LiveShardedIndex(const LiveShardedOptions& options);

  /// An unbuilt shell for checkpoint loading; LoadSections() restores the
  /// shards with base rows re-materialized from `base` (which must be the
  /// dataset the original Build ran over, alive until LoadSections
  /// returns).
  static std::unique_ptr<LiveShardedIndex> Shell(
      const core::Dataset& base, const LiveShardedOptions& options);

  // --- methods::GraphIndex ---

  std::string Name() const override { return "LIVE-SHARDED-HNSW"; }
  methods::BuildStats Build(const core::Dataset& data) override;
  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params) override;
  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params,
                               methods::SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }
  bool HasBaseGraph() const override { return false; }
  const core::Graph& graph() const override;
  std::size_t IndexBytes() const override;
  /// Sized by the largest shard arena: sub-searches run over shard-local
  /// id ranges, never the global one.
  methods::SearchContext MakeSearchContext(
      std::uint64_t seed) const override;
  std::uint64_t ParamsFingerprint() const override;

  using methods::GraphIndex::LoadSections;
  using methods::GraphIndex::SaveSections;

  // --- serve::LiveIndex ---

  const methods::GraphIndex& SearchIndex() const override { return *this; }
  methods::GraphIndex* MutableSearchIndex() override { return this; }
  std::string MethodName() const override { return Name(); }
  std::size_t dim() const override { return dim_; }
  std::size_t id_capacity() const override { return owner_.size(); }
  std::size_t next_id() const override { return next_id_; }
  std::uint32_t num_streams() const override {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t RouteInsert(const float* vec) const override;
  std::uint32_t RouteDelete(core::VectorId id) const override;
  bool CanInsert(std::uint32_t stream) const override;
  bool Exists(core::VectorId id) const override;
  core::Status ApplyInsert(std::uint32_t stream, core::VectorId id,
                           const float* vec) override;
  core::Status SaveSections(io::SnapshotWriter* writer) const override;
  core::Status LoadSections(const io::SnapshotReader& reader) override;

  const methods::HnswIndex& shard_index(std::size_t s) const {
    return shards_[s]->index;
  }
  const std::vector<core::VectorId>& shard_global_ids(std::size_t s) const {
    return shards_[s]->global_ids;
  }

 private:
  static constexpr std::uint32_t kNoOwner = ~std::uint32_t{0};

  struct Shard {
    explicit Shard(const methods::HnswParams& params) : index(params) {}
    core::Dataset arena;
    methods::HnswIndex index;
    /// global_ids[local] = global id of the shard's local row `local`.
    std::vector<core::VectorId> global_ids;
    std::size_t base_rows = 0;
  };

  LiveShardedOptions options_;
  const core::Dataset* base_ = nullptr;  ///< Shell-load source.
  std::size_t dim_ = 0;
  std::size_t base_n_ = 0;
  core::Dataset centroids_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// owner_[id] = shard owning global id (kNoOwner = not yet inserted).
  std::vector<std::uint32_t> owner_;
  std::size_t next_id_ = 0;
  /// Lazily created context backing the serial two-argument Search.
  std::unique_ptr<methods::SearchContext> serial_ctx_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_LIVE_SHARDED_INDEX_H_
