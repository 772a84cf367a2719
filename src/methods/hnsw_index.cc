#include "methods/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/thread_pool.h"
#include "diversify/diversify.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::DistanceComputer;
using core::Graph;
using core::Neighbor;
using core::VectorId;

namespace {

using EdgePairs = std::vector<std::pair<VectorId, VectorId>>;

// Orders (target, source) pairs, all with target < `targets`, by target and
// keeps each target's sources in arrival order. The pairs arrive in
// ascending source order, so this is std::sort's order, reached by one
// counting pass in O(pairs + targets). Below targets / 16 pairs std::sort
// is faster (one core, 32 random targets per source: even at 10k targets,
// between targets / 64 and / 32 at 100k), which also keeps Extend's
// one-node batches off the O(targets) count.
void SortByTarget(std::size_t targets, EdgePairs* pairs) {
  if (pairs->size() * 16 < targets) {
    std::sort(pairs->begin(), pairs->end());
    return;
  }
  std::vector<std::size_t> start(targets + 1, 0);
  for (const auto& pair : *pairs) {
    GASS_DCHECK(pair.first < targets);
    ++start[pair.first + 1];
  }
  for (std::size_t t = 0; t < targets; ++t) start[t + 1] += start[t];
  EdgePairs sorted(pairs->size());
  for (const auto& pair : *pairs) sorted[start[pair.first]++] = pair;
  *pairs = std::move(sorted);
}

}  // namespace

std::uint32_t HnswIndex::DrawLevel() {
  const double denom =
      std::log(std::max(2.0, static_cast<double>(params_.m) / 2.0));
  double xi = level_rng_->UniformDouble();
  if (xi < 1e-12) xi = 1e-12;
  return static_cast<std::uint32_t>(-std::log(xi) / denom);
}

std::vector<std::vector<VectorId>> HnswIndex::FindNeighbors(
    DistanceComputer& dc, core::VisitedTable* visited, VectorId v) const {
  const core::Dataset& data = *data_;
  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  const std::uint32_t top = std::min(level_[v], entry_level_);

  VectorId current =
      layers_.Descend(dc, data.Row(v), entry_, entry_level_, top);
  std::vector<std::vector<VectorId>> links(top + 1);
  for (std::uint32_t l = top + 1; l-- > 0;) {
    prune.max_degree = l == 0 ? params_.m * 2 : params_.m;  // maxM0.
    const std::vector<VectorId> seeds{current};
    const std::vector<Neighbor> candidates =
        l == 0 ? core::BeamSearch(base_, dc, data.Row(v), seeds,
                                  params_.ef_construction,
                                  params_.ef_construction, visited)
               : core::BeamSearch(layers_.Layer(l), dc, data.Row(v), seeds,
                                  params_.ef_construction,
                                  params_.ef_construction, visited);
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, prune);
    // The forward list at any layer is bounded by M (heuristic selects at
    // most M); reverse lists may grow to the layer cap before re-pruning.
    const std::size_t degree = std::min(kept.size(), params_.m);
    for (std::size_t i = 0; i < degree; ++i) links[l].push_back(kept[i].id);
    if (!candidates.empty()) current = candidates.front().id;
  }
  return links;
}

void HnswIndex::InsertBatch(std::size_t end,
                            std::vector<BuildWorker>& workers) {
  const auto begin = static_cast<VectorId>(inserted_);
  const std::size_t size = end - begin;
  for (VectorId v = begin; v < end; ++v) {
    level_[v] = DrawLevel();
    if (level_[v] > 0) layers_.AddNode(v, level_[v]);
  }

  if (inserted_ > 0) {
    // Search: every batch node reads only the graph frozen at batch start.
    std::vector<std::vector<std::vector<VectorId>>> links(size);
    core::ParallelFor(size, workers.size(), [&](std::size_t w, std::size_t i) {
      BuildWorker& worker = workers[w];
      if (worker.visited == nullptr) {
        worker.owned = std::make_unique<core::VisitedTable>(data_->size());
        worker.visited = worker.owned.get();
      }
      links[i] = FindNeighbors(worker.dc, worker.visited,
                               static_cast<VectorId>(begin + i));
    });

    // Apply, one layer at a time. Batch nodes only link to nodes inserted
    // before the batch, so the forward lists written here and the target
    // lists updated below never overlap, and each target's list depends
    // only on its sorted sources.
    diversify::Params prune;
    prune.strategy = diversify::Strategy::kRnd;
    EdgePairs reverse;  // (target, source), sources ascending.
    std::vector<std::size_t> runs;
    for (std::size_t l = 0; l <= layers_.num_layers(); ++l) {
      reverse.clear();
      for (std::size_t i = 0; i < size; ++i) {
        if (links[i].size() <= l) continue;
        const auto v = static_cast<VectorId>(begin + i);
        std::vector<VectorId>& list = links[i][l];
        for (VectorId u : list) reverse.emplace_back(u, v);
        if (l == 0) {
          base_.SetNeighbors(v, std::move(list));
        } else {
          layers_.SetNeighbors(l, v, list.data(), list.size());
        }
      }
      // Every node's links span layers 0..top, so the first empty layer
      // ends the batch.
      if (reverse.empty()) break;
      SortByTarget(begin, &reverse);
      runs.clear();
      for (std::size_t j = 0; j < reverse.size(); ++j) {
        if (j == 0 || reverse[j].first != reverse[j - 1].first) {
          runs.push_back(j);
        }
      }
      runs.push_back(reverse.size());
      prune.max_degree = l == 0 ? params_.m * 2 : params_.m;
      core::ParallelFor(
          runs.size() - 1, workers.size(), [&](std::size_t w, std::size_t r) {
            for (std::size_t j = runs[r]; j < runs[r + 1]; ++j) {
              if (l == 0) {
                AddReverseEdge(workers[w].dc, &base_, reverse[j].first,
                               reverse[j].second, prune);
              } else {
                diversify::AddReverseEdge(workers[w].dc, &layers_, l,
                                          reverse[j].first,
                                          reverse[j].second, prune);
              }
            }
          });
    }
  }

  // The entry point moves to the first batch node, in id order, that
  // reaches the highest level above the current top.
  for (VectorId v = begin; v < end; ++v) {
    if (v == 0 || level_[v] > entry_level_) {
      entry_ = v;
      entry_level_ = level_[v];
    }
  }
  inserted_ = end;
}

std::uint64_t HnswIndex::InsertRows(std::size_t count, std::size_t max_batch,
                                    std::size_t threads) {
  GASS_CHECK(threads >= 1);
  std::vector<BuildWorker> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) workers.emplace_back(*data_);
  workers[0].visited = visited_.get();
  while (inserted_ < count) {
    const std::size_t batch =
        std::min(max_batch, std::max<std::size_t>(1, inserted_));
    InsertBatch(std::min(count, inserted_ + batch), workers);
  }
  std::uint64_t distances = 0;
  for (const BuildWorker& worker : workers) distances += worker.dc.count();
  return distances;
}

BuildStats HnswIndex::Build(const core::Dataset& data) {
  return BuildPrefix(data, data.size());
}

BuildStats HnswIndex::BuildPrefix(const core::Dataset& data,
                                  std::size_t count) {
  return BuildPrefixOn(data, count, core::DefaultThreadCount());
}

BuildStats HnswIndex::BuildPrefixOn(const core::Dataset& data,
                                    std::size_t count, std::size_t threads) {
  GASS_CHECK(!data.empty());
  GASS_CHECK(count <= data.size());
  data_ = &data;
  core::Timer timer;

  base_ = Graph(data.size());
  layers_ = core::LayerStack(data.size(), params_.m);
  level_.assign(data.size(), 0);
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  level_rng_ = std::make_unique<core::Rng>(params_.seed);
  inserted_ = 0;

  BuildStats stats;
  stats.distance_computations =
      InsertRows(count, std::max<std::size_t>(1, count / 50), threads);
  layers_.ShrinkToFit();
  stats.elapsed_seconds = timer.Seconds();
  stats.index_bytes = IndexBytes();
  stats.peak_bytes = stats.index_bytes;
  return stats;
}

BuildStats HnswIndex::Extend(std::size_t new_count) {
  GASS_CHECK_MSG(data_ != nullptr, "Extend before Build");
  GASS_CHECK(new_count <= data_->size());
  GASS_CHECK(new_count >= inserted_);
  core::Timer timer;
  BuildStats stats;
  stats.distance_computations =
      InsertRows(new_count, /*max_batch=*/1, /*threads=*/1);
  stats.elapsed_seconds = timer.Seconds();
  return stats;
}

SearchResult HnswIndex::Search(const float* query,
                               const SearchParams& params) {
  return SearchWith(query, params, visited_.get());
}

SearchResult HnswIndex::Search(const float* query, const SearchParams& params,
                               SearchContext* ctx) const {
  return SearchWith(query, params, &ctx->visited);
}

SearchResult HnswIndex::SearchWith(const float* query,
                                   const SearchParams& params,
                                   core::VisitedTable* visited) const {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  SearchResult result;
  core::Timer timer;
  DistanceComputer dc(*data_);

  // SN seed selection: descend to layer 1's best node; it and its layer-1
  // neighborhood seed the base-layer beam search.
  const VectorId node =
      layers_.Descend(dc, query, entry_, layers_.num_layers(), 0);
  std::vector<VectorId> seeds{node};
  if (layers_.num_layers() > 0) {
    std::size_t degree = 0;
    const VectorId* ids = layers_.Neighbors(1, node, &degree);
    for (std::size_t i = 0; i < degree && seeds.size() < params.num_seeds;
         ++i) {
      seeds.push_back(ids[i]);
    }
  }

  result.neighbors =
      core::BeamSearch(base_, dc, query, seeds, params.k, EffectiveBeamWidth(params),
                       visited, &result.stats, params.prune_bound,
                       params.deadline, params.tombstones);
  result.stats.distance_computations = dc.count();
  result.stats.elapsed_seconds = timer.Seconds();
  return result;
}

core::Status HnswIndex::Save(const std::string& path) const {
  return SaveIndex(*this, path);
}

core::Status HnswIndex::Load(const std::string& path,
                             const core::Dataset& data) {
  return LoadIndex(this, data, path);
}

std::uint64_t HnswIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_);
  return FingerprintBytes(enc);
}

namespace {

// The "layers" section keeps the dense format of one io::EncodeGraph per
// layer 1..top (a u64 node count, then every node's u32 degree and ids),
// so snapshots do not depend on the in-memory layout.
void EncodeLayers(const core::LayerStack& stack,
                  const std::vector<std::uint32_t>& level,
                  io::Encoder* enc) {
  const std::size_t n = stack.size();
  for (std::size_t l = 1; l <= stack.num_layers(); ++l) {
    enc->U64(n);
    for (VectorId v = 0; v < n; ++v) {
      std::size_t degree = 0;
      const VectorId* ids =
          level[v] >= l ? stack.Neighbors(l, v, &degree) : nullptr;
      enc->U32(static_cast<std::uint32_t>(degree));
      enc->Bytes(ids, degree * sizeof(VectorId));
    }
  }
}

// Inverse of EncodeLayers into `stack`, whose nodes already own blocks for
// their `level`. Beyond Graph::Validate's range and self-loop checks, it
// rejects what would otherwise reach outside a block: a list on a node
// below the layer, a list longer than the cap, and an edge to a node
// below the layer.
core::Status DecodeLayers(io::Decoder* dec,
                          const std::vector<std::uint32_t>& level,
                          std::size_t num_layers, core::LayerStack* stack) {
  const std::uint64_t n = stack->size();
  std::vector<VectorId> ids(stack->cap());
  for (std::size_t l = 1; l <= num_layers; ++l) {
    const auto fail = [&](VectorId v, const std::string& what) {
      dec->Fail("HNSW layer " + std::to_string(l) + " node " +
                std::to_string(v) + " " + what);
      return dec->status();
    };
    if (!dec->Check(dec->U64() == n, "HNSW layer " + std::to_string(l) +
                                         " node count does not match the "
                                         "dataset size")) {
      return dec->status();
    }
    for (VectorId v = 0; v < n; ++v) {
      const std::uint32_t degree = dec->U32();
      if (!dec->ok()) return dec->status();
      if (degree == 0) continue;
      if (level[v] < l) return fail(v, "has a list above its level");
      if (degree > stack->cap()) {
        return fail(v, "degree " + std::to_string(degree) +
                           " exceeds the bound " +
                           std::to_string(stack->cap()));
      }
      if (!dec->Bytes(ids.data(), degree * sizeof(VectorId))) {
        return dec->status();
      }
      for (std::uint32_t i = 0; i < degree; ++i) {
        const VectorId u = ids[i];
        if (u >= n) {
          return fail(v, "has neighbor id " + std::to_string(u) +
                             " out of range");
        }
        if (u == v) return fail(v, "has a self-loop");
        if (level[u] < l) {
          return fail(v, "links to node " + std::to_string(u) +
                             " below the layer");
        }
      }
      stack->SetNeighbors(l, v, ids.data(), degree);
    }
  }
  return dec->status();
}

}  // namespace

core::Status HnswIndex::SaveSections(io::SnapshotWriter* writer,
                                     const std::string& prefix) const {
  io::Encoder meta;
  meta.U32(entry_);
  meta.U32(entry_level_);
  meta.U64(inserted_);
  meta.U64(layers_.num_layers());
  meta.VecU32(level_);
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "meta", std::move(meta)));

  io::Encoder base;
  io::EncodeGraph(base_, &base);
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "base", std::move(base)));

  io::Encoder layers;
  EncodeLayers(layers_, level_, &layers);
  return writer->AddSection(prefix + "layers", std::move(layers));
}

core::Status HnswIndex::LoadSections(const io::SnapshotReader& reader,
                                     const std::string& prefix,
                                     const core::Dataset& data) {
  const std::uint64_t n = data.size();
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "meta", &buffer, &dec));
  const std::uint32_t entry = dec.U32();
  const std::uint32_t entry_level = dec.U32();
  const std::uint64_t inserted = dec.U64();
  const std::uint64_t num_layers = dec.U64();
  std::vector<std::uint32_t> level;
  dec.VecU32(&level, n);
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(level.size() == n, "HNSW level table size mismatch");
  dec.Check(inserted <= n, "HNSW inserted count exceeds dataset size");
  dec.Check(num_layers <= (1ULL << 20), "implausible HNSW layer count");
  dec.Check(entry < n, "HNSW entry point out of range");
  dec.Check(entry_level == num_layers,
            "HNSW entry level is not the top layer");
  if (!dec.ok()) return dec.status();
  if (!dec.Check(level[entry] == entry_level,
                 "HNSW entry point's level is not the top layer")) {
    return dec.status();
  }
  std::uint64_t memberships = 0;
  for (VectorId v = 0; v < n; ++v) {
    if (level[v] > num_layers) {
      dec.Fail("HNSW node level above layer stack");
      return dec.status();
    }
    if (v >= inserted && level[v] > 0) {
      dec.Fail("HNSW node " + std::to_string(v) +
               " has a level but is not inserted");
      return dec.status();
    }
    memberships += level[v];
  }

  Graph base;
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "base", &buffer, &dec));
  GASS_RETURN_IF_ERROR(io::DecodeGraph(&dec, n, &base));
  if (!dec.ExpectEnd()) return dec.status();

  // Every layer costs at least 8 + 4n bytes of payload, which bounds the
  // blocks allocated below by the section's size.
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "layers", &buffer, &dec));
  if (!dec.Check(num_layers <= dec.remaining() / (8 + 4 * n),
                 "HNSW layer count exceeds the layers payload") ||
      !dec.Check(memberships < core::LayerStack::kNoBlocks / (params_.m + 2),
                 "HNSW layer stack exceeds 32-bit offsets")) {
    return dec.status();
  }
  core::LayerStack layers(n, params_.m);
  for (VectorId v = 0; v < n; ++v) {
    if (level[v] > 0) layers.AddNode(v, level[v]);
  }
  layers.ShrinkToFit();
  GASS_RETURN_IF_ERROR(DecodeLayers(&dec, level, num_layers, &layers));
  if (!dec.ExpectEnd()) return dec.status();

  base_ = std::move(base);
  layers_ = std::move(layers);
  level_ = std::move(level);
  entry_ = entry;
  entry_level_ = entry_level;
  inserted_ = inserted;
  data_ = &data;
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  // Replay the level stream (one draw per inserted node) so a later
  // Extend() continues exactly where the saved build left off.
  level_rng_ = std::make_unique<core::Rng>(params_.seed);
  for (std::uint64_t i = 0; i < inserted_; ++i) level_rng_->UniformDouble();
  return core::Status::Ok();
}

std::size_t HnswIndex::IndexBytes() const {
  return base_.MemoryBytes() + level_.size() * sizeof(std::uint32_t) +
         layers_.MemoryBytes();
}

}  // namespace gass::methods
