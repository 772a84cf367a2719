#include "shard/sharded_index.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/macros.h"
#include "core/stats.h"
#include "io/hash.h"
#include "obs/trace.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"
#include "methods/fingerprint.h"
#include "serve/fault_injector.h"
#include "shard/route.h"

namespace gass::shard {

namespace {

// Per-attempt disposition after fan-out.
enum : std::uint8_t {
  kProbeNotRun = 0,  // Deadline expired before the attempt started.
  kProbeOk = 1,      // Completed; its result merges.
  kProbeFailed = 2,  // Every routable replica failed (real or injected).
};

}  // namespace

/// One sub-search attempt of a probe: the primary (attempt 0) or the
/// hedged backup (attempt 1).
struct ProbeAttempt {
  methods::SearchResult result;
  std::uint8_t state = kProbeNotRun;
  /// Failed replicas retried on a peer, and the replica that finally
  /// resolved the attempt (for the winner's breaker report).
  std::size_t failovers = 0;
  std::uint32_t replica = 0;
  /// Offsets from FanoutState::timer, for the trace spans.
  double start = 0.0;
  double duration = 0.0;
};

/// One selected shard: up to two attempts, resolved by whichever wins the
/// CAS on `winner` first. The winning CAS publishes that attempt's fields.
struct ProbeSlot {
  std::uint32_t shard = 0;
  /// Replica the routing stage chose; the backup starts from the next one
  /// in the ring so a hedge races a different replica when R > 1.
  std::uint32_t replica = 0;
  bool probe_granted = false;
  ProbeAttempt attempts[2];
  std::atomic<int> winner{-1};
};

/// State of one query's fan-out. The serial path keeps it on the caller's
/// stack; the pooled path shares it with its attempts through a
/// shared_ptr, so a straggler the query stopped waiting for at its
/// deadline finishes harmlessly after the caller's frame is gone.
/// Everything an attempt touches lives here or is an immutable or
/// thread-safe index member.
struct FanoutState {
  const float* query = nullptr;  // The caller's vector, or query_copy.
  std::vector<float> query_copy;
  core::Deadline deadline;       // Referenced by sub_params when limited.
  methods::SearchParams sub_params;
  std::uint64_t query_seed = 0;
  std::vector<ProbeSlot> slots;
  core::Timer timer;             // Attempt-offset origin.

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t unresolved = 0;    // Guarded by mutex.
};

namespace {

/// Golden-ratio odd multiplier (same mix constant as core::Rng).
constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;
/// Seed for the per-shard whole-file hashes stored in the manifest.
constexpr std::uint64_t kShardFileHashSeed = 0x53484152ULL;  // "SHAR"
/// Decode-time sanity cap on shard counts (far above anything sensible).
constexpr std::uint64_t kMaxShards = 1ULL << 20;

constexpr char kManifestSection[] = "sharded.manifest";
constexpr char kAssignmentSection[] = "sharded.assignment";
constexpr char kCentroidsSection[] = "sharded.centroids";
constexpr char kMethodPrefix[] = "SHARDED:";

core::Status ReadFileBytes(const std::string& path,
                           std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return core::Status::IoError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return core::Status::IoError("cannot stat " + path);
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out->data()), size);
  }
  if (!in) return core::Status::IoError("cannot read " + path);
  return core::Status::Ok();
}

bool IsKnownMethod(const std::string& name) {
  for (const std::string& known : methods::AllMethodNames()) {
    if (known == name) return true;
  }
  return false;
}

}  // namespace

bool IsShardedSnapshotMethod(const std::string& method) {
  return method.rfind(kMethodPrefix, 0) == 0;
}

ShardedIndex::ShardedIndex(const ShardedIndexOptions& options)
    : options_(options) {
  GASS_CHECK_MSG(IsKnownMethod(options_.method),
                 "unknown sub-index method '%s'", options_.method.c_str());
  GASS_CHECK_MSG(options_.partitioner.num_shards >= 1,
                 "num_shards must be >= 1");
}

ShardedIndex::~ShardedIndex() {
  // Ordering matters: background reloads touch shards_/health_, and
  // abandoned hedge stragglers on the fan-out pool touch the context pool,
  // probe counters, and breakers — all of which are destroyed before
  // fanout_pool_ (declaration order). Drain both worlds explicitly while
  // every member is still alive.
  WaitForReloads();
  if (fanout_pool_ != nullptr) fanout_pool_->Shutdown();
}

std::string ShardedIndex::Name() const {
  std::string name = kMethodPrefix;
  for (const char c : options_.method) {
    name.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return name;
}

std::uint64_t ShardedIndex::SubIndexSeed(std::uint64_t seed, std::size_t s) {
  // s == 0 yields `seed` itself, so a K=1 sharded build constructs its one
  // sub-index exactly as the unsharded CreateIndex(method, seed) would —
  // the foundation of the bit-identity guarantee.
  return seed ^ (kSeedMix * static_cast<std::uint64_t>(s));
}

std::string ShardedIndex::ShardPath(const std::string& path, std::size_t s) {
  return path + ".shard" + std::to_string(s);
}

std::uint64_t ShardedIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.Str("sharded");
  enc.Str(options_.method);
  enc.U8(static_cast<std::uint8_t>(options_.partitioner.kind));
  enc.U64(options_.partitioner.num_shards);
  enc.U64(options_.partitioner.kmeans_sample);
  enc.U64(options_.partitioner.kmeans_iters);
  enc.F64(options_.partitioner.balance_slack);
  enc.U64(options_.seed);
  // Fold in the sub-method's own parameter fingerprint (a prototype is
  // enough: every shard uses the same construction knobs, only the seed
  // mix differs and the base seed is already encoded above).
  enc.U64(methods::CreateIndex(options_.method,
                               SubIndexSeed(options_.seed, 0))
              ->ParamsFingerprint());
  return methods::FingerprintBytes(enc);
}

methods::BuildStats ShardedIndex::Build(const core::Dataset& data) {
  GASS_CHECK_MSG(shards_.empty(), "ShardedIndex::Build called twice");
  core::Timer timer;
  partitioning_ = Partition(data, options_.partitioner, options_.seed);
  partition_seconds_ = timer.Seconds();
  const std::size_t k = partitioning_.num_shards();
  const std::size_t replicas = options_.replicas == 0 ? 1 : options_.replicas;
  shard_data_.resize(k);
  shards_.clear();
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(replicas);
  shard_build_seconds_.assign(k, 0.0);
  std::vector<double> materialize_seconds(k, 0.0);
  std::vector<double> replica_seconds(k * replicas, 0.0);
  std::vector<methods::BuildStats> sub_stats(k);
  {
    // Shard builds are independent, so they simply fan out on a pool; a
    // failing build (e.g. std::bad_alloc) surfaces here via Wait()'s
    // exception propagation instead of taking the process down. Three
    // phases: every shard's rows materialize, then replica 0 of every
    // shard builds, then replicas 1..R-1 copy replica 0's serialized state
    // (the copy-from-peer path of RebuildReplica, far cheaper than a
    // build). Every factory method round-trips its snapshot exactly, so
    // the copies are bit-identical to replica 0; a failed copy (e.g. an
    // unwritable TMPDIR) is fatal rather than silently rebuilt.
    core::ThreadPool pool(options_.build_threads);
    const auto run = [&pool](std::function<void()> task) {
      GASS_CHECK(pool.Submit(std::move(task)));
    };
    for (std::size_t s = 0; s < k; ++s) {
      run([this, &data, &materialize_seconds, s] {
        core::Timer mat_timer;
        shard_data_[s] = partitioning_.ShardView(data, s).Materialize();
        materialize_seconds[s] = mat_timer.Seconds();
      });
    }
    pool.Wait();
    for (std::size_t s = 0; s < k; ++s) {
      run([this, &sub_stats, &replica_seconds, s, replicas] {
        core::Timer replica_timer;
        std::unique_ptr<methods::GraphIndex> index = methods::CreateIndex(
            options_.method, SubIndexSeed(options_.seed, s));
        sub_stats[s] = index->Build(shard_data_[s]);
        shards_[s].Set(0, std::move(index));
        replica_seconds[s * replicas] = replica_timer.Seconds();
      });
    }
    pool.Wait();
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t r = 1; r < replicas; ++r) {
        run([this, &replica_seconds, s, r, replicas] {
          core::Timer copy_timer;
          std::unique_ptr<methods::GraphIndex> copy = methods::CreateIndex(
              options_.method, SubIndexSeed(options_.seed, s));
          const core::Status status = CopyReplica(s, 0, r, copy.get());
          GASS_CHECK_MSG(status.ok(), "copying shard %zu into replica %zu: %s",
                         s, r, status.ToString().c_str());
          shards_[s].Set(r, std::move(copy));
          replica_seconds[s * replicas + r] = copy_timer.Seconds();
        });
      }
    }
    pool.Wait();
  }
  // The shard's critical-path time: materialization, replica 0's build,
  // then its slowest copy (copies of one shard run concurrently).
  for (std::size_t s = 0; s < k; ++s) {
    double slowest = 0.0;
    for (std::size_t r = 1; r < replicas; ++r) {
      slowest = std::max(slowest, replica_seconds[s * replicas + r]);
    }
    shard_build_seconds_[s] =
        materialize_seconds[s] + replica_seconds[s * replicas] + slowest;
  }
  FinishInit(data);

  methods::BuildStats out;
  out.distance_computations = partitioning_.distance_computations;
  for (const methods::BuildStats& s : sub_stats) {
    out.distance_computations += s.distance_computations;
    // Shard builds overlap in time, so the transient peaks can coexist;
    // summing is the conservative bound.
    out.peak_bytes += s.peak_bytes;
  }
  for (const core::Dataset& d : shard_data_) out.peak_bytes += d.SizeBytes();
  out.index_bytes = IndexBytes();
  out.elapsed_seconds = timer.Seconds();
  return out;
}

void ShardedIndex::FinishInit(const core::Dataset& data) {
  WaitForReloads();
  data_ = &data;
  num_replicas_ = options_.replicas == 0 ? 1 : options_.replicas;
  max_shard_size_ = 1;
  for (const core::Dataset& d : shard_data_) {
    max_shard_size_ = std::max(max_shard_size_, d.size());
  }
  {
    std::unique_lock<std::mutex> lock(ctx_mutex_);
    ctx_pool_.clear();
  }
  fanout_pool_.reset();
  if (options_.fanout_threads > 0) {
    fanout_pool_ =
        std::make_unique<core::ThreadPool>(options_.fanout_threads);
  }
  serial_ctx_ = std::make_unique<methods::SearchContext>(max_shard_size_,
                                                         options_.seed);
  probe_counts_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    probe_counts_[s].store(0, std::memory_order_relaxed);
  }
  health_ = std::make_unique<ShardHealthTable>(shards_.size(), num_replicas_,
                                               options_.breaker);
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    reload_inflight_.assign(shards_.size(), 0);
  }
}

void ShardedIndex::SetBreakerOptions(const ShardBreakerOptions& breaker) {
  options_.breaker = breaker;
  if (!shards_.empty()) {
    health_ = std::make_unique<ShardHealthTable>(shards_.size(),
                                                 num_replicas_, breaker);
  }
}

const ShardHealthTable& ShardedIndex::health() const {
  GASS_CHECK_MSG(health_ != nullptr, "health() before Build");
  return *health_;
}

void ShardedIndex::SetFanoutThreads(std::size_t threads) {
  options_.fanout_threads = threads;
  fanout_pool_.reset();
  if (threads > 0) {
    fanout_pool_ = std::make_unique<core::ThreadPool>(threads);
  }
}

std::size_t ShardedIndex::EffectiveNprobe() const {
  GASS_CHECK_MSG(!shards_.empty(), "EffectiveNprobe before Build");
  const std::size_t k = shards_.size();
  if (options_.nprobe == 0) return k;
  return std::min(options_.nprobe, k);
}

const methods::GraphIndex& ShardedIndex::shard(std::size_t s) const {
  GASS_CHECK(s < shards_.size());
  return shards_[s].replica(0);
}

const methods::GraphIndex& ShardedIndex::replica(std::size_t s,
                                                 std::size_t r) const {
  GASS_CHECK(s < shards_.size() && r < shards_[s].size());
  return shards_[s].replica(r);
}

std::size_t ShardedIndex::shard_size(std::size_t s) const {
  GASS_CHECK(s < shard_data_.size());
  return shard_data_[s].size();
}

std::uint64_t ShardedIndex::probe_count(std::size_t s) const {
  GASS_CHECK(s < shards_.size());
  return probe_counts_[s].load(std::memory_order_relaxed);
}

const core::Graph& ShardedIndex::graph() const {
  GASS_CHECK_MSG(false, "a SHARDED index has no single base graph");
  static const core::Graph kEmpty;
  return kEmpty;
}

std::size_t ShardedIndex::IndexBytes() const {
  std::size_t total = partitioning_.centroids.SizeBytes() +
                      partitioning_.assignment.size() * sizeof(std::uint32_t);
  for (const std::vector<core::VectorId>& ids : partitioning_.shard_ids) {
    total += ids.size() * sizeof(core::VectorId);
  }
  for (const ReplicaSet& s : shards_) {
    total += s.IndexBytes();
  }
  return total;
}

std::unique_ptr<methods::SearchContext> ShardedIndex::AcquireContext() const {
  {
    std::unique_lock<std::mutex> lock(ctx_mutex_);
    if (!ctx_pool_.empty()) {
      std::unique_ptr<methods::SearchContext> ctx =
          std::move(ctx_pool_.back());
      ctx_pool_.pop_back();
      return ctx;
    }
  }
  // Sized for the largest shard: VisitedTable is epoch-stamped, so one
  // table serves any smaller shard without clearing.
  return std::make_unique<methods::SearchContext>(max_shard_size_,
                                                  /*seed=*/0);
}

void ShardedIndex::ReleaseContext(
    std::unique_ptr<methods::SearchContext> ctx) const {
  std::unique_lock<std::mutex> lock(ctx_mutex_);
  ctx_pool_.push_back(std::move(ctx));
}

methods::SearchResult ShardedIndex::Search(
    const float* query, const methods::SearchParams& params) {
  GASS_CHECK_MSG(!shards_.empty(), "Search before Build");
  return SearchImpl(query, params, &serial_ctx_->rng);
}

methods::SearchResult ShardedIndex::Search(const float* query,
                                           const methods::SearchParams& params,
                                           methods::SearchContext* ctx) const {
  GASS_CHECK_MSG(!shards_.empty(), "Search before Build");
  return SearchImpl(query, params, &ctx->rng);
}

methods::SearchResult ShardedIndex::SearchImpl(
    const float* query, const methods::SearchParams& params,
    core::Rng* rng) const {
  if (fanout_pool_ == nullptr) {
    FanoutState state;
    state.query = query;
    return FanOut(params, rng, nullptr, &state);
  }
  // Pooled attempts may outlive this call, so they read their own copy of
  // the query.
  auto state = std::make_shared<FanoutState>();
  state->query_copy.assign(query, query + data_->dim());
  state->query = state->query_copy.data();
  return FanOut(params, rng, state, state.get());
}

methods::SearchResult ShardedIndex::FanOut(
    const methods::SearchParams& params, core::Rng* rng,
    const std::shared_ptr<FanoutState>& shared, FanoutState* state) const {
  core::Timer timer;
  obs::QueryTrace* trace = params.trace;
  const std::size_t nprobe = EffectiveNprobe();

  // Route span: centroid ranking + shard selection.
  obs::StageTimer route_timer(trace, obs::Stage::kRoute);
  const std::vector<std::pair<float, std::uint32_t>> ranked =
      RankShards(state->query, partitioning_.centroids);

  // One RNG draw per query, fanned into per-probe streams by selection
  // position, so serial, pooled and hedged fan-out all see identical
  // sub-search seeds (a hedged backup replays its primary's stream and
  // returns the same answers, modulo deadline truncation). Drawn before
  // shard selection — it also keys the deterministic replica choice below;
  // routing itself never consumes the RNG, so the draw order does not
  // change any R = 1 result.
  state->query_seed = rng->Next();

  // Walk the ranked list and select up to nprobe shards. For each shard a
  // replica is chosen by health-aware power-of-two selection (R = 1: the
  // one replica); a breaker-skip on the chosen replica falls through to the
  // shard's remaining replicas, and only a shard whose every replica skips
  // is routed around (the query substitutes the next-nearest centroid
  // instead of failing). With every breaker closed this selects exactly
  // the first nprobe ranks.
  state->slots = std::vector<ProbeSlot>(nprobe);
  std::size_t n_sel = 0;
  std::size_t breaker_skips = 0;
  for (std::size_t i = 0; i < ranked.size() && n_sel < nprobe; ++i) {
    const std::uint32_t s = ranked[i].second;
    const std::uint32_t start_r = static_cast<std::uint32_t>(
        PickReplica(state->query_seed, s, num_replicas_, *health_));
    bool routed = false;
    for (std::size_t hop = 0; hop < num_replicas_ && !routed; ++hop) {
      const std::uint32_t r =
          static_cast<std::uint32_t>((start_r + hop) % num_replicas_);
      const ShardRoute route = health_->RouteDecision(s, r);
      if (route == ShardRoute::kSkip) continue;
      ProbeSlot& slot = state->slots[n_sel++];
      slot.shard = s;
      slot.replica = r;
      slot.probe_granted = route == ShardRoute::kProbe;
      routed = true;
    }
    if (!routed) ++breaker_skips;
  }
  {
    core::SearchStats route_stats;
    route_stats.distance_computations = ranked.size();  // One per centroid.
    route_timer.SetStats(route_stats);
    route_timer.Stop();
  }

  // Sub-searches never see the trace: their costs and time are reported
  // as one kShardSearch span per probe, and a trace-aware sub-index would
  // otherwise record a nested, double-counted breakdown. Tombstones are
  // keyed by GLOBAL id, so sub-searches (which speak local ids) must not
  // see them either — deletions are filtered at the merge below.
  state->sub_params = params;
  state->sub_params.trace = nullptr;
  state->sub_params.tombstones = nullptr;
  const bool limited =
      params.deadline != nullptr && !params.deadline->unlimited();
  if (limited) state->deadline = *params.deadline;
  state->sub_params.deadline = limited ? &state->deadline : nullptr;
  state->unresolved = n_sel;
  const std::uint64_t fanout_begin_ns =
      trace != nullptr ? trace->ElapsedNs() : 0;
  state->timer.Reset();

  std::size_t hedges_launched = 0;
  if (shared == nullptr) {
    // No pool: probes run in rank order on the caller thread; once the
    // deadline is gone the remaining probes are skipped.
    for (std::size_t idx = 0; idx < n_sel; ++idx) RunAttempt(*state, idx, 0);
  } else {
    // Pooled: every attempt runs on the pool while the caller coordinates.
    // After hedge_fraction of the remaining budget elapses with probes
    // still outstanding, one backup per outstanding probe launches, and
    // the first attempt to finish resolves its probe. hedge_fraction 0 (or
    // no deadline) launches no backup. At the deadline the coordinator
    // stops waiting; stragglers keep `shared` alive and finish later.
    const auto launch = [this, &shared](std::size_t idx, int attempt) {
      if (!fanout_pool_->Submit(
              [this, shared, idx, attempt] { RunAttempt(*shared, idx, attempt); })) {
        RunAttempt(*shared, idx, attempt);
      }
    };
    for (std::size_t idx = 0; idx < n_sel; ++idx) launch(idx, 0);

    const auto all_resolved = [state] { return state->unresolved == 0; };
    std::unique_lock<std::mutex> lock(state->mutex);
    std::uint64_t hedge_begin_ns = 0;
    bool hedge_fired = false;
    if (options_.hedge_fraction > 0.0 && limited) {
      const double hedge_delay =
          options_.hedge_fraction *
          std::max(0.0, state->deadline.RemainingSeconds());
      hedge_fired = !state->cv.wait_for(
          lock, std::chrono::duration<double>(hedge_delay), all_resolved);
    }
    if (hedge_fired) {
      lock.unlock();
      hedge_begin_ns = trace != nullptr ? trace->ElapsedNs() : 0;
      for (std::size_t idx = 0; idx < n_sel; ++idx) {
        ProbeSlot& slot = state->slots[idx];
        if (slot.winner.load(std::memory_order_acquire) != -1) continue;
        // A backup the deadline has already killed would only report
        // `skipped`: don't launch it, and don't count it into
        // shards_hedged — hedge_wins <= shards_hedged must hold even under
        // pathological deadlines.
        if (state->deadline.IsExpired()) break;
        ++hedges_launched;
        launch(idx, 1);
      }
      lock.lock();
    }
    if (!limited) {
      state->cv.wait(lock, all_resolved);
    } else {
      for (double rem = state->deadline.RemainingSeconds();
           !all_resolved() && rem > 0.0;
           rem = state->deadline.RemainingSeconds()) {
        state->cv.wait_for(lock, std::chrono::duration<double>(rem),
                           all_resolved);
      }
    }
    lock.unlock();
    if (hedge_fired && trace != nullptr) {
      obs::TraceSpan hedge_span;
      hedge_span.stage = obs::Stage::kHedge;
      hedge_span.start_ns = hedge_begin_ns;
      hedge_span.duration_ns = trace->ElapsedNs() - hedge_begin_ns;
      trace->AddSpan(hedge_span);
    }
  }

  // Merge span: harvest the resolved slots, aggregate their stats and
  // merge their results under global ids.
  obs::StageTimer merge_timer(trace, obs::Stage::kMerge);
  methods::SearchResult merged;
  merged.degrade_step = params.degrade_step;
  MergeTopK merge(params.k, params.tombstones);
  std::size_t failed_probes = 0;
  std::size_t deadline_missed = 0;
  bool sub_expired = false;
  for (std::size_t idx = 0; idx < n_sel; ++idx) {
    ProbeSlot& slot = state->slots[idx];
    const int w = slot.winner.load(std::memory_order_acquire);
    // An unresolved slot was abandoned at the deadline; its straggler
    // touches only the shared state and thread-safe index members.
    if (w < 0) {
      ++deadline_missed;
      continue;
    }
    ProbeAttempt& att = slot.attempts[w];
    merged.stats.replica_failovers += att.failovers;
    if (att.state == kProbeNotRun) {
      ++deadline_missed;
      continue;
    }
    if (att.state == kProbeFailed) {
      // A failing shard costs the query that shard's contribution, never
      // the query; the failure already fed the breakers.
      ++failed_probes;
      continue;
    }
    const core::SearchStats& sub = att.result.stats;
    ++merged.stats.shards_probed;
    merged.stats.distance_computations += sub.distance_computations;
    merged.stats.hops += sub.hops;
    merged.stats.prefetches += sub.prefetches;
    if (sub.deadline_expiries > 0) sub_expired = true;
    if (w == 1) ++merged.stats.hedge_wins;  // Only a launched backup wins.
    if (trace != nullptr) {
      obs::TraceSpan span;
      span.shard = static_cast<std::int32_t>(slot.shard);
      span.start_ns =
          fanout_begin_ns + static_cast<std::uint64_t>(att.start * 1e9);
      // One zero-length marker per replica failover of this probe.
      span.stage = obs::Stage::kReplicaFailover;
      for (std::size_t f = 0; f < att.failovers; ++f) trace->AddSpan(span);
      span.stage = obs::Stage::kShardSearch;
      span.duration_ns = static_cast<std::uint64_t>(att.duration * 1e9);
      span.distance_computations = sub.distance_computations;
      span.hops = sub.hops;
      span.prefetches = sub.prefetches;
      trace->AddSpan(span);
    }
    merge.Add(std::move(att.result.neighbors),
              partitioning_.shard_ids[slot.shard]);
  }
  merged.neighbors = merge.Finish();
  merged.stats.distance_computations += ranked.size();  // Centroid routing.
  merged.stats.shards_failed = failed_probes + breaker_skips;
  merged.stats.shards_hedged = hedges_launched;
  merge_timer.Stop();

  // Two independent flags (see docs/SHARDING.md "Failure semantics"):
  // `expired` is deadline-caused — a sub-search truncated, a probe never
  // started, or a straggler was abandoned at the deadline; one query
  // reports at most one expiry regardless of fan-out width. `partial` is
  // fault-caused — a sub-search failed or an open breaker skipped a shard
  // the routing wanted.
  merged.expired = sub_expired || deadline_missed > 0;
  merged.partial = merged.stats.shards_failed > 0;
  merged.stats.deadline_expiries = merged.expired ? 1 : 0;
  merged.stats.elapsed_seconds = timer.Seconds();
  return merged;
}

void ShardedIndex::RunAttempt(FanoutState& state, std::size_t idx,
                              int attempt) const {
  ProbeSlot& slot = state.slots[idx];
  ProbeAttempt& att = slot.attempts[attempt];
  const methods::SearchParams& sub_params = state.sub_params;
  const core::Deadline* deadline = sub_params.deadline;
  att.start = state.timer.Seconds();
  if (deadline == nullptr || !deadline->IsExpired()) {
    // Failover walk: the primary starts at the routed replica, the backup
    // at the next one in the ring. Every failure feeds its breaker at
    // once, then the next replica in ring order that the breakers will
    // route retries under the same deadline. Replicas are bit-identical
    // and every try reseeds from the probe's stream — keyed by selection
    // position, not attempt or replica — so a failover or a hedge changes
    // availability, never answers.
    const std::uint32_t first =
        static_cast<std::uint32_t>((slot.replica + attempt) % num_replicas_);
    std::uint32_t r = first;
    std::size_t offset = 0;
    for (;;) {
      if (faults_ != nullptr) {
        faults_->OnShardSearch(sub_params.admission_id, slot.shard,
                               static_cast<std::uint32_t>(attempt));
      }
      bool failed = false;
      try {
        if (faults_ != nullptr &&
            faults_->ShouldFailShardSearch(sub_params.admission_id,
                                           slot.shard,
                                           static_cast<std::int32_t>(r))) {
          faults_->CountShardFailure();
          // Thrown (not returned) so injected failures walk the exact
          // exception-to-status path a real sub-search failure takes.
          throw std::runtime_error("injected shard fault");
        }
        std::unique_ptr<methods::SearchContext> sctx = AcquireContext();
        sctx->rng = core::Rng(state.query_seed ^ (kSeedMix * (idx + 1)));
        att.result =
            shards_[slot.shard].Search(r, state.query, sub_params, sctx.get());
        ReleaseContext(std::move(sctx));
      } catch (...) {
        failed = true;
      }
      probe_counts_[slot.shard].fetch_add(1, std::memory_order_relaxed);
      att.replica = r;
      if (!failed) {
        att.state = kProbeOk;
        break;
      }
      att.state = kProbeFailed;
      health_->OnResult(slot.shard, r, false);
      if (deadline != nullptr && deadline->IsExpired()) break;
      // Candidates the breakers skip are passed over for this attempt
      // (asking again would grant spurious probes).
      bool found = false;
      while (!found && ++offset < num_replicas_) {
        r = static_cast<std::uint32_t>((first + offset) % num_replicas_);
        found = health_->RouteDecision(slot.shard, r) != ShardRoute::kSkip;
      }
      if (!found) break;  // Every replica failed or is skipped.
      ++att.failovers;
    }
  }
  att.duration = state.timer.Seconds() - att.start;
  // The first attempt to finish resolves the probe; the loser's outcome is
  // discarded (it computed the same answers anyway — same seed).
  int expected = -1;
  if (!slot.winner.compare_exchange_strong(expected, attempt,
                                           std::memory_order_acq_rel)) {
    return;
  }
  // Only the winner reports the terminal outcome: failed tries already fed
  // their breakers above, and a success must close its breaker (or an
  // unused probe be released) exactly once.
  if (att.state == kProbeOk) {
    health_->OnResult(slot.shard, att.replica, true);
  } else if (att.state == kProbeNotRun && slot.probe_granted) {
    health_->OnProbeAbandoned(slot.shard, slot.replica);
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  --state.unresolved;
  state.cv.notify_all();
}

core::Status ShardedIndex::ReloadShard(std::size_t s) {
  GASS_CHECK(s < shards_.size());
  if (snapshot_path_.empty()) {
    return core::Status::InvalidArgument(
        "no recovery snapshot recorded for " + Name() +
        " (LoadSnapshot records one; after Build + SaveSnapshot call "
        "SetRecoverySnapshot)");
  }
  if (faults_ != nullptr &&
      faults_->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected reload corruption for shard " +
                                    std::to_string(s));
  }
  const std::string shard_path = ShardPath(snapshot_path_, s);
  // Every replica reloads from the same shard file (replicas are
  // bit-identical, and the snapshot stores one copy per shard), each
  // swapped in under its own writer lock so searches keep flowing on the
  // replicas not currently swapping. LoadIndex re-validates the snapshot's
  // checksums, method name, params fingerprint, and dataset binding, so a
  // corrupted shard file fails here and the old (quarantined) sub-indexes
  // keep serving.
  for (std::size_t r = 0; r < num_replicas_; ++r) {
    std::unique_ptr<methods::GraphIndex> fresh =
        methods::CreateIndex(options_.method, SubIndexSeed(options_.seed, s));
    GASS_RETURN_IF_ERROR(
        methods::LoadIndex(fresh.get(), shard_data_[s], shard_path));
    shards_[s].SwapIn(r, std::move(fresh));
    // Re-enter rotation through the half-open path: the next routing
    // decision probes this replica, and only a passing probe closes the
    // breaker (generation bump included).
    health_->OnReloaded(s, r);
  }
  return core::Status::Ok();
}

core::Status ShardedIndex::RebuildReplica(std::size_t s, std::size_t r) {
  GASS_CHECK(s < shards_.size());
  GASS_CHECK(r < num_replicas_);
  if (faults_ != nullptr &&
      faults_->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected rebuild corruption for shard " +
                                    std::to_string(s));
  }
  std::unique_ptr<methods::GraphIndex> fresh =
      methods::CreateIndex(options_.method, SubIndexSeed(options_.seed, s));
  if (!snapshot_path_.empty()) {
    // Snapshot-backed: the shard file is the canonical copy.
    GASS_RETURN_IF_ERROR(methods::LoadIndex(fresh.get(), shard_data_[s],
                                            ShardPath(snapshot_path_, s)));
  } else {
    if (num_replicas_ < 2) {
      return core::Status::InvalidArgument(
          "cannot rebuild the only replica of shard " + std::to_string(s) +
          " without a recovery snapshot");
    }
    // Copy-from-healthy-peer: serialize a peer replica — preferring one
    // whose breaker is closed — and restore the quarantined slot from that
    // spill.
    std::size_t peer = num_replicas_;
    for (std::size_t cand = 0; cand < num_replicas_; ++cand) {
      if (cand == r) continue;
      if (peer == num_replicas_) peer = cand;
      if (health_->state(s, cand) == BreakerState::kClosed) {
        peer = cand;
        break;
      }
    }
    GASS_RETURN_IF_ERROR(CopyReplica(s, peer, r, fresh.get()));
  }
  shards_[s].SwapIn(r, std::move(fresh));
  // Rebuilt but not yet trusted: generation bump + forced half-open probe;
  // only a passing probe re-closes the breaker.
  health_->OnReloaded(s, r);
  return core::Status::Ok();
}

core::Status ShardedIndex::CopyReplica(std::size_t s, std::size_t peer,
                                       std::size_t r,
                                       methods::GraphIndex* fresh) const {
  // Save/LoadIndex round-trip the full checksummed snapshot format, so a
  // corrupt peer fails validation here instead of propagating its
  // corruption. The sequence number keeps spills of two indexes in one
  // process (both building, say) from colliding.
  static std::atomic<std::uint64_t> spill_sequence{0};
  const char* tmp = std::getenv("TMPDIR");
  const std::string spill =
      std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
      "/gass.replica.spill." + std::to_string(::getpid()) + "." +
      std::to_string(spill_sequence.fetch_add(1)) + "." + std::to_string(s) +
      "." + std::to_string(r);
  core::Status status = shards_[s].Save(peer, spill);
  if (status.ok()) {
    status = methods::LoadIndex(fresh, shard_data_[s], spill);
  }
  std::remove(spill.c_str());
  return status;
}

ScrubReport ShardedIndex::ScrubReplicas(bool rebuild) {
  GASS_CHECK_MSG(!shards_.empty(), "ScrubReplicas before Build");
  ScrubReport report;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t reps = shards_[s].size();
    report.replicas_checked += reps;
    if (reps < 2) continue;  // No peer group to compare against.
    std::vector<std::uint64_t> digests(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      digests[r] = shards_[s].Digest(r);
    }
    const std::uint64_t majority = MajorityDigest(digests);
    for (std::size_t r = 0; r < reps; ++r) {
      if (digests[r] == majority) continue;
      // Replicas are bit-identical by construction, so divergence from the
      // peer majority is corruption by definition: force the breaker open
      // (routing stops using the replica immediately), then restore it
      // online while the healthy replicas keep serving.
      ++report.divergent;
      health_->Quarantine(s, r);
      ++report.quarantined;
      if (rebuild) {
        if (RebuildReplica(s, r).ok()) {
          ++report.rebuilt;
        } else {
          ++report.rebuild_failures;
        }
      }
    }
  }
  return report;
}

bool ShardedIndex::StartShardReload(std::size_t s) {
  GASS_CHECK(s < shards_.size());
  std::lock_guard<std::mutex> lock(reload_mutex_);
  if (reload_inflight_[s] != 0) return false;
  reload_inflight_[s] = 1;
  reload_threads_.emplace_back([this, s] {
    // Status intentionally discarded: a failed background reload leaves
    // the breaker open, which is the observable signal.
    (void)ReloadShard(s);
    std::lock_guard<std::mutex> inner(reload_mutex_);
    reload_inflight_[s] = 0;
  });
  return true;
}

void ShardedIndex::WaitForReloads() {
  // Swap the threads out before joining: a finishing worker re-takes
  // reload_mutex_ to clear its in-flight flag, so joining under the lock
  // would deadlock.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    threads.swap(reload_threads_);
  }
  for (std::thread& t : threads) t.join();
}

core::Status ShardedIndex::SaveSnapshot(const std::string& path) const {
  if (shards_.empty() || data_ == nullptr) {
    return core::Status::InvalidArgument("cannot save an unbuilt " + Name() +
                                         " index");
  }
  const std::size_t k = shards_.size();
  // Shard files first, manifest last: a crash mid-save can orphan shard
  // files but never publish a manifest whose shards are missing, because
  // the manifest itself is written crash-safely after all of them exist.
  std::vector<std::uint64_t> shard_sizes(k);
  std::vector<std::uint64_t> shard_hashes(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::string shard_path = ShardPath(path, s);
    // Replicas are bit-identical, so the snapshot stores exactly one copy
    // per shard (replica 0) — the on-disk format is replica-oblivious and
    // unchanged from the unreplicated layout.
    GASS_RETURN_IF_ERROR(
        methods::SaveIndex(shards_[s].replica(0), shard_path));
    std::vector<std::uint8_t> bytes;
    GASS_RETURN_IF_ERROR(ReadFileBytes(shard_path, &bytes));
    shard_sizes[s] = shard_data_[s].size();
    shard_hashes[s] = io::Hash64(bytes.data(), bytes.size(),
                                 kShardFileHashSeed);
  }

  io::SnapshotWriter writer(Name(), ParamsFingerprint(), data_->size(),
                            data_->dim());
  io::Encoder manifest;
  manifest.Str(options_.method);
  manifest.U8(static_cast<std::uint8_t>(options_.partitioner.kind));
  manifest.U64(k);
  manifest.U64(options_.partitioner.kmeans_sample);
  manifest.U64(options_.partitioner.kmeans_iters);
  manifest.F64(options_.partitioner.balance_slack);
  manifest.VecU64(shard_sizes);
  manifest.VecU64(shard_hashes);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kManifestSection, std::move(manifest)));

  io::Encoder assignment;
  assignment.VecU32(partitioning_.assignment);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kAssignmentSection, std::move(assignment)));

  io::Encoder centroids;
  io::EncodeDataset(partitioning_.centroids, &centroids);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kCentroidsSection, std::move(centroids)));
  return writer.WriteTo(path);
}

core::Status ShardedIndex::LoadSnapshot(const std::string& path,
                                        const core::Dataset& data) {
  const core::Status status = LoadSnapshotImpl(path, data);
  if (!status.ok()) {
    shards_.clear();
    shard_data_.clear();
    partition_seconds_ = 0.0;
    shard_build_seconds_.clear();
    partitioning_ = Partitioning();
    data_ = nullptr;
    fanout_pool_.reset();
    serial_ctx_.reset();
    probe_counts_.reset();
    health_.reset();
    snapshot_path_.clear();
  }
  return status;
}

core::Status ShardedIndex::LoadSnapshotImpl(const std::string& path,
                                            const core::Dataset& data) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  if (reader.method() != Name()) {
    return core::Status::InvalidArgument(path + ": snapshot holds a " +
                                         reader.method() +
                                         " index, cannot load into " + Name());
  }
  if (reader.params_fingerprint() != ParamsFingerprint()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built with different " + Name() +
        " parameters (fingerprint mismatch)");
  }
  if (reader.data_n() != data.size() || reader.data_dim() != data.dim()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built over a " +
        std::to_string(reader.data_n()) + "x" +
        std::to_string(reader.data_dim()) + " dataset, got " +
        std::to_string(data.size()) + "x" + std::to_string(data.dim()));
  }

  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(kManifestSection, &buffer, &dec));
  std::string method;
  dec.Str(&method, io::kMaxMethodName);
  const std::uint8_t kind = dec.U8();
  const std::uint64_t k = dec.U64();
  const std::uint64_t kmeans_sample = dec.U64();
  const std::uint64_t kmeans_iters = dec.U64();
  const double balance_slack = dec.F64();
  std::vector<std::uint64_t> shard_sizes;
  std::vector<std::uint64_t> shard_hashes;
  dec.VecU64(&shard_sizes, kMaxShards);
  dec.VecU64(&shard_hashes, kMaxShards);
  if (!dec.ExpectEnd()) return dec.status();
  // Semantic cross-checks. Every field below is also covered by the header
  // fingerprint (already verified), so a disagreement means the manifest
  // payload was altered behind a resealed checksum — reject loudly.
  if (method != options_.method ||
      kind != static_cast<std::uint8_t>(options_.partitioner.kind) ||
      k != options_.partitioner.num_shards ||
      kmeans_sample != options_.partitioner.kmeans_sample ||
      kmeans_iters != options_.partitioner.kmeans_iters ||
      balance_slack != options_.partitioner.balance_slack) {
    return core::Status::Corruption(
        path + ": manifest partitioner state contradicts the fingerprinted "
               "construction parameters");
  }
  if (shard_sizes.size() != k || shard_hashes.size() != k) {
    return core::Status::Corruption(
        path + ": manifest shard table length does not match shard count");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t size : shard_sizes) total += size;
  if (total != data.size()) {
    return core::Status::Corruption(
        path + ": manifest shard sizes do not cover the dataset (" +
        std::to_string(total) + " of " + std::to_string(data.size()) +
        " rows)");
  }

  GASS_RETURN_IF_ERROR(reader.OpenSection(kAssignmentSection, &buffer, &dec));
  std::vector<std::uint32_t> assignment;
  dec.VecU32(&assignment, data.size());
  if (!dec.ExpectEnd()) return dec.status();
  if (assignment.size() != data.size()) {
    return core::Status::Corruption(
        path + ": assignment covers " + std::to_string(assignment.size()) +
        " rows, dataset has " + std::to_string(data.size()));
  }
  std::vector<std::vector<core::VectorId>> shard_ids(k);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= k) {
      return core::Status::Corruption(
          path + ": assignment references shard " +
          std::to_string(assignment[i]) + " of " + std::to_string(k));
    }
    shard_ids[assignment[i]].push_back(static_cast<core::VectorId>(i));
  }
  for (std::size_t s = 0; s < k; ++s) {
    if (shard_ids[s].size() != shard_sizes[s]) {
      return core::Status::Corruption(
          path + ": shard " + std::to_string(s) + " has " +
          std::to_string(shard_ids[s].size()) +
          " assigned rows but the manifest declares " +
          std::to_string(shard_sizes[s]));
    }
  }

  GASS_RETURN_IF_ERROR(reader.OpenSection(kCentroidsSection, &buffer, &dec));
  core::Dataset centroids;
  GASS_RETURN_IF_ERROR(io::DecodeDataset(&dec, &centroids));
  if (!dec.ExpectEnd()) return dec.status();
  if (centroids.size() != k || centroids.dim() != data.dim()) {
    return core::Status::Corruption(
        path + ": centroid section holds " +
        std::to_string(centroids.size()) + "x" +
        std::to_string(centroids.dim()) + ", expected " + std::to_string(k) +
        "x" + std::to_string(data.dim()));
  }
  // Centroids are a pure function of (data, assignment); recomputing and
  // comparing bitwise catches value tampering that a resealed checksum
  // would otherwise let through.
  const core::Dataset recomputed = ComputeCentroids(data, shard_ids);
  if (centroids.size() > 0 &&
      std::memcmp(centroids.data(), recomputed.data(),
                  centroids.SizeBytes()) != 0) {
    return core::Status::Corruption(
        path + ": stored centroids do not match the shard member means");
  }

  shard_data_.clear();
  shards_.clear();
  partition_seconds_ = 0.0;
  shard_build_seconds_.clear();
  shard_data_.resize(k);
  const std::size_t replicas = options_.replicas == 0 ? 1 : options_.replicas;
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(replicas);
  for (std::size_t s = 0; s < k; ++s) {
    const std::string shard_path = ShardPath(path, s);
    std::vector<std::uint8_t> bytes;
    core::Status read = ReadFileBytes(shard_path, &bytes);
    if (!read.ok()) {
      return core::Status::Corruption(path + ": shard file " + shard_path +
                                      " is missing or unreadable (" +
                                      read.message() + ")");
    }
    if (io::Hash64(bytes.data(), bytes.size(), kShardFileHashSeed) !=
        shard_hashes[s]) {
      return core::Status::Corruption(
          path + ": shard file " + shard_path +
          " does not match the hash recorded in the manifest");
    }
    shard_data_[s] = data.Select(shard_ids[s]);
    // The snapshot stores one copy per shard; every replica attaches from
    // that same pre-built file, re-validating it R times (cheap relative
    // to a rebuild, and each replica gets its own arena).
    for (std::size_t r = 0; r < replicas; ++r) {
      std::unique_ptr<methods::GraphIndex> sub = methods::CreateIndex(
          options_.method, SubIndexSeed(options_.seed, s));
      GASS_RETURN_IF_ERROR(
          methods::LoadIndex(sub.get(), shard_data_[s], shard_path));
      shards_[s].Set(r, std::move(sub));
    }
  }

  partitioning_.assignment = std::move(assignment);
  partitioning_.shard_ids = std::move(shard_ids);
  partitioning_.centroids = std::move(centroids);
  partitioning_.distance_computations = 0;
  FinishInit(data);
  // Record where the shards live so ReloadShard can recover any one of
  // them online later.
  snapshot_path_ = path;
  return core::Status::Ok();
}

core::Status LoadShardedIndex(const std::string& path,
                              const core::Dataset& data, std::uint64_t seed,
                              std::unique_ptr<ShardedIndex>* out) {
  return LoadShardedIndex(path, data, seed, 1, out);
}

core::Status LoadShardedIndex(const std::string& path,
                              const core::Dataset& data, std::uint64_t seed,
                              std::size_t replicas,
                              std::unique_ptr<ShardedIndex>* out) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  if (!IsShardedSnapshotMethod(reader.method())) {
    return core::Status::InvalidArgument(
        path + ": not a sharded snapshot (method " + reader.method() + ")");
  }
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(kManifestSection, &buffer, &dec));
  ShardedIndexOptions options;
  options.seed = seed;
  options.replicas = replicas == 0 ? 1 : replicas;
  dec.Str(&options.method, io::kMaxMethodName);
  const std::uint8_t kind = dec.U8();
  const std::uint64_t num_shards = dec.U64();
  const std::uint64_t kmeans_sample = dec.U64();
  const std::uint64_t kmeans_iters = dec.U64();
  const double balance_slack = dec.F64();
  if (!dec.ok()) return dec.status();
  if (!IsKnownMethod(options.method)) {
    return core::Status::Corruption(path + ": manifest names unknown method '" +
                                    options.method + "'");
  }
  if (kind > static_cast<std::uint8_t>(PartitionerKind::kKMeans)) {
    return core::Status::Corruption(path +
                                    ": manifest names an unknown partitioner");
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return core::Status::Corruption(path + ": manifest shard count " +
                                    std::to_string(num_shards) +
                                    " is out of range");
  }
  options.partitioner.kind = static_cast<PartitionerKind>(kind);
  options.partitioner.num_shards = static_cast<std::size_t>(num_shards);
  options.partitioner.kmeans_sample = static_cast<std::size_t>(kmeans_sample);
  options.partitioner.kmeans_iters = static_cast<std::size_t>(kmeans_iters);
  options.partitioner.balance_slack = balance_slack;

  auto index = std::make_unique<ShardedIndex>(options);
  GASS_RETURN_IF_ERROR(index->LoadSnapshot(path, data));
  *out = std::move(index);
  return core::Status::Ok();
}

}  // namespace gass::shard
