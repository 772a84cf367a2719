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

#include "core/distance.h"
#include "core/macros.h"
#include "core/stats.h"
#include "io/hash.h"
#include "obs/trace.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"
#include "methods/fingerprint.h"
#include "serve/fault_injector.h"

namespace gass::shard {

/// One sub-search attempt's outcome within the hedged fan-out.
struct HedgeAttempt {
  methods::SearchResult result;
  /// Offsets from HedgeState::timer, for the coordinator's trace spans.
  double start = 0.0;
  double duration = 0.0;
  bool failed = false;
  /// Deadline already expired when the attempt started; nothing ran.
  bool skipped = false;
  /// Replica failovers this attempt performed, and the replica that
  /// finally resolved it (for the winner's breaker report).
  std::size_t failovers = 0;
  std::uint32_t final_replica = 0;
};

/// One selected shard of a hedged fan-out: up to two attempts (primary and
/// hedged backup), resolved by whichever finishes its winner CAS first.
struct HedgeSlot {
  std::uint32_t shard = 0;
  /// Replica the routing stage chose; the backup attempt starts from the
  /// next replica in the ring so the hedge races different hardware state
  /// when R > 1.
  std::uint32_t replica = 0;
  bool probe_granted = false;
  HedgeAttempt attempts[2];
  /// Index of the attempt that resolved the slot (-1 = still outstanding).
  /// The release CAS publishes that attempt's fields to the coordinator.
  std::atomic<int> winner{-1};
  std::atomic<bool> hedged{false};
};

/// Heap-shared state of one hedged fan-out, kept alive by shared_ptr so an
/// abandoned straggler — a sub-search the query stopped waiting for at its
/// deadline — can finish harmlessly on the pool after the caller's stack
/// frame (query vector, deadline, result slots) is long gone. Everything a
/// straggler touches lives here or is an immutable/thread-safe index
/// member.
struct HedgeState {
  std::vector<float> query;          // Own copy; the caller's may vanish.
  core::Deadline deadline;           // Own copy, referenced by sub_params.
  methods::SearchParams sub_params;  // trace nulled, deadline = &deadline.
  std::uint64_t query_seed = 0;
  std::vector<HedgeSlot> slots;
  core::Timer timer;                 // Attempt-offset origin.

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t unresolved = 0;        // Guarded by mutex.
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

serve::SearchResponse ShardedIndex::Search(
    const serve::SearchRequest& request) const {
  GASS_CHECK_MSG(!shards_.empty(), "Search before Build");
  // Standalone requests have no admission counter; auto resolves to 0.
  const std::uint64_t id = request.admission_id == serve::kAutoAdmissionId
                               ? 0
                               : request.admission_id;
  // Same (seed, admission id) reseed contract as the serve tier, so a
  // request-based search is reproducible without a Frontend in front.
  core::Rng rng(options_.seed ^ (kSeedMix * (id + 1)));
  methods::SearchParams params = request.params;
  core::Deadline deadline =
      request.has_deadline ? request.deadline : core::Deadline();
  params.deadline = deadline.unlimited() ? nullptr : &deadline;
  if (request.trace != nullptr) request.trace->Begin(id);
  params.trace = request.trace;
  serve::SearchResponse response(SearchImpl(request.query, params, &rng));
  response.admission_id = id;
  response.shards_ok = response.stats.shards_probed;
  response.shards_failed = response.stats.shards_failed;
  response.shards_hedged = response.stats.shards_hedged;
  response.replica_failovers = response.stats.replica_failovers;
  response.outcome = response.expired ? methods::ServeOutcome::kExpired
                     : params.degrade_step > 0
                         ? methods::ServeOutcome::kDegraded
                         : methods::ServeOutcome::kFull;
  if (request.trace != nullptr) {
    request.trace->Finish();
    response.trace = request.trace;
  }
  return response;
}

namespace {

// Per-probe disposition after fan-out (indexes the `state` array below).
enum : std::uint8_t {
  kProbeNotRun = 0,  // Deadline expired before the probe started/resolved.
  kProbeOk = 1,      // Completed; its result merges.
  kProbeFailed = 2,  // Sub-search failed (real or injected fault).
};

}  // namespace

methods::SearchResult ShardedIndex::SearchImpl(
    const float* query, const methods::SearchParams& params,
    core::Rng* rng) const {
  core::Timer timer;
  obs::QueryTrace* trace = params.trace;
  const std::size_t k_shards = shards_.size();
  const std::size_t nprobe = EffectiveNprobe();
  const std::size_t dim = data_->dim();

  // Route span: centroid ranking + shard selection.
  obs::StageTimer route_timer(trace, obs::Stage::kRoute);

  // Route: rank every shard by centroid distance. Ties break toward the
  // lower shard id (pair comparison), keeping routing deterministic.
  std::vector<std::pair<float, std::uint32_t>> ranked(k_shards);
  for (std::size_t s = 0; s < k_shards; ++s) {
    ranked[s] = {core::L2Sq(query,
                            partitioning_.centroids.Row(
                                static_cast<core::VectorId>(s)),
                            dim),
                 static_cast<std::uint32_t>(s)};
  }
  std::sort(ranked.begin(), ranked.end());

  // One RNG draw per query, fanned into per-probe streams by selection
  // position, so parallel, caller-thread, and hedged fan-out all see
  // identical sub-search seeds (a hedged backup replays its primary's
  // stream and returns the same answers, modulo deadline truncation).
  // Drawn before shard selection — it also keys the deterministic replica
  // choice below; routing itself never consumes the RNG, so the draw
  // order does not change any R = 1 result.
  const std::uint64_t query_seed = rng->Next();

  // Walk the ranked list and select up to nprobe shards. For each shard a
  // replica is chosen by health-aware power-of-two selection (R = 1: the
  // one replica, exactly the historic path); a breaker-skip on the chosen
  // replica falls through to the shard's remaining replicas, and only a
  // shard whose every replica skips is routed around (the query
  // substitutes the next-nearest centroid instead of failing). With every
  // breaker closed this selects exactly the first nprobe ranks,
  // preserving the historic routing bit-for-bit.
  struct Selected {
    std::uint32_t shard;
    std::uint32_t replica;
    bool probe_granted;
  };
  std::vector<Selected> selected;
  selected.reserve(nprobe);
  std::size_t breaker_skips = 0;
  for (std::size_t i = 0; i < k_shards && selected.size() < nprobe; ++i) {
    const std::uint32_t s = ranked[i].second;
    const std::uint32_t start_r = static_cast<std::uint32_t>(
        PickReplica(query_seed, s, num_replicas_, *health_));
    bool routed = false;
    for (std::size_t hop = 0; hop < num_replicas_ && !routed; ++hop) {
      const std::uint32_t r =
          static_cast<std::uint32_t>((start_r + hop) % num_replicas_);
      switch (health_->RouteDecision(s, r)) {
        case ShardRoute::kSearch:
          selected.push_back({s, r, false});
          routed = true;
          break;
        case ShardRoute::kProbe:
          selected.push_back({s, r, true});
          routed = true;
          break;
        case ShardRoute::kSkip:
          break;
      }
    }
    if (!routed) ++breaker_skips;
  }
  const std::size_t n_sel = selected.size();

  {
    core::SearchStats route_stats;
    route_stats.distance_computations = k_shards;  // One per centroid.
    route_timer.SetStats(route_stats);
    route_timer.Stop();
  }

  std::vector<methods::SearchResult> sub(n_sel);
  std::vector<std::uint8_t> state(n_sel, kProbeNotRun);
  // Per-probe replica-failover counts (each probe writes only its slot).
  std::vector<std::size_t> failovers(n_sel, 0);
  std::size_t hedges_launched = 0;
  std::size_t hedge_wins = 0;

  // Sub-searches never see the trace: their costs and time are reported
  // as one kShardSearch span per probe, and a trace-aware sub-index would
  // otherwise record a nested, double-counted breakdown. Tombstones are
  // keyed by GLOBAL id, so sub-searches (which speak local ids) must not
  // see them either — deletions are filtered at the merge below.
  methods::SearchParams sub_params = params;
  sub_params.trace = nullptr;
  sub_params.tombstones = nullptr;

  const bool hedged = options_.hedge_fraction > 0.0 &&
                      fanout_pool_ != nullptr && params.deadline != nullptr &&
                      !params.deadline->unlimited() && n_sel > 0;

  if (hedged) {
    // Hedged fan-out: every probe runs on the pool; the caller thread
    // coordinates. After hedge_fraction of the remaining budget elapses
    // with shards still outstanding, one backup attempt per outstanding
    // shard launches; the first attempt to finish resolves its shard. At
    // the deadline the coordinator stops waiting — stragglers keep the
    // heap-shared HedgeState alive and finish harmlessly later.
    auto hstate = std::make_shared<HedgeState>();
    hstate->query.assign(query, query + dim);
    hstate->deadline = *params.deadline;
    hstate->sub_params = sub_params;
    hstate->sub_params.deadline = &hstate->deadline;
    hstate->query_seed = query_seed;
    hstate->slots = std::vector<HedgeSlot>(n_sel);
    hstate->unresolved = n_sel;
    for (std::size_t idx = 0; idx < n_sel; ++idx) {
      hstate->slots[idx].shard = selected[idx].shard;
      hstate->slots[idx].replica = selected[idx].replica;
      hstate->slots[idx].probe_granted = selected[idx].probe_granted;
    }
    const std::uint64_t fanout_begin_ns =
        trace != nullptr ? trace->ElapsedNs() : 0;
    hstate->timer.Reset();
    for (std::size_t idx = 0; idx < n_sel; ++idx) {
      const bool accepted = fanout_pool_->Submit(
          [this, hstate, idx] { RunHedgedAttempt(hstate, idx, 0); });
      if (!accepted) RunHedgedAttempt(hstate, idx, 0);
    }

    const double remaining = hstate->deadline.RemainingSeconds();
    const double hedge_delay =
        options_.hedge_fraction * (remaining > 0.0 ? remaining : 0.0);
    std::unique_lock<std::mutex> lock(hstate->mutex);
    const bool all_done = hstate->cv.wait_for(
        lock, std::chrono::duration<double>(hedge_delay),
        [&] { return hstate->unresolved == 0; });
    if (!all_done) {
      lock.unlock();
      const std::uint64_t hedge_begin_ns =
          trace != nullptr ? trace->ElapsedNs() : 0;
      for (std::size_t idx = 0; idx < n_sel; ++idx) {
        HedgeSlot& slot = hstate->slots[idx];
        if (slot.winner.load(std::memory_order_acquire) != -1) continue;
        // A backup the deadline has already killed would only report
        // `skipped`: don't launch it, and don't count it into
        // shards_hedged — the invariant hedge_wins <= shards_hedged must
        // hold even under pathological deadlines.
        if (hstate->deadline.IsExpired()) break;
        slot.hedged.store(true, std::memory_order_relaxed);
        ++hedges_launched;
        const bool accepted = fanout_pool_->Submit(
            [this, hstate, idx] { RunHedgedAttempt(hstate, idx, 1); });
        if (!accepted) RunHedgedAttempt(hstate, idx, 1);
      }
      lock.lock();
      while (hstate->unresolved > 0) {
        const double rem = hstate->deadline.RemainingSeconds();
        if (rem <= 0.0) break;  // Abandon stragglers at the deadline.
        hstate->cv.wait_for(lock, std::chrono::duration<double>(rem),
                            [&] { return hstate->unresolved == 0; });
        if (hstate->unresolved == 0) break;
      }
      if (trace != nullptr) {
        obs::TraceSpan hedge_span;
        hedge_span.stage = obs::Stage::kHedge;
        hedge_span.start_ns = hedge_begin_ns;
        hedge_span.duration_ns = trace->ElapsedNs() - hedge_begin_ns;
        trace->AddSpan(hedge_span);
      }
    }
    lock.unlock();

    // Harvest resolved slots. An unresolved slot (winner still -1) was
    // abandoned at the deadline: it stays kProbeNotRun and its eventual
    // completion touches only HedgeState + thread-safe index members.
    for (std::size_t idx = 0; idx < n_sel; ++idx) {
      HedgeSlot& slot = hstate->slots[idx];
      const int w = slot.winner.load(std::memory_order_acquire);
      if (w < 0) continue;
      HedgeAttempt& att = slot.attempts[w];
      failovers[idx] = att.failovers;
      if (slot.hedged.load(std::memory_order_relaxed) && w == 1 &&
          !att.skipped && !att.failed) {
        ++hedge_wins;
      }
      if (att.skipped) {
        state[idx] = kProbeNotRun;
      } else if (att.failed) {
        state[idx] = kProbeFailed;
      } else {
        state[idx] = kProbeOk;
        sub[idx] = std::move(att.result);
        if (trace != nullptr) {
          obs::TraceSpan span;
          span.stage = obs::Stage::kShardSearch;
          span.shard = static_cast<std::int32_t>(slot.shard);
          span.start_ns =
              fanout_begin_ns +
              static_cast<std::uint64_t>(att.start * 1e9);
          span.duration_ns = static_cast<std::uint64_t>(att.duration * 1e9);
          span.distance_computations = sub[idx].stats.distance_computations;
          span.hops = sub[idx].stats.hops;
          span.prefetches = sub[idx].stats.prefetches;
          trace->AddSpan(span);
        }
      }
    }
  } else {
    auto run_probe = [&](std::size_t idx) {
      const std::uint32_t s = selected[idx].shard;
      // Deadline poll between probes: once the budget is gone, remaining
      // shards are skipped entirely — the merged answer stays whatever
      // the completed probes produced (all valid ids), never garbage.
      if (params.deadline != nullptr && params.deadline->IsExpired()) {
        if (selected[idx].probe_granted) {
          health_->OnProbeAbandoned(s, selected[idx].replica);
        }
        return;
      }
      obs::StageTimer probe_timer(trace, obs::Stage::kShardSearch,
                                  static_cast<std::int32_t>(s));
      ProbeOutcome outcome;
      SearchShardReplicas(s, selected[idx].replica, query, sub_params,
                          query_seed ^ (kSeedMix * (idx + 1)),
                          params.deadline, /*attempt=*/0,
                          /*report_final=*/true, trace, &outcome);
      failovers[idx] = outcome.failovers;
      if (!outcome.ok) {
        // A failing shard costs the query that shard's contribution, never
        // the query: the failure becomes per-shard status (kProbeFailed →
        // shards_failed/partial) and already fed the breakers.
        probe_timer.Cancel();
        state[idx] = kProbeFailed;
      } else {
        sub[idx] = std::move(outcome.result);
        probe_timer.SetStats(sub[idx].stats);
        state[idx] = kProbeOk;
      }
    };

    if (fanout_pool_ != nullptr && n_sel > 1) {
      // Per-query completion latch: the internal pool is shared by every
      // concurrent query, so ThreadPool::Wait() (a global barrier) would
      // serialize them; count down only this query's probes instead.
      std::mutex done_mutex;
      std::condition_variable done_cv;
      std::size_t remaining = n_sel - 1;
      auto finish_one = [&] {
        std::unique_lock<std::mutex> lock(done_mutex);
        if (--remaining == 0) done_cv.notify_one();
      };
      for (std::size_t idx = 1; idx < n_sel; ++idx) {
        const bool accepted = fanout_pool_->Submit([&, idx] {
          run_probe(idx);  // Never throws: failures become kProbeFailed.
          finish_one();
        });
        if (!accepted) {
          run_probe(idx);
          finish_one();
        }
      }
      run_probe(0);  // The caller searches the nearest shard itself.
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] { return remaining == 0; });
    } else {
      for (std::size_t idx = 0; idx < n_sel; ++idx) run_probe(idx);
    }
  }

  // Merge span: per-shard stat aggregation + global-id top-k merge.
  obs::StageTimer merge_timer(trace, obs::Stage::kMerge);

  methods::SearchResult merged;
  merged.degrade_step = params.degrade_step;
  std::size_t probed = 0;
  std::size_t failed_probes = 0;
  std::size_t deadline_missed = 0;
  bool sub_expired = false;
  for (std::size_t idx = 0; idx < n_sel; ++idx) {
    switch (state[idx]) {
      case kProbeOk:
        ++probed;
        merged.stats.distance_computations +=
            sub[idx].stats.distance_computations;
        merged.stats.hops += sub[idx].stats.hops;
        merged.stats.prefetches += sub[idx].stats.prefetches;
        if (sub[idx].stats.deadline_expiries > 0) sub_expired = true;
        break;
      case kProbeFailed:
        ++failed_probes;
        break;
      default:
        ++deadline_missed;
        break;
    }
  }
  merged.stats.distance_computations += k_shards;  // Centroid routing.
  merged.stats.shards_probed = probed;
  merged.stats.shards_failed = failed_probes + breaker_skips;
  merged.stats.shards_hedged = hedges_launched;
  merged.stats.hedge_wins = hedge_wins;
  for (const std::size_t f : failovers) merged.stats.replica_failovers += f;

  // Merge local results into global ids. A single completed probe passes
  // its list through untouched (order, ties, distances) — with K=1 this is
  // what makes the facade bit-identical to the unsharded index. Tombstones
  // (global ids; see SearchParams::tombstones) are filtered here, after
  // the local→global mapping, since sub-searches ran without them.
  const core::TombstoneSet* tombstones = params.tombstones;
  const bool filter = tombstones != nullptr && !tombstones->empty();
  if (probed == 1) {
    for (std::size_t idx = 0; idx < n_sel; ++idx) {
      if (state[idx] != kProbeOk) continue;
      const std::uint32_t s = selected[idx].shard;
      merged.neighbors = std::move(sub[idx].neighbors);
      for (core::Neighbor& nb : merged.neighbors) {
        nb.id = partitioning_.shard_ids[s][nb.id];
      }
      if (filter) {
        merged.neighbors.erase(
            std::remove_if(merged.neighbors.begin(), merged.neighbors.end(),
                           [&](const core::Neighbor& nb) {
                             return tombstones->Contains(nb.id);
                           }),
            merged.neighbors.end());
      }
      break;
    }
  } else if (probed > 1) {
    std::vector<core::Neighbor> all;
    for (std::size_t idx = 0; idx < n_sel; ++idx) {
      if (state[idx] != kProbeOk) continue;
      const std::uint32_t s = selected[idx].shard;
      for (const core::Neighbor& nb : sub[idx].neighbors) {
        const core::VectorId gid = partitioning_.shard_ids[s][nb.id];
        if (filter && tombstones->Contains(gid)) continue;
        all.emplace_back(gid, nb.distance);
      }
    }
    // Neighbor's operator< is (distance, id) — cross-shard ties resolve to
    // the lower global id, independent of probe completion order.
    std::sort(all.begin(), all.end());
    if (all.size() > params.k) all.resize(params.k);
    merged.neighbors = std::move(all);
  }

  merge_timer.Stop();

  // Two independent flags (see docs/SHARDING.md "Failure semantics"):
  // `expired` is deadline-caused — a sub-search truncated, a probe never
  // started, or a hedged straggler was abandoned at the deadline; one
  // query reports at most one expiry regardless of fan-out width.
  // `partial` is fault-caused — a sub-search failed or an open breaker
  // skipped a shard the routing wanted.
  merged.expired = sub_expired || deadline_missed > 0;
  merged.partial = failed_probes + breaker_skips > 0;
  merged.stats.deadline_expiries = merged.expired ? 1 : 0;
  merged.stats.elapsed_seconds = timer.Seconds();
  return merged;
}

void ShardedIndex::SearchShardReplicas(
    std::uint32_t s, std::uint32_t first_replica, const float* query,
    const methods::SearchParams& sub_params, std::uint64_t attempt_seed,
    const core::Deadline* deadline, std::uint32_t attempt, bool report_final,
    obs::QueryTrace* trace, ProbeOutcome* out) const {
  // Failover walk: try the routed replica; every failure feeds its breaker
  // immediately, then the next untried replica of the same shard that the
  // breakers will route retries under the SAME deadline. Replicas are
  // bit-identical and every retry reseeds from attempt_seed, so a failover
  // changes availability, never answers.
  std::vector<bool> tried(num_replicas_, false);
  std::uint32_t r = first_replica;
  for (;;) {
    tried[r] = true;
    bool failed = false;
    if (faults_ != nullptr) {
      faults_->OnShardSearch(sub_params.admission_id, s, attempt);
    }
    try {
      if (faults_ != nullptr &&
          faults_->ShouldFailShardSearch(sub_params.admission_id, s,
                                         static_cast<std::int32_t>(r))) {
        faults_->CountShardFailure();
        // Thrown (not returned) so injected failures walk the exact
        // exception-to-status path a real sub-search failure takes.
        throw std::runtime_error("injected shard fault");
      }
      std::unique_ptr<methods::SearchContext> sctx = AcquireContext();
      sctx->rng = core::Rng(attempt_seed);
      out->result = shards_[s].Search(r, query, sub_params, sctx.get());
      ReleaseContext(std::move(sctx));
    } catch (...) {
      failed = true;
    }
    probe_counts_[s].fetch_add(1, std::memory_order_relaxed);
    if (!failed) {
      out->ok = true;
      out->replica = r;
      // Hedged attempts defer the success report to the winner CAS so a
      // losing attempt cannot double-close a breaker.
      if (report_final) health_->OnResult(s, r, true);
      return;
    }
    health_->OnResult(s, r, false);
    if (deadline != nullptr && deadline->IsExpired()) {
      out->replica = r;
      return;  // No budget left to retry elsewhere.
    }
    // Next untried replica the breakers will route, in ring order from the
    // failed one. A candidate that skips is marked tried (its breaker said
    // no — asking again within the same probe would grant spurious probes).
    bool found = false;
    std::uint32_t next = 0;
    for (std::uint32_t step = 1; step < num_replicas_ && !found; ++step) {
      const std::uint32_t cand =
          static_cast<std::uint32_t>((r + step) % num_replicas_);
      if (tried[cand]) continue;
      if (health_->RouteDecision(s, cand) != ShardRoute::kSkip) {
        next = cand;
        found = true;
      } else {
        tried[cand] = true;
      }
    }
    if (!found) {
      out->replica = r;
      return;  // Every replica failed or is breaker-skipped: shard fails.
    }
    ++out->failovers;
    if (trace != nullptr) {
      obs::TraceSpan span;
      span.stage = obs::Stage::kReplicaFailover;
      span.shard = static_cast<std::int32_t>(s);
      span.start_ns = trace->ElapsedNs();
      trace->AddSpan(span);
    }
    r = next;
  }
}

void ShardedIndex::RunHedgedAttempt(const std::shared_ptr<HedgeState>& state,
                                    std::size_t idx, int attempt) const {
  HedgeSlot& slot = state->slots[idx];
  HedgeAttempt& att = slot.attempts[attempt];
  att.start = state->timer.Seconds();
  if (state->deadline.IsExpired()) {
    att.skipped = true;
  } else {
    // The backup starts from the next replica in the ring, so with R > 1 a
    // hedge races different replica state instead of piling a second
    // attempt onto the same possibly-struggling replica. Seeded by
    // selection position, independent of attempt and replica: replicas are
    // bit-identical, so whichever attempt wins returns the same answers
    // (modulo deadline truncation).
    const std::uint32_t first_r =
        attempt == 0 ? slot.replica
                     : static_cast<std::uint32_t>((slot.replica + 1) %
                                                  num_replicas_);
    ProbeOutcome outcome;
    SearchShardReplicas(slot.shard, first_r, state->query.data(),
                        state->sub_params,
                        state->query_seed ^ (kSeedMix * (idx + 1)),
                        &state->deadline, static_cast<std::uint32_t>(attempt),
                        /*report_final=*/false, /*trace=*/nullptr, &outcome);
    att.failed = !outcome.ok;
    att.failovers = outcome.failovers;
    att.final_replica = outcome.replica;
    if (outcome.ok) att.result = std::move(outcome.result);
  }
  att.duration = state->timer.Seconds() - att.start;
  // First attempt to finish resolves the shard; the release CAS publishes
  // this attempt's fields to the coordinator. The loser's outcome is
  // discarded (it computed the same answers anyway — same seed).
  int expected = -1;
  if (!slot.winner.compare_exchange_strong(expected, attempt,
                                           std::memory_order_acq_rel)) {
    return;
  }
  // Only the winner reports terminal success/abandonment: failed hops
  // already fed their breakers inside SearchShardReplicas, and a success
  // must close its breaker exactly once.
  if (att.skipped) {
    if (slot.probe_granted) {
      health_->OnProbeAbandoned(slot.shard, slot.replica);
    }
  } else if (!att.failed) {
    health_->OnResult(slot.shard, att.final_replica, true);
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  --state->unresolved;
  state->cv.notify_all();
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
