// live-rw: a serve::LiveHnsw behind a serve::Updater (WAL fsync every 64
// records) and an updater-mode serve::Frontend with 2 workers. A
// search-only phase, then one closed-loop writer (9 inserts per delete)
// writing straight through the Updater, then the same writer through the
// frontend beside one closed-loop search client, then crash recovery with
// Updater::Open into a Shell() index. Only here do the WAL, the updater's
// exclusive apply lock and replay run.

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <shared_mutex>
#include <thread>

#include "core/rng.h"
#include "io/fs.h"
#include "serve/frontend.h"
#include "serve/live_hnsw.h"
#include "serve/updater.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gass::core::VectorId;
using gass::methods::ServeOutcome;
using gass::serve::Frontend;
using gass::serve::LiveHnsw;
using gass::serve::Updater;

constexpr std::size_t kBaseSize = 50000;
constexpr std::size_t kReserve = 10000;
/// Updates per throughput block (the median block rate is reported).
constexpr std::size_t kUpdateBlock = 250;
constexpr std::size_t kDeleteEvery = 10;  // 9 inserts per delete.
/// Beam of the durability checks' self-retrieval searches.
constexpr std::size_t kVerifyBeam = 512;

gass::serve::LiveHnswOptions LiveOptions(std::uint64_t seed) {
  gass::serve::LiveHnswOptions options;
  options.hnsw.seed = seed;
  options.reserve = kReserve;
  return options;
}

gass::serve::UpdaterOptions UpdaterOptionsFor(const std::string& dir) {
  gass::serve::UpdaterOptions options;
  options.directory = dir;
  options.wal.policy = gass::io::WalFsyncPolicy::kEveryN;
  options.wal.sync_every_n = 64;
  return options;
}

struct SearchLoad {
  /// Submission to search completion (queue and lock waits included).
  std::vector<double> latency_us;
  /// The index search alone (SearchStats::elapsed_seconds).
  std::vector<double> search_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Process CPU time of the phase minus the client thread's own.
  double serve_cpu_seconds = 0.0;
};

/// Searches in flight in the search-only phase: twice the workers, so a
/// worker always finds queued work and no CPU idles between requests
/// (idle-CPU wake-ups take milliseconds on this class of VM and would
/// dominate every tail).
constexpr std::size_t kSearchesInFlight = 4;
/// Updates written straight through the Updater (the throughput phase) and
/// through the frontend beside one closed-loop search (the interference
/// phase). Fixed counts, so replay work is exact.
constexpr std::size_t kDirectUpdates = 1500;
constexpr std::size_t kStormUpdates = 1000;
/// Completion stamps kept per phase (admission ids past it fall back to
/// the time the client sees the answer).
constexpr std::size_t kMaxStamps = std::size_t{1} << 18;

// A forwarding LiveIndex whose searchable face is a TracedIndex over the
// live HNSW: the updater-mode frontend then stamps each search's
// completion and, in traced runs, records its `index.search` span. Every
// other call goes to the LiveHnsw unchanged, so checkpoints and WALs are
// exactly the LiveHnsw's.
class TracedLive : public gass::serve::LiveIndex {
 public:
  TracedLive(LiveHnsw* inner, SpanLog* spans)
      : inner_(inner), traced_(inner->MutableSearchIndex(), spans) {}

  TracedIndex& traced() { return traced_; }

  const gass::methods::GraphIndex& SearchIndex() const override {
    return traced_;
  }
  gass::methods::GraphIndex* MutableSearchIndex() override {
    return inner_->MutableSearchIndex();
  }
  std::string MethodName() const override { return inner_->MethodName(); }
  std::uint64_t ParamsFingerprint() const override {
    return inner_->ParamsFingerprint();
  }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t id_capacity() const override { return inner_->id_capacity(); }
  std::size_t next_id() const override { return inner_->next_id(); }
  std::uint32_t num_streams() const override { return inner_->num_streams(); }
  std::uint32_t RouteInsert(const float* vec) const override {
    return inner_->RouteInsert(vec);
  }
  std::uint32_t RouteDelete(VectorId id) const override {
    return inner_->RouteDelete(id);
  }
  bool CanInsert(std::uint32_t stream) const override {
    return inner_->CanInsert(stream);
  }
  bool Exists(VectorId id) const override { return inner_->Exists(id); }
  gass::core::Status ApplyInsert(std::uint32_t stream, VectorId id,
                                 const float* vec) override {
    return inner_->ApplyInsert(stream, id, vec);
  }
  gass::core::Status SaveSections(
      gass::io::SnapshotWriter* writer) const override {
    return inner_->SaveSections(writer);
  }
  gass::core::Status LoadSections(
      const gass::io::SnapshotReader& reader) override {
    return inner_->LoadSections(reader);
  }

 private:
  LiveHnsw* inner_;
  TracedIndex traced_;
};

// The closed-loop writer: one update at a time, 9 inserts per delete, its
// sequence a pure function of the seed (inserts take the reserve rows in
// order; deletes pick uniformly among live ids). Run writes `count`
// updates straight through the Updater or, given a frontend, through it.
class Writer {
 public:
  Writer(const Inputs& in, std::uint64_t seed)
      : in_(in), rng_(seed ^ 0x57041ULL), live_ids_(in.base.size()) {
    for (std::size_t i = 0; i < live_ids_.size(); ++i) {
      live_ids_[i] = static_cast<VectorId>(i);
    }
  }

  /// Latencies go to `latency_us`, and the rate of every block of
  /// kUpdateBlock updates to `block_rates`.
  void Run(std::size_t count, Updater* updater, Frontend* frontend,
           std::vector<double>* latency_us, std::vector<double>* block_rates) {
    Clock::time_point block_start = Clock::now();
    for (std::size_t u = 1; u <= count; ++u) {
      const Clock::time_point start = Clock::now();
      gass::serve::UpdateResult result;
      VectorId target = gass::core::kInvalidVectorId;
      if (issued_++ % kDeleteEvery == kDeleteEvery - 1) {
        const std::size_t pick = rng_.UniformInt(live_ids_.size());
        target = live_ids_[pick];
        live_ids_[pick] = live_ids_.back();
        live_ids_.pop_back();
        result = frontend != nullptr ? frontend->SubmitDelete(target).get()
                                     : updater->Delete(target);
      } else {
        const float* row =
            in_.reserve.Row(static_cast<VectorId>(next_insert_++));
        result = frontend != nullptr
                     ? frontend->SubmitInsert(row, in_.reserve.dim()).get()
                     : updater->Insert(row);
      }
      latency_us->push_back(SecondsSince(start) * 1e6);
      if (!result.status.ok()) {
        ++failed;
      } else if (target != gass::core::kInvalidVectorId) {
        deleted.push_back(target);
      } else {
        inserted.push_back(result.id);
        live_ids_.push_back(result.id);
        if (result.id != in_.base.size() + inserted.size() - 1) ++failed;
      }
      if (u % kUpdateBlock == 0) {
        block_rates->push_back(static_cast<double>(kUpdateBlock) /
                               SecondsSince(block_start));
        block_start = Clock::now();
      }
    }
  }

  std::vector<VectorId> inserted;
  std::vector<VectorId> deleted;
  std::uint64_t failed = 0;

 private:
  const Inputs& in_;
  gass::core::Rng rng_;
  std::vector<VectorId> live_ids_;
  std::size_t issued_ = 0;
  std::size_t next_insert_ = 0;
};

// A closed-loop search client keeping `in_flight` queries in flight until
// `stop` says so. Queries cycle through the query set. Latency runs from
// submission to the index search's completion, stamped by `traced` (so
// the client's own wake-up delay does not count).
template <typename Stop>
void SearchClient(Frontend* frontend, TracedIndex* traced,
                  const gass::core::Dataset& queries, std::size_t in_flight,
                  Stop stop, SearchLoad* load) {
  const gass::methods::SearchParams params = BenchParams();
  const double client_cpu0 = ThreadCpuSeconds();
  const double proc_cpu0 = ProcessCpuSeconds();
  std::vector<std::uint64_t> done_ns(kMaxStamps, 0);
  const std::uint64_t id_base = frontend->submitted();
  traced->StampCompletions(&done_ns, id_base);
  std::deque<std::pair<Frontend::Ticket, std::uint64_t>> inflight;
  std::size_t q = 0;
  auto submit = [&] {
    const std::uint64_t start = NowNs();
    inflight.emplace_back(
        frontend->Submit(queries.Row(static_cast<VectorId>(q++ % queries.size())),
                         queries.dim(), params),
        start);
  };
  while (inflight.size() < in_flight) submit();
  bool stopping = false;
  while (!inflight.empty()) {
    const gass::serve::SearchResponse r = AwaitPolling(inflight.front().first);
    const std::uint64_t start = inflight.front().second;
    inflight.pop_front();
    ++load->attempted;
    const std::uint64_t slot = r.admission_id - id_base;
    const std::uint64_t done =
        r.admission_id >= id_base && slot < done_ns.size() && done_ns[slot] != 0
            ? done_ns[slot]
            : NowNs();
    if (r.outcome == ServeOutcome::kRejected ||
        r.outcome == ServeOutcome::kExpired) {
      ++load->failed;
    } else {
      load->latency_us.push_back(static_cast<double>(done - start) * 1e-3);
      load->search_us.push_back(r.stats.elapsed_seconds * 1e6);
    }
    stopping = stopping || stop();
    if (!stopping) submit();
  }
  frontend->Drain();
  traced->StampCompletions(nullptr, 0);
  load->serve_cpu_seconds = ProcessCpuSeconds() - proc_cpu0 -
                            (ThreadCpuSeconds() - client_cpu0);
}

double P99(const SearchLoad& load) {
  return WindowedQuantile(load.latency_us, kTailWindow, 0.99);
}

}  // namespace

void RunLiveRw(const Config& config, Report* report) {
  const std::size_t n = kBaseSize;
  Inputs in = MakeInputs(config.seed, n, kNumQueries, kReserve);
  const std::size_t dim = in.base.dim();
  const gass::methods::SearchParams params = BenchParams();
  const gass::serve::LiveHnswOptions live_options = LiveOptions(config.seed);
  SpanLog spans;

  // Setup: LiveHnsw build + Updater::Create (initial checkpoint and empty
  // WAL), repeated with the same seed in fresh directories. A build
  // replaces the previous one, so two never share memory.
  std::unique_ptr<LiveHnsw> live;
  std::unique_ptr<TracedLive> traced_live;
  std::unique_ptr<Updater> updater;
  gass::serve::UpdaterOptions up_options;
  std::vector<double> setup_s;
  double build_s = 0.0;
  std::uint64_t graph_digest = 0;
  const std::size_t reps = config.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    updater.reset();
    traced_live.reset();
    live.reset();
    const std::string dir = config.work_dir + "/live" + std::to_string(rep);
    gass::core::Status status = gass::io::CreateDirectory(dir);
    report->Gate(status.ok(), "live-rw: work directory created");
    if (!status.ok()) return;
    up_options = UpdaterOptionsFor(dir);
    const Clock::time_point start = Clock::now();
    live = LiveHnsw::Build(in.base, live_options);
    const double built_s = SecondsSince(start);
    traced_live = std::make_unique<TracedLive>(live.get(), &spans);
    status = Updater::Create(traced_live.get(), up_options, &updater);
    setup_s.push_back(SecondsSince(start));
    report->Gate(status.ok(), "live-rw: Updater::Create");
    if (!status.ok()) return;
    const std::uint64_t digest = DigestGraph(live->hnsw().graph());
    if (rep == 0) {
      build_s = built_s;
      graph_digest = digest;
    } else {
      report->Gate(digest == graph_digest,
                   "live-rw: repeated builds are identical");
    }
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("methods.build_s", build_s, "s");

  gass::obs::TracerOptions tracing;
  tracing.sample_period = 1;
  tracing.max_traces = 8192;
  const double T = config.seconds;

  SearchLoad idle, storm;
  Writer writer(in, config.seed);
  std::vector<double> update_us, update_rates;  // Direct writes.
  std::vector<double> storm_update_us, storm_rates;  // Beside searches.
  double checkpoint_s = 0.0;
  double wal_bytes = 0.0;
  {
    gass::serve::FrontendOptions options;
    options.threads = 2;
    options.seed = config.seed;
    Frontend frontend(*updater, options);
    TracedIndex* traced = &traced_live->traced();
    auto count_down = [](std::size_t left) {
      return [left]() mutable { return --left == 0; };
    };
    auto timed = [](double seconds) {
      const Clock::time_point start = Clock::now();
      return [start, seconds] { return SecondsSince(start) >= seconds; };
    };
    SearchLoad warm;
    SearchClient(&frontend, traced, in.queries, kSearchesInFlight,
                 count_down(500), &warm);

    // Search-only phase. A traced run runs it untraced, then traced: the
    // p50 difference is the tracing overhead.
    SearchClient(&frontend, traced, in.queries, kSearchesInFlight,
                 timed(0.2 * T), &idle);
    if (config.trace) {
      frontend.tracer().Configure(tracing);
      SearchLoad traced_idle;
      SearchClient(&frontend, traced, in.queries, kSearchesInFlight,
                   timed(0.2 * T), &traced_idle);
      spans.Harvest("idle", frontend.tracer().Completed());
      frontend.tracer().Configure(tracing);
      const double base_p50 = Quantile(idle.latency_us, 0.5);
      report->Metric(
          "obs.trace_overhead_frac",
          base_p50 > 0 ? Quantile(traced_idle.latency_us, 0.5) / base_p50 - 1.0
                       : 0.0,
          "frac");
    }

    const Clock::time_point ckpt_start = Clock::now();
    const gass::core::Status ckpt = updater->Checkpoint();
    checkpoint_s = SecondsSince(ckpt_start);
    report->Gate(ckpt.ok(), "live-rw: checkpoint");

    // Throughput phase: the writer alone, straight through the Updater.
    writer.Run(kDirectUpdates, updater.get(), nullptr, &update_us,
               &update_rates);
    // Interference phase: the writer through the frontend, on its own
    // thread, beside one closed-loop search.
    std::atomic<bool> writer_done{false};
    std::thread writer_thread([&] {
      writer.Run(kStormUpdates, nullptr, &frontend, &storm_update_us,
                 &storm_rates);
      writer_done.store(true, std::memory_order_release);
    });
    SearchClient(&frontend, traced, in.queries, 1,
                 [&] { return writer_done.load(std::memory_order_acquire); },
                 &storm);
    writer_thread.join();
    frontend.Drain();
    if (config.trace) {
      spans.Harvest("storm", frontend.tracer().Completed());
      frontend.tracer().Configure(gass::obs::TracerOptions{});
    }
    wal_bytes = static_cast<double>(frontend.metrics().wal_bytes_written());
  }
  const std::vector<VectorId>& inserted = writer.inserted;
  const std::vector<VectorId>& deleted = writer.deleted;
  const std::uint64_t updates_failed = writer.failed;
  constexpr std::size_t kUpdates = kDirectUpdates + kStormUpdates;
  report->Gate(updates_failed == 0,
               "live-rw: every update is acknowledged under its expected id");

  // Answers before the restart: direct searches with the updater's
  // tombstones, under its search lock.
  const std::size_t nq = in.queries.size();
  std::vector<std::vector<gass::core::Neighbor>> before(nq);
  gass::core::SearchStats totals;
  {
    std::shared_lock<std::shared_mutex> lock(updater->search_mutex());
    gass::methods::SearchParams p = params;
    p.tombstones = &updater->tombstones();
    gass::methods::SearchContext ctx = updater->index().MakeSearchContext(config.seed);
    for (std::size_t q = 0; q < nq; ++q) {
      auto r = updater->index().Search(in.queries.Row(static_cast<VectorId>(q)),
                                       p, &ctx);
      totals += r.stats;
      before[q] = std::move(r.neighbors);
    }
  }

  // Exact neighbours over the final live set (base + acknowledged inserts)
  // minus tombstones.
  double recall = 0.0;
  {
    gass::core::Dataset all(n + inserted.size(), dim);
    std::copy(in.base.data(), in.base.data() + n * dim, all.mutable_data());
    std::copy(in.reserve.data(), in.reserve.data() + inserted.size() * dim,
              all.mutable_data() + n * dim);
    const gass::eval::GroundTruth wide =
        ExactTruth(all, in.queries, kK + deleted.size());
    std::vector<bool> dead(all.size(), false);
    for (VectorId id : deleted) dead[id] = true;
    for (std::size_t q = 0; q < nq; ++q) {
      std::vector<gass::core::Neighbor> truth;
      for (const auto& nb : wide[q]) {
        if (!dead[nb.id] && truth.size() < kK) truth.push_back(nb);
      }
      recall += RecallAtK(before[q], truth, kK);
    }
    recall /= static_cast<double>(nq);
  }
  report->Gate(recall >= 0.9, "live-rw: recall@10 >= 0.9");

  if (config.trace) {
    const gass::methods::GraphIndex& index = updater->index();
    const double search_us =
        ProbeDirectSearch(index, in.queries, params, config.seed, &spans, report);
    ProbeBeamSearch(index.graph(), *index.data(), in.queries, config.seed,
                    &spans, report);
    ReportKernel(in.base, in.queries,
                 static_cast<double>(totals.distance_computations) /
                     static_cast<double>(nq),
                 search_us, report);
  }
  report->Counter("methods.index_bytes",
                  static_cast<double>(live->hnsw().IndexBytes()), "bytes");

  // Restart: close everything, then recover three times from the same
  // checkpoint + WAL into fresh Shell() indexes.
  const std::uint64_t expected_sequence = updater->last_sequence();
  const std::size_t expected_next_id = live->next_id();
  updater.reset();
  traced_live.reset();
  live.reset();
  std::vector<double> recover_s;
  std::unique_ptr<LiveHnsw> shell;
  std::unique_ptr<Updater> reopened;
  std::uint64_t replayed = 0;
  for (int rep = 0; rep < 3; ++rep) {
    reopened.reset();
    shell.reset();
    const Clock::time_point start = Clock::now();
    shell = LiveHnsw::Shell(in.base, live_options);
    gass::serve::RecoveryReport recovery;
    const gass::core::Status status =
        Updater::Open(shell.get(), up_options, &reopened, &recovery);
    recover_s.push_back(SecondsSince(start));
    report->Gate(status.ok(), "live-rw: Updater::Open");
    if (!status.ok()) return;
    if (rep == 0) replayed = recovery.records_applied;
    report->Gate(recovery.records_applied == replayed &&
                     recovery.torn_tails == 0,
                 "live-rw: every recovery replays the same records");
  }
  report->Gate(shell->next_id() == expected_next_id &&
                   reopened->last_sequence() == expected_sequence,
               "live-rw: recovered id space and sequence match");

  // Durability gates on the recovered index. Self-retrieval uses a wide
  // beam (kVerifyBeam) so that it tests durability and reachability, not
  // the recall of a beam-32 search: at beam 32 a handful of inserted
  // outliers are not found even before the restart.
  {
    const gass::methods::GraphIndex& index = reopened->index();
    gass::methods::SearchParams p = params;
    p.tombstones = &reopened->tombstones();
    gass::methods::SearchParams wide = p;
    wide.beam_width = kVerifyBeam;
    gass::methods::SearchContext ctx = index.MakeSearchContext(config.seed);
    auto returns = [&](const float* vec, VectorId id) {
      for (const auto& nb : index.Search(vec, wide, &ctx).neighbors) {
        if (nb.id == id) return true;
      }
      return false;
    };
    auto vector_of = [&](VectorId id) {
      return id < n ? in.base.Row(id) : in.reserve.Row(id - static_cast<VectorId>(n));
    };
    std::vector<bool> dead(expected_next_id, false);
    for (VectorId id : deleted) dead[id] = true;
    std::size_t lost = 0;
    for (VectorId id : inserted) {
      if (!dead[id] && !returns(vector_of(id), id)) ++lost;
    }
    std::size_t resurrected = 0;
    for (VectorId id : deleted) {
      if (returns(vector_of(id), id)) ++resurrected;
    }
    std::size_t changed = 0;
    for (std::size_t q = 0; q < nq; ++q) {
      const auto r = index.Search(in.queries.Row(static_cast<VectorId>(q)), p, &ctx);
      if (Digest(r.neighbors) != Digest(before[q])) ++changed;
    }
    report->Gate(lost == 0, "live-rw: every acknowledged insert is returned "
                            "for its own vector (" + std::to_string(lost) +
                                " missing)");
    report->Gate(resurrected == 0, "live-rw: no acknowledged delete is returned");
    report->Gate(changed == 0,
                 "live-rw: the recovered index answers the query set as "
                 "before the restart (" + std::to_string(changed) + " differ)");
  }

  const std::uint64_t attempted = idle.attempted + storm.attempted + kUpdates;
  const std::uint64_t failed = idle.failed + storm.failed + updates_failed;
  report->Ops(attempted, failed);
  report->Metric("throughput", Median(update_rates), "1/s");
  report->Metric("query_p50_us",
                 WindowedQuantile(idle.search_us, kTailWindow, 0.5), "us");
  report->Metric("query_p99_us",
                 WindowedQuantile(idle.search_us, kTailWindow, 0.99), "us");
  report->Metric("serve.low_load_p99_us", P99(idle), "us");
  report->Metric("recall_at_10", recall, "frac");
  report->Metric("cpu_us_per_query",
                 idle.attempted > 0
                     ? idle.serve_cpu_seconds * 1e6 /
                           static_cast<double>(idle.attempted)
                     : 0.0,
                 "us");
  report->Metric("success_frac",
                 static_cast<double>(attempted - failed) /
                     static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                 "frac");
  report->Metric("io.recover_s", Median(recover_s), "s");

  const double dnq = static_cast<double>(nq);
  report->Counter("core.dists_per_query",
                  static_cast<double>(totals.distance_computations) / dnq);
  report->Counter("core.hops_per_query", static_cast<double>(totals.hops) / dnq);
  report->Counter("core.prefetches_per_query",
                  static_cast<double>(totals.prefetches) / dnq);
  report->Counter("io.replay_records", static_cast<double>(replayed));
  report->Metric("io.checkpoint_s", checkpoint_s, "s");
  report->Metric("io.wal_bytes_per_update",
                 wal_bytes / static_cast<double>(kUpdates), "bytes");
  report->Metric("io.direct_update_p99_us",
                 WindowedQuantile(update_us, kTailWindow, 0.99), "us");
  report->Metric("serve.update_p50_us", Quantile(storm_update_us, 0.5), "us");
  report->Metric("serve.update_p99_us",
                 WindowedQuantile(storm_update_us, kTailWindow, 0.99), "us");
  report->Metric("serve.storm_updates_per_s", Median(storm_rates), "1/s");
  report->Metric("serve.storm_query_p99_us", P99(storm), "us");
  report->Metric("serve.update_interference",
                 P99(idle) > 0 ? P99(storm) / P99(idle) : 0.0, "ratio");
  if (config.trace) {
    report->Metric("io.wal_append_us", spans.MeanUs("storm.update", "wal_append"),
                   "us");
    report->Metric("serve.apply_us", spans.MeanUs("storm.update", "apply"), "us");
    report->Metric("serve.overhead_us", spans.ServeOverheadUs("idle"), "us");
    report->Metric("serve.queue_wait_us", spans.MeanUs("storm", "queue"), "us");
    report->Gate(spans.Requests("storm") > 0 && spans.Requests("storm.update") > 0,
                 "live-rw: spans recorded");
    report->Gate(config.spans_path.empty() || spans.Write(config.spans_path),
                 "live-rw: spans written");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
