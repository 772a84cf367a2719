// shard-poisson: a replicated sharded index (K=8 k-means shards, R=2
// replicas, nprobe 3) behind a serve::Frontend with 2 workers and a 10 ms
// deadline. The end-to-end figures come from a saturation loop; traced runs
// add open-loop Poisson arrivals and the SLO rate ladder. Route, replica
// pick, fan-out, merge and the admission queue run only here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "core/rng.h"
#include "serve/frontend.h"
#include "shard/sharded_index.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gass::methods::ServeOutcome;
using gass::shard::ShardedIndex;

constexpr std::size_t kBaseSize = 100000;
constexpr double kDeadlineSeconds = 0.010;
constexpr double kSloP99Us = 1000.0;
constexpr double kSloFailedFrac = 0.01;
constexpr double kLowRate = 2000.0;
constexpr double kHighRate = 8000.0;
constexpr double kLadderStep = 2000.0;
constexpr double kLadderTop = 20000.0;
/// Queries in flight in the saturation loop: four per worker, so the queue
/// never runs dry while the client thread waits to be woken.
constexpr std::size_t kInFlight = 8;
/// Arrivals per ladder step: three SLO windows (see WindowedQuantile).
constexpr std::size_t kLadderArrivals = 3 * kTailWindow;
/// The generator fell behind when its realised rate is below the
/// schedule's own rate by more than this share.
constexpr double kRateTolerance = 0.02;

gass::shard::ShardedIndexOptions IndexOptions(std::uint64_t seed) {
  gass::shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.partitioner.kind = gass::shard::PartitionerKind::kKMeans;
  options.partitioner.num_shards = 8;
  options.nprobe = 3;
  const std::size_t cores = std::max<unsigned>(1, std::thread::hardware_concurrency());
  options.build_threads = std::min<std::size_t>(4, cores);
  options.fanout_threads = 0;  // Fan out on the serving thread.
  options.replicas = 2;
  options.seed = seed;
  return options;
}

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<double> latency_us;  // One per arrival; failures at the deadline.
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shards_failed = 0;
  std::uint64_t failovers = 0;
  std::uint64_t queue_high_water = 0;
  std::vector<double> failed_flags;  // 1 per failed arrival, else 0.
  double lateness_p99_us = 0.0;  // Windowed (see WindowedQuantile).
  double lateness_max_us = 0.0;
  double schedule_rate = 0.0;  // The drawn schedule's own rate.
  double offered_rate = 0.0;   // The rate actually submitted.

  std::uint64_t failed() const { return shed + expired; }
  double p99() const { return WindowedQuantile(latency_us, kTailWindow, 0.99); }
  /// SLO: windowed p99 <= 1 ms and at most 1% failed (windowed median).
  /// The admission queue is bounded (64), so a growing backlog shows as
  /// either a p99 far above 1 ms or shed arrivals.
  bool MeetsSlo() const {
    return p99() <= kSloP99Us &&
           Median(WindowMeans(failed_flags)) <= kSloFailedFrac;
  }
  bool GeneratorValid() const {
    return offered_rate >= (1.0 - kRateTolerance) * schedule_rate;
  }

 private:
  static std::vector<double> WindowMeans(const std::vector<double>& values) {
    std::vector<double> means;
    for (std::size_t start = 0; start + kTailWindow <= values.size();
         start += kTailWindow) {
      double sum = 0.0;
      for (std::size_t i = start; i < start + kTailWindow; ++i) sum += values[i];
      means.push_back(sum / static_cast<double>(kTailWindow));
    }
    if (means.empty()) means.push_back(Mean(values));
    return means;
  }
};

class OpenLoop {
 public:
  OpenLoop(gass::serve::Frontend* frontend, TracedIndex* traced,
           const Inputs& in, const gass::eval::GroundTruth& truth,
           std::uint64_t seed)
      : frontend_(frontend), traced_(traced), in_(in), truth_(truth),
        seed_(seed) {}

  /// Offers `count` Poisson arrivals at `rate`. The schedule (gaps and
  /// query choice) is a pure function of (seed, rate, name).
  Phase Run(const std::string& name, double rate, std::size_t count) {
    Phase phase;
    phase.name = name;
    phase.rate = rate;
    count = std::max<std::size_t>(2, count);
    gass::core::Rng rng(seed_ ^ (0xA881AAULL * static_cast<std::uint64_t>(rate)) ^
                        std::hash<std::string>{}(name));
    std::vector<std::uint64_t> offset_ns(count);
    std::vector<std::size_t> query_of(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      t += -std::log(1.0 - rng.UniformDouble()) / rate;
      offset_ns[i] = static_cast<std::uint64_t>(t * 1e9);
      query_of[i] = static_cast<std::size_t>(rng.UniformInt(in_.queries.size()));
    }

    frontend_->metrics().Reset();
    std::vector<std::uint64_t> done_ns(count, 0);
    std::vector<std::uint64_t> due_ns(count, 0);
    std::vector<double> lateness_us(count, 0.0);
    const std::uint64_t id_base = frontend_->submitted();
    traced_->StampCompletions(&done_ns, id_base);
    std::vector<gass::serve::Frontend::Ticket> tickets;
    tickets.reserve(count);

    const std::uint64_t t0 = NowNs() + 1000000;  // 1 ms lead.
    std::uint64_t first_submit = 0;
    std::uint64_t last_submit = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t due = t0 + offset_ns[i];
      due_ns[i] = due;
      // Spin until the arrival is due: a sleeping generator thread wakes
      // up to milliseconds late on an idle virtual CPU.
      std::uint64_t now = NowNs();
      while (now < due) now = NowNs();
      gass::serve::SearchRequest request;
      request.query = in_.queries.Row(static_cast<gass::core::VectorId>(query_of[i]));
      request.dim = in_.queries.dim();
      request.params = BenchParams();
      tickets.push_back(frontend_->Submit(request));
      lateness_us[i] = static_cast<double>(now - due) * 1e-3;
      if (i == 0) first_submit = now;
      last_submit = now;
    }

    for (std::size_t i = 0; i < count; ++i) {
      const gass::serve::SearchResponse r = tickets[i].get();
      ++phase.attempted;
      phase.shards_failed += r.shards_failed;
      phase.failovers += r.replica_failovers;
      const bool failed = r.outcome == ServeOutcome::kRejected ||
                          r.outcome == ServeOutcome::kExpired ||
                          r.admission_id != id_base + i || done_ns[i] == 0;
      if (r.outcome == ServeOutcome::kRejected) ++phase.shed;
      if (r.outcome == ServeOutcome::kExpired) ++phase.expired;
      phase.failed_flags.push_back(failed ? 1.0 : 0.0);
      if (failed) {
        // A failed arrival misses every latency limit.
        phase.latency_us.push_back(kDeadlineSeconds * 1e6);
        continue;
      }
      if (r.outcome == ServeOutcome::kDegraded) ++phase.degraded;
      phase.latency_us.push_back(
          static_cast<double>(done_ns[i] - due_ns[i]) * 1e-3);
    }
    frontend_->Drain();
    traced_->StampCompletions(nullptr, 0);
    phase.lateness_p99_us = WindowedQuantile(lateness_us, kTailWindow, 0.99);
    phase.lateness_max_us = Quantile(lateness_us, 1.0);
    phase.schedule_rate = static_cast<double>(count - 1) * 1e9 /
                          static_cast<double>(offset_ns[count - 1] - offset_ns[0]);
    phase.offered_rate =
        last_submit > first_submit
            ? static_cast<double>(count - 1) * 1e9 /
                  static_cast<double>(last_submit - first_submit)
            : 0.0;
    phase.queue_high_water = frontend_->metrics().queue_depth_high_water();
    std::fprintf(stderr,
                 "perfbench: %s %.0f/s: %llu arrivals, p50 %.0f us, p99 %.0f "
                 "us, shed %llu, expired %llu, degraded %llu, lateness p50 "
                 "%.1f p99 %.1f max %.1f us\n",
                 name.c_str(), rate,
                 static_cast<unsigned long long>(phase.attempted),
                 Quantile(phase.latency_us, 0.5), phase.p99(),
                 static_cast<unsigned long long>(phase.shed),
                 static_cast<unsigned long long>(phase.expired),
                 static_cast<unsigned long long>(phase.degraded),
                 Quantile(lateness_us, 0.5), phase.lateness_p99_us,
                 phase.lateness_max_us);
    return phase;
  }

  /// Saturation: `count` queries with `outstanding` always in flight from
  /// one client thread, so the workers always find queued work and never
  /// idle. Completed queries per second are the median over blocks of
  /// kTailWindow completions. Latency is each query's search time in the
  /// sharded index (route, fan-out, merge) under that load, as in
  /// knn-closed; the queue wait is a per-layer figure.
  struct Saturation {
    double qps = 0.0;
    double cpu_us_per_query = 0.0;  // Excludes the client thread.
    double recall = 0.0;
    std::uint64_t failed = 0;  // Not served in full (each also fails a gate).
    std::vector<double> latency_us;
  };
  Saturation Saturate(std::size_t count, std::size_t outstanding,
                      Report* report) {
    Saturation out;
    const double client_cpu0 = ThreadCpuSeconds();
    const double proc_cpu0 = ProcessCpuSeconds();
    double recall_sum = 0.0;
    const std::uint64_t id_base = frontend_->submitted();
    std::deque<gass::serve::Frontend::Ticket> inflight;
    std::vector<double> block_qps;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::uint64_t failures = 0;
    std::uint64_t block_start = NowNs();
    auto submit = [&] {
      const std::size_t q = submitted++ % in_.queries.size();
      inflight.push_back(frontend_->Submit(
          in_.queries.Row(static_cast<gass::core::VectorId>(q)),
          in_.queries.dim(), BenchParams(), gass::core::Deadline()));
    };
    while (submitted < outstanding && submitted < count) submit();
    while (!inflight.empty()) {
      const gass::serve::SearchResponse r = AwaitPolling(inflight.front());
      inflight.pop_front();
      failures += r.outcome != ServeOutcome::kFull || r.shards_failed > 0 ||
                  r.replica_failovers > 0 ||
                  r.admission_id != id_base + completed;
      recall_sum +=
          RecallAtK(r.neighbors, truth_[completed % in_.queries.size()], kK);
      out.latency_us.push_back(r.stats.elapsed_seconds * 1e6);
      ++completed;
      if (completed % kTailWindow == 0) {
        const std::uint64_t now = NowNs();
        block_qps.push_back(static_cast<double>(kTailWindow) * 1e9 /
                            static_cast<double>(now - block_start));
        block_start = now;
      }
      if (submitted < count) submit();
    }
    frontend_->Drain();
    const double client_cpu = ThreadCpuSeconds() - client_cpu0;
    out.cpu_us_per_query =
        (ProcessCpuSeconds() - proc_cpu0 - client_cpu) * 1e6 /
        static_cast<double>(count);
    out.recall = recall_sum / static_cast<double>(count);
    out.failed = failures;
    report->Gate(failures == 0,
                 "shard-poisson: saturation queries all served in full");
    out.qps = Median(block_qps);
    std::fprintf(stderr,
                 "perfbench: saturation (%zu in flight): %.0f/s, p50 %.0f us, "
                 "p99 %.0f us\n",
                 outstanding, out.qps,
                 WindowedQuantile(out.latency_us, kTailWindow, 0.5),
                 WindowedQuantile(out.latency_us, kTailWindow, 0.99));
    return out;
  }

 private:
  gass::serve::Frontend* frontend_;
  TracedIndex* traced_;
  const Inputs& in_;
  const gass::eval::GroundTruth& truth_;
  std::uint64_t seed_;
};

void GatePhase(const Phase& phase, Report* report) {
  report->Gate(phase.shards_failed == 0 && phase.failovers == 0,
               "shard-poisson: no shard failures or replica failovers (" +
                   phase.name + ")");
  if (!phase.GeneratorValid()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "shard-poisson: generator fell behind at %s (offered %.0f/s "
                  "of a %.0f/s schedule)",
                  phase.name.c_str(), phase.offered_rate, phase.schedule_rate);
    report->Gate(false, buf);
  }
}

// The open-loop view, measured in traced runs only: Poisson arrivals at
// the low and high rates, the rate ladder, and a traced run of the high
// rate (the per-layer spans) and of the saturation loop (the tracing
// overhead).
void OpenLoopLayers(OpenLoop* loop, gass::serve::Frontend* frontend,
                    SpanLog* spans, double T, const OpenLoop::Saturation& sat,
                    Report* report) {
  auto arrivals = [&](double rate, double share) {
    return static_cast<std::size_t>(rate * share * T);
  };
  const Phase low = loop->Run("low", kLowRate, arrivals(kLowRate, 0.15));
  GatePhase(low, report);
  const Phase high = loop->Run("high", kHighRate, arrivals(kHighRate, 0.25));
  GatePhase(high, report);
  // The rate ladder: the highest step meeting the SLO, found from the top
  // down (the first passing step is the highest). Each step offers the same
  // number of arrivals.
  double max_rate = 0.0;
  for (double rate = kLadderTop; rate >= kLadderStep && max_rate == 0.0;
       rate -= kLadderStep) {
    const Phase step = loop->Run("ladder", rate, kLadderArrivals);
    report->Gate(step.shards_failed == 0 && step.failovers == 0,
                 "shard-poisson: no shard failures on the ladder");
    if (step.MeetsSlo() && step.GeneratorValid()) max_rate = rate;
  }
  gass::obs::TracerOptions tracing;
  tracing.sample_period = 1;
  tracing.max_traces = 8192;
  frontend->tracer().Configure(tracing);
  const Phase traced_high =
      loop->Run("high", kHighRate, arrivals(kHighRate, 0.25));
  GatePhase(traced_high, report);
  spans->Harvest("high", frontend->tracer().Completed());
  frontend->tracer().Configure(tracing);
  const OpenLoop::Saturation traced_sat =
      loop->Saturate(tracing.max_traces, kInFlight, report);
  frontend->tracer().Configure(gass::obs::TracerOptions{});

  report->Metric("obs.trace_overhead_frac",
                 sat.qps > 0 ? 1.0 - traced_sat.qps / sat.qps : 0.0, "frac");
  report->Metric("serve.max_rate_at_slo", max_rate, "1/s");
  report->Metric("serve.open_p50_us",
                 WindowedQuantile(high.latency_us, kTailWindow, 0.5), "us");
  report->Metric("serve.open_p99_us", high.p99(), "us");
  report->Metric("serve.low_load_p99_us", low.p99(), "us");
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, high.attempted));
  report->Metric("serve.shed_frac", static_cast<double>(high.shed) / attempted,
                 "frac");
  report->Metric("serve.expired_frac",
                 static_cast<double>(high.expired) / attempted, "frac");
  report->Metric("serve.degraded_frac",
                 static_cast<double>(high.degraded) / attempted, "frac");
  report->Metric("serve.queue_high_water",
                 static_cast<double>(high.queue_high_water), "count");
  report->Metric("gen.lateness_us", high.lateness_p99_us, "us");
  report->Metric("gen.offered_rate", high.offered_rate, "1/s");
  report->Metric("shard.route_us", spans->MeanUs("high", "route"), "us");
  report->Metric("shard.sub_search_us", spans->MeanUs("high", "shard_search"),
                 "us");
  report->Metric("shard.merge_us", spans->MeanUs("high", "merge"), "us");
  report->Metric("shard.coord_us",
                 spans->SelfUsPerRequest("high", "index.search"), "us");
  report->Metric("shard.fanout_tail_ratio",
                 spans->TailRatio("high", "shard_search"), "ratio");
  report->Metric("serve.overhead_us", spans->ServeOverheadUs("high"), "us");
  report->Metric("serve.queue_wait_us", spans->MeanUs("high", "queue"), "us");
}

}  // namespace

void RunShardPoisson(const Config& config, Report* report) {
  const std::size_t n = kBaseSize;
  Inputs in = MakeInputs(config.seed, n, kNumQueries, 0);
  const gass::eval::GroundTruth truth = ExactTruth(in.base, in.queries, kK);
  const gass::methods::SearchParams params = BenchParams();

  // Setup: partition + K*R shard builds, repeated with the same seed. A
  // build replaces the previous one, so two never share memory.
  std::unique_ptr<ShardedIndex> index;
  gass::methods::BuildStats build;
  std::vector<double> setup_s;
  const std::size_t reps = config.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    index.reset();
    const Clock::time_point start = Clock::now();
    index = std::make_unique<ShardedIndex>(IndexOptions(config.seed));
    const gass::methods::BuildStats stats = index->Build(in.base);
    setup_s.push_back(SecondsSince(start));
    if (rep == 0) {
      build = stats;
    } else {
      report->Gate(stats.distance_computations == build.distance_computations,
                   "shard-poisson: repeated builds count the same distances");
    }
  }
  report->Metric("setup_s", Median(setup_s), "s");

  // Reference pass: direct full-effort searches on this thread, for the
  // exact counters and the answers a reloaded index must reproduce.
  gass::core::SearchStats totals;
  std::vector<std::uint64_t> expected(kProbeQueries);
  {
    gass::methods::SearchContext ctx = index->MakeSearchContext(config.seed);
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      ctx.rng = gass::core::Rng(config.seed ^ (0x9E3779B97F4A7C15ULL * (q + 1)));
      const auto r = index->Search(
          in.queries.Row(static_cast<gass::core::VectorId>(q)), params, &ctx);
      totals += r.stats;
      if (q < kProbeQueries) expected[q] = Digest(r.neighbors);
    }
  }
  const double nq = static_cast<double>(in.queries.size());
  report->Gate(totals.shards_failed == 0 && totals.replica_failovers == 0,
               "shard-poisson: reference pass has no shard failures");

  SpanLog spans;
  TracedIndex traced(index.get(), &spans);
  gass::serve::FrontendOptions options;
  options.threads = 2;
  options.deadline_seconds = kDeadlineSeconds;
  options.seed = config.seed;
  gass::serve::Frontend frontend(traced, options);
  // Warm-up primes the session pool and the frontend's service-time p50.
  for (std::size_t q = 0; q < 1000; ++q) {
    frontend
        .Submit(in.queries.Row(static_cast<gass::core::VectorId>(q)),
                in.queries.dim(), params)
        .get();
  }
  frontend.Drain();

  OpenLoop loop(&frontend, &traced, in, truth, config.seed);
  const double T = config.seconds;

  // Capacity and latency with kInFlight queries always in flight: both
  // workers always find queued work, so idle-CPU wake-ups (milliseconds on
  // this class of VM) do not enter the bounded figures.
  const std::size_t saturation_count = static_cast<std::size_t>(1500 * T);
  const OpenLoop::Saturation sat =
      loop.Saturate(saturation_count, kInFlight, report);
  report->Ops(saturation_count, sat.failed);
  report->Metric("throughput", sat.qps, "1/s");
  report->Metric("query_p50_us",
                 WindowedQuantile(sat.latency_us, kTailWindow, 0.5), "us");
  report->Metric("query_p99_us",
                 WindowedQuantile(sat.latency_us, kTailWindow, 0.99), "us");
  report->Metric("recall_at_10", sat.recall, "frac");
  report->Metric("cpu_us_per_query", sat.cpu_us_per_query, "us");
  report->Metric("success_frac",
                 static_cast<double>(saturation_count - sat.failed) /
                     static_cast<double>(saturation_count),
                 "frac");
  report->Gate(sat.recall >= 0.85, "shard-poisson: recall@10 >= 0.85");
  if (config.trace) {
    OpenLoopLayers(&loop, &frontend, &spans, T, sat, report);
  }

  // Reopen: manifest + per-shard snapshots, loaded kReloadReps times with
  // both replicas; answers must match the built index exactly.
  const std::string path = config.work_dir + "/shard.manifest";
  gass::core::Status status = index->SaveSnapshot(path);
  report->Gate(status.ok(), "shard-poisson: snapshot saved");
  std::vector<double> reopen_s;
  for (int rep = 0; rep < kReloadReps && status.ok(); ++rep) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<ShardedIndex> fresh;
    status = gass::shard::LoadShardedIndex(path, in.base, config.seed, 2, &fresh);
    reopen_s.push_back(SecondsSince(start));
    report->Gate(status.ok(), "shard-poisson: snapshot loads");
    if (!status.ok()) break;
    fresh->SetNprobe(index->options().nprobe);
    bool same = true;
    gass::methods::SearchContext ctx = fresh->MakeSearchContext(config.seed);
    for (std::size_t q = 0; q < kProbeQueries; ++q) {
      ctx.rng = gass::core::Rng(config.seed ^ (0x9E3779B97F4A7C15ULL * (q + 1)));
      same &= Digest(fresh->Search(
                         in.queries.Row(static_cast<gass::core::VectorId>(q)),
                         params, &ctx)
                         .neighbors) == expected[q];
    }
    report->Gate(same, "shard-poisson: reloaded index answers identically");
  }
  report->Metric("io.recover_s", Median(reopen_s), "s");

  report->Counter("core.dists_per_query",
                  static_cast<double>(totals.distance_computations) / nq);
  report->Counter("core.hops_per_query", static_cast<double>(totals.hops) / nq);
  report->Counter("core.prefetches_per_query",
                  static_cast<double>(totals.prefetches) / nq);
  report->Counter("shard.probes_per_query",
                  static_cast<double>(totals.shards_probed) / nq);
  report->Counter("methods.build_dists",
                  static_cast<double>(build.distance_computations));
  report->Counter("methods.index_bytes",
                  static_cast<double>(index->IndexBytes()), "bytes");
  report->Metric("methods.build_s", build.elapsed_seconds, "s");
  report->Metric("shard.failovers",
                 static_cast<double>(totals.replica_failovers), "count");
  report->Metric("shard.partition_s", index->partition_seconds(), "s");
  const std::vector<double>& shard_s = index->shard_build_seconds();
  double sum = 0.0;
  for (double s : shard_s) sum += s;
  report->Metric("shard.build_crit_s",
                 shard_s.empty() ? 0.0
                                 : *std::max_element(shard_s.begin(), shard_s.end()),
                 "s");
  report->Metric("shard.build_sum_s", sum, "s");

  if (config.trace) {
    const double search_us = ProbeDirectSearch(*index, in.queries, params,
                                               config.seed, &spans, report);
    const gass::methods::GraphIndex& shard0 = index->shard(0);
    ProbeBeamSearch(shard0.graph(), *shard0.data(), in.queries, config.seed,
                    &spans, report);
    ReportKernel(in.base, in.queries,
                 static_cast<double>(totals.distance_computations) / nq,
                 search_us, report);
    report->Gate(spans.Requests("high") > 0, "shard-poisson: spans recorded");
    report->Gate(config.spans_path.empty() || spans.Write(config.spans_path),
                 "shard-poisson: spans written");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
