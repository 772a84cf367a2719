// knn-closed: a closed loop of 2 executor threads over an unsharded HNSW
// index. Beam search, the visited table, the distance kernels and HNSW
// descent do nearly all the work; no shard, queue or WAL code runs.

#include <cstdio>
#include <memory>

#include "core/stats.h"
#include "methods/factory.h"
#include "serve/executor.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gass::methods::GraphIndex;
using gass::serve::BatchResult;
using gass::serve::QueryExecutor;

constexpr std::size_t kBaseSize = 100000;
constexpr std::size_t kLoadThreads = 2;
constexpr std::size_t kPassRepeat = 4;

struct PassStats {
  std::vector<double> latency_us;
  std::vector<double> pass_qps;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double cpu_seconds = 0.0;
};

// Runs passes over `requests` for `seconds` (at least one), checking every
// pass answers exactly as `expected` digests say.
void RunPasses(QueryExecutor* executor,
               const std::vector<gass::serve::SearchRequest>& requests,
               const std::vector<std::uint64_t>& expected, double seconds,
               SpanLog* spans, const std::string& phase, PassStats* out,
               Report* report) {
  const Clock::time_point start = Clock::now();
  bool identical = true;
  do {
    const double cpu0 = ProcessCpuSeconds();
    BatchResult batch = executor->SearchBatch(requests);
    out->cpu_seconds += ProcessCpuSeconds() - cpu0;
    out->pass_qps.push_back(batch.Qps());
    for (std::size_t q = 0; q < batch.results.size(); ++q) {
      const auto& r = batch.results[q];
      if (r.expired || r.neighbors.empty()) {
        ++out->failed;
        continue;
      }
      ++out->completed;
      out->latency_us.push_back(r.stats.elapsed_seconds * 1e6);
      identical &= Digest(r.neighbors) == expected[q];
    }
    if (spans != nullptr && executor->tracer().enabled()) {
      spans->Harvest(phase, executor->tracer().Completed());
      executor->tracer().Reset();
    }
  } while (SecondsSince(start) < seconds);
  const std::vector<double>& qps = out->pass_qps;
  std::fprintf(stderr,
               "perfbench: %s: %zu passes, qps min %.0f p25 %.0f p50 %.0f "
               "p75 %.0f max %.0f\n",
               phase.c_str(), qps.size(), Quantile(qps, 0.0),
               Quantile(qps, 0.25), Quantile(qps, 0.5), Quantile(qps, 0.75),
               Quantile(qps, 1.0));
  report->Gate(identical,
               "knn-closed: every pass answers the same as the first (" +
                   phase + ")");
}

}  // namespace

void RunKnnClosed(const Config& config, Report* report) {
  const std::size_t n = kBaseSize;
  Inputs in = MakeInputs(config.seed, n, kNumQueries, 0);
  const gass::eval::GroundTruth truth = ExactTruth(in.base, in.queries, kK);
  const gass::methods::SearchParams params = BenchParams();

  // Setup: the HNSW build, repeated with the same seed; every repetition
  // must reproduce the first graph and distance count exactly. A build
  // replaces the previous one, so two never share memory.
  std::unique_ptr<GraphIndex> index;
  gass::methods::BuildStats build;
  std::uint64_t graph_digest = 0;
  std::vector<double> setup_s;
  const std::size_t reps = config.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    index.reset();
    const Clock::time_point start = Clock::now();
    index = gass::methods::CreateIndex("hnsw", config.seed);
    const gass::methods::BuildStats stats = index->Build(in.base);
    setup_s.push_back(SecondsSince(start));
    const std::uint64_t digest = DigestGraph(index->graph());
    if (rep == 0) {
      build = stats;
      graph_digest = digest;
    } else {
      report->Gate(stats.distance_computations == build.distance_computations &&
                       digest == graph_digest,
                   "knn-closed: repeated builds are identical");
    }
  }
  report->Metric("setup_s", Median(setup_s), "s");

  // One pass is kPassRepeat rounds of the query set, so the per-pass start
  // and join of the executor threads (a wake-up each) stays a small share.
  const std::size_t num_queries = in.queries.size();
  std::vector<gass::serve::SearchRequest> requests(kPassRepeat * num_queries);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].query =
        in.queries.Row(static_cast<gass::core::VectorId>(i % num_queries));
    requests[i].dim = in.queries.dim();
    requests[i].params = params;
  }

  SpanLog spans;
  TracedIndex traced(index.get(), &spans);
  gass::serve::ExecutorOptions options;
  options.threads = kLoadThreads;
  options.seed = config.seed;
  QueryExecutor executor(*index, options);

  // Reference pass: exact counters, recall and the per-query digests every
  // later pass must reproduce.
  BatchResult first = executor.SearchBatch(requests);
  gass::core::SearchStats totals;
  std::vector<std::uint64_t> expected(requests.size());
  double recall = 0.0;
  for (std::size_t q = 0; q < requests.size(); ++q) {
    totals += first.results[q].stats;
    expected[q] = Digest(first.results[q].neighbors);
    recall += RecallAtK(first.results[q].neighbors, truth[q % num_queries], kK);
  }
  const double nq = static_cast<double>(requests.size());
  recall /= nq;
  const double dists_per_query =
      static_cast<double>(totals.distance_computations) / nq;
  report->Gate(recall >= 0.9, "knn-closed: recall@10 >= 0.9");

  // Low load: one executor thread.
  PassStats low;
  {
    gass::serve::ExecutorOptions one = options;
    one.threads = 1;
    QueryExecutor single(*index, one);
    RunPasses(&single, requests, expected, 0.2 * config.seconds, nullptr,
              "low", &low, report);
  }

  // Main closed loop. A traced run alternates untraced passes (plain
  // index) with traced ones (forwarding index, every query sampled), so
  // the tracing overhead is measured under identical conditions.
  PassStats main_pass;
  if (!config.trace) {
    RunPasses(&executor, requests, expected, 0.6 * config.seconds, nullptr,
              "closed", &main_pass, report);
  } else {
    gass::serve::ExecutorOptions traced_options = options;
    traced_options.trace.sample_period = 1;
    traced_options.trace.max_traces = requests.size();
    QueryExecutor traced_executor(traced, traced_options);
    PassStats traced_pass;
    const Clock::time_point start = Clock::now();
    do {
      RunPasses(&executor, requests, expected, 0.0, nullptr, "closed",
                &main_pass, report);
      RunPasses(&traced_executor, requests, expected, 0.0, &spans, "closed",
                &traced_pass, report);
    } while (SecondsSince(start) < 0.6 * config.seconds);
    const double untraced_qps = Median(main_pass.pass_qps);
    report->Metric("obs.trace_overhead_frac",
                   untraced_qps > 0
                       ? 1.0 - Median(traced_pass.pass_qps) / untraced_qps
                       : 0.0,
                   "frac");
  }

  const std::uint64_t attempted = main_pass.completed + main_pass.failed;
  report->Ops(attempted, main_pass.failed);
  report->Metric("throughput", Median(main_pass.pass_qps), "1/s");
  report->Metric("query_p50_us", Quantile(main_pass.latency_us, 0.5), "us");
  report->Metric("query_p99_us",
                 WindowedQuantile(main_pass.latency_us, kTailWindow, 0.99), "us");
  report->Metric("serve.low_load_p99_us",
                 WindowedQuantile(low.latency_us, kTailWindow, 0.99), "us");
  report->Metric("recall_at_10", recall, "frac");
  report->Metric("cpu_us_per_query",
                 main_pass.completed > 0
                     ? main_pass.cpu_seconds * 1e6 /
                           static_cast<double>(main_pass.completed)
                     : 0.0,
                 "us");
  report->Metric("success_frac",
                 attempted > 0 ? static_cast<double>(main_pass.completed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "frac");

  // Reopen: snapshot once, then time kReloadReps loads into fresh indexes;
  // each must answer the probe queries exactly as the built index does.
  const std::string path = config.work_dir + "/knn.gass";
  gass::core::Status status = gass::methods::SaveIndex(*index, path);
  report->Gate(status.ok(), "knn-closed: snapshot saved");
  std::vector<double> reopen_s;
  for (int rep = 0; rep < kReloadReps && status.ok(); ++rep) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<GraphIndex> fresh =
        gass::methods::CreateIndex("hnsw", config.seed);
    status = gass::methods::LoadIndex(fresh.get(), in.base, path);
    reopen_s.push_back(SecondsSince(start));
    report->Gate(status.ok(), "knn-closed: snapshot loads");
    if (!status.ok()) break;
    bool same = true;
    gass::methods::SearchContext ctx = fresh->MakeSearchContext(config.seed);
    for (std::size_t q = 0; q < kProbeQueries; ++q) {
      same &= Digest(fresh->Search(requests[q].query, params, &ctx).neighbors) ==
              expected[q];
    }
    report->Gate(same, "knn-closed: reloaded index answers identically");
  }
  report->Metric("io.recover_s", Median(reopen_s), "s");

  // Exact counters (identical across runs with the same seed and across
  // SIMD levels).
  report->Counter("core.dists_per_query", dists_per_query);
  report->Counter("core.hops_per_query", static_cast<double>(totals.hops) / nq);
  report->Counter("core.prefetches_per_query",
                  static_cast<double>(totals.prefetches) / nq);
  report->Counter("methods.build_dists",
                  static_cast<double>(build.distance_computations));
  report->Counter("methods.index_bytes",
                  static_cast<double>(index->IndexBytes()), "bytes");
  report->Metric("methods.build_s", build.elapsed_seconds, "s");

  if (config.trace) {
    const double search_us =
        ProbeDirectSearch(*index, in.queries, params, config.seed, &spans,
                          report);
    ProbeBeamSearch(index->graph(), in.base, in.queries, config.seed, &spans,
                    report);
    ReportKernel(in.base, in.queries, dists_per_query, search_us, report);
    report->Metric("serve.overhead_us", spans.ServeOverheadUs("closed"), "us");
    report->Gate(spans.Requests("closed") > 0, "knn-closed: spans recorded");
    report->Gate(config.spans_path.empty() || spans.Write(config.spans_path),
                 "knn-closed: spans written");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
