#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/beam_search.h"
#include "core/distance.h"
#include "core/rng.h"
#include "core/visited.h"
#include "methods/search_params.h"
#include "spans.h"
#include "synth/generators.h"

namespace perfbench {

using gass::core::Dataset;
using gass::core::Neighbor;
using gass::core::VectorId;

gass::methods::SearchParams BenchParams() {
  return gass::methods::MakeSearchParams(kK, 32, 48);
}

Inputs MakeInputs(std::uint64_t seed, std::size_t n, std::size_t num_queries,
                  std::size_t reserve) {
  const std::size_t total = n + num_queries + reserve;
  const Dataset all =
      gass::synth::MakeDatasetProxy("deep", total, kCollectionSeed);
  // A seeded shuffle deals the rows out: queries, then the base set in
  // insertion order, then the insert reserve.
  std::vector<VectorId> ids(total);
  for (std::size_t i = 0; i < total; ++i) ids[i] = static_cast<VectorId>(i);
  gass::core::Rng rng(seed ^ 0x51EDULL);
  for (std::size_t i = total - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.UniformInt(i + 1)]);
  }
  auto take = [&](std::size_t from, std::size_t count) {
    return all.Select(std::vector<VectorId>(
        ids.begin() + static_cast<std::ptrdiff_t>(from),
        ids.begin() + static_cast<std::ptrdiff_t>(from + count)));
  };
  Inputs inputs;
  inputs.queries = take(0, num_queries);
  inputs.base = take(num_queries, n);
  inputs.reserve = take(num_queries + n, reserve);
  return inputs;
}

gass::eval::GroundTruth ExactTruth(const Dataset& base, const Dataset& queries,
                                   std::size_t k) {
  return gass::eval::BruteForceKnn(base, queries, k, 0);
}

double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& truth, std::size_t k) {
  const std::size_t depth = std::min(k, truth.size());
  if (depth == 0) return 1.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < result.size() && i < k; ++i) {
    for (std::size_t j = 0; j < depth; ++j) {
      if (result[i].id == truth[j].id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(depth);
}

namespace {

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h;
}

}  // namespace

std::uint64_t Digest(const std::vector<Neighbor>& neighbors,
                     std::uint64_t seed) {
  std::uint64_t h = Mix(seed, neighbors.size());
  for (const Neighbor& nb : neighbors) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &nb.distance, sizeof(bits));
    h = Mix(Mix(h, nb.id), bits);
  }
  return h;
}

std::uint64_t DigestGraph(const gass::core::Graph& graph) {
  std::uint64_t h = Mix(0, graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    const auto& list = graph.Neighbors(static_cast<VectorId>(v));
    h = Mix(h, list.size());
    for (VectorId u : list) h = Mix(h, u);
  }
  return h;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double WindowedQuantile(const std::vector<double>& values, std::size_t window,
                        double q) {
  if (values.size() < 2 * window) return Quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t start = 0; start + window <= values.size(); start += window) {
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(start),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(start + window)),
        q));
  }
  return Median(per_window);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Counter(const std::string& name, double value,
                     const std::string& unit) {
  counters_[name] = value;
  Metric(name, value, unit);
}

void Report::Gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::Json(const std::string& workload) const {
  std::string out = "{\"workload\":" + JsonString(workload);
  out += ",\"correct\":" + std::string(correct() ? "true" : "false");
  out += ",\"gates\":" + std::to_string(gates_);
  out += ",\"gate_failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(failures_[i]);
  }
  out += "],\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(value.first) +
           ",\"unit\":" + JsonString(value.second) + "}";
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  out += "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  return out + "}}";
}

namespace {

double KernelNsPerDistance(const Dataset& data, const Dataset& queries) {
  constexpr std::size_t kRows = 256;
  const std::size_t rows = std::min(kRows, data.size());
  std::vector<VectorId> ids(rows);
  for (std::size_t i = 0; i < rows; ++i) ids[i] = static_cast<VectorId>(i);
  gass::core::DistanceComputer dc(data);
  std::vector<float> out(rows);
  float sink = 0.0F;
  // Five timed rounds over a cached block; the median round is reported.
  std::vector<double> ns_per_dist;
  for (int round = 0; round < 5; ++round) {
    const std::size_t reps = 200;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      const float* query = queries.Row(static_cast<VectorId>(r % queries.size()));
      dc.ToQueryBatch(query, ids.data(), rows, out.data());
      sink += out[r % rows];
    }
    const double seconds = SecondsSince(start);
    ns_per_dist.push_back(seconds * 1e9 / static_cast<double>(reps * rows));
  }
  if (sink == -1.0F) std::fprintf(stderr, " ");  // Keeps `sink` observable.
  return Median(ns_per_dist);
}

}  // namespace

void ProbeBeamSearch(const gass::core::Graph& graph, const Dataset& data,
                     const Dataset& queries, std::uint64_t seed,
                     SpanLog* spans, Report* report) {
  const gass::methods::SearchParams params = BenchParams();
  const std::size_t nq = std::min(kProbeQueries, queries.size());
  gass::core::VisitedTable visited(graph.size());
  gass::core::DistanceComputer dc(data);
  std::vector<double> us;
  gass::core::SearchStats stats;
  for (std::size_t q = 0; q < nq; ++q) {
    gass::core::Rng rng(seed ^ (0xBEA5ULL * (q + 1)));
    std::vector<VectorId> seeds(params.num_seeds);
    for (VectorId& s : seeds) {
      s = static_cast<VectorId>(rng.UniformInt(graph.size()));
    }
    const float* query = queries.Row(static_cast<VectorId>(q));
    const Clock::time_point start = Clock::now();
    const auto result = gass::core::BeamSearch(graph, dc, query, seeds,
                                               params.k, params.beam_width,
                                               &visited, &stats);
    const double seconds = SecondsSince(start);
    us.push_back(seconds * 1e6);
    if (spans != nullptr) {
      spans->AddStandalone("probe.beam", "core.beam_search",
                           static_cast<std::uint64_t>(seconds * 1e9));
    }
    if (result.empty()) report->Gate(false, "beam search returned nothing");
  }
  report->Metric("core.beam_us_per_query", Median(us), "us");
  report->Counter("core.beam_dists_per_query",
                  static_cast<double>(dc.count()) / static_cast<double>(nq));
}

double ProbeDirectSearch(const gass::methods::GraphIndex& index,
                         const Dataset& queries,
                         const gass::methods::SearchParams& params,
                         std::uint64_t seed, SpanLog* spans, Report* report) {
  const std::size_t nq = std::min(kProbeQueries, queries.size());
  gass::methods::SearchContext ctx = index.MakeSearchContext(seed);
  std::vector<double> us;
  // Two rounds: the first warms caches, the second is reported.
  for (int round = 0; round < 2; ++round) {
    us.clear();
    for (std::size_t q = 0; q < nq; ++q) {
      ctx.rng = gass::core::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (q + 1)));
      const Clock::time_point start = Clock::now();
      const auto result =
          index.Search(queries.Row(static_cast<VectorId>(q)), params, &ctx);
      const double seconds = SecondsSince(start);
      us.push_back(seconds * 1e6);
      if (round == 1 && spans != nullptr) {
        spans->AddStandalone("probe.search", "methods.search",
                             static_cast<std::uint64_t>(seconds * 1e9));
      }
      if (result.neighbors.empty()) {
        report->Gate(false, "direct search returned nothing");
      }
    }
  }
  const double p50 = Median(us);
  report->Metric("methods.search_us.p50", p50, "us");
  report->Metric("methods.search_us.p99", Quantile(us, 0.99), "us");
  return p50;
}

void ReportKernel(const Dataset& data, const Dataset& queries,
                  double dists_per_query, double search_us, Report* report) {
  const double ns = KernelNsPerDistance(data, queries);
  report->Metric("core.kernel_ns_per_dist", ns, "ns");
  report->Metric("core.kernel_share",
                 search_us > 0 ? dists_per_query * ns / (search_us * 1e3) : 0.0,
                 "frac");
}

}  // namespace perfbench
