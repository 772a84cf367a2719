// Shared plumbing of the perfbench workloads: run configuration, generated
// inputs, the result report, clocks, quantiles and the layer probes that
// every workload runs (kernel, beam search, direct method search).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "eval/ground_truth.h"
#include "methods/graph_index.h"

namespace perfbench {

class SpanLog;

/// One run's settings. Sizes are fixed per workload (see README.md).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots and WAL files (created and emptied by
  /// run.py, inside the checkout).
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines).
  std::string spans_path;
};

/// Set-ups timed for setup_s in an untraced run (the median is reported);
/// a traced run sets up once.
inline constexpr std::size_t kSetupReps = 3;

/// Search knobs shared by all workloads: k=10, beam 32, 48 seeds.
gass::methods::SearchParams BenchParams();
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kNumQueries = 2000;
/// Queries used by the cheaper direct probes and reload checks.
inline constexpr std::size_t kProbeQueries = 500;
/// Snapshot loads timed for recover_s on knn-closed and shard-poisson (a
/// load takes well under a second, so the median of several is cheap).
inline constexpr int kReloadReps = 7;

/// The vector collection is one fixed instance of the deep proxy, as a real
/// dataset would be; the workload seed deals its rows out (see MakeInputs).
inline constexpr std::uint64_t kCollectionSeed = 0xDEE9ULL;

/// Held-out queries, the base vectors in insertion order and (for live-rw)
/// vectors kept back for inserts: synth::MakeDatasetProxy("deep", ...) rows
/// dealt out by a shuffle drawn from the seed, so the inputs are a pure
/// function of the seed.
struct Inputs {
  gass::core::Dataset base;
  gass::core::Dataset queries;
  gass::core::Dataset reserve;
};
Inputs MakeInputs(std::uint64_t seed, std::size_t n, std::size_t num_queries,
                  std::size_t reserve);

/// Exact top-k of every query (multithreaded brute force, all cores).
gass::eval::GroundTruth ExactTruth(const gass::core::Dataset& base,
                                   const gass::core::Dataset& queries,
                                   std::size_t k);

/// |result ∩ truth[:k]| / k.
double RecallAtK(const std::vector<gass::core::Neighbor>& result,
                 const std::vector<gass::core::Neighbor>& truth,
                 std::size_t k);

/// Order-sensitive digest of ids and distance bits.
std::uint64_t Digest(const std::vector<gass::core::Neighbor>& neighbors,
                     std::uint64_t seed = 0);
std::uint64_t DigestGraph(const gass::core::Graph& graph);

using Clock = std::chrono::steady_clock;
std::uint64_t NowNs();
double SecondsSince(Clock::time_point start);
double ProcessCpuSeconds();
double ThreadCpuSeconds();
double PeakRssMb();

/// Waits for `ticket` by checking it every ~50 µs instead of blocking in
/// get(). A client blocked in get() must be woken by the serving thread
/// that fulfils the promise, and on a virtual machine waking an idle CPU
/// costs that serving thread tens of microseconds to milliseconds; a
/// client that polls from a timer is never woken by the server.
template <typename Ticket>
auto AwaitPolling(Ticket& ticket) {
  while (ticket.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return ticket.get();
}

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Tail quantile robust to brief machine stalls: the sample (in arrival or
/// completion order) is cut into consecutive windows of `window` values, the
/// quantile is taken per window, and the median over windows is returned.
/// A remainder shorter than a window is dropped unless it is all there is.
double WindowedQuantile(const std::vector<double>& values, std::size_t window,
                        double q);
/// Requests per window for tail quantiles: p99 of 1000 leaves 10 beyond.
inline constexpr std::size_t kTailWindow = 1000;

/// The run's result: named metrics with units, exact counters, operation
/// counts and correctness gates. Printed as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// An exact (deterministic) counter: also reported as a metric.
  void Counter(const std::string& name, double value,
               const std::string& unit = "count");
  /// Records a gate; a false `ok` marks the run incorrect.
  void Gate(bool ok, const std::string& what);
  void Ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  bool correct() const { return failures_.empty(); }
  std::string Json(const std::string& workload) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  std::size_t gates_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer probes shared by the workloads (traced runs only).
///
/// L1: core::BeamSearch over `graph` from 48 seeds drawn from
/// Rng(seed ^ query), beam 32. Reports core.beam_us_per_query and the exact
/// core.beam_dists_per_query.
void ProbeBeamSearch(const gass::core::Graph& graph,
                     const gass::core::Dataset& data,
                     const gass::core::Dataset& queries, std::uint64_t seed,
                     SpanLog* spans, Report* report);
/// L2: single-thread direct `index.Search` over the queries; reports
/// methods.search_us.p50/.p99 and returns the p50 in microseconds.
double ProbeDirectSearch(const gass::methods::GraphIndex& index,
                         const gass::core::Dataset& queries,
                         const gass::methods::SearchParams& params,
                         std::uint64_t seed, SpanLog* spans, Report* report);
/// L0: core.kernel_ns_per_dist, a timed DistanceComputer::ToQueryBatch over
/// 256 cached workload rows (arithmetic cost per distance, free of memory
/// misses), and core.kernel_share = dists × ns / search time.
void ReportKernel(const gass::core::Dataset& data,
                  const gass::core::Dataset& queries, double dists_per_query,
                  double search_us, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
