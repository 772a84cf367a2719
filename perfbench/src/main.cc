// perfbench: runs one workload and prints its report as one JSON line.
//
//   perfbench --workload knn-closed|shard-poisson|live-rw|simd-check
//             --seed N --seconds S --trace 0|1 --work-dir DIR [--spans FILE]
//
// run.py builds this binary, picks the metrics BENCHMARK.json names and
// applies the correctness gates; see README.md.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "knn-closed|shard-poisson|live-rw|simd-check --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans FILE]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, and whether later multi-megabyte buffers are then kept on a
  // thread's heap depends on which thread freed first, which made
  // peak_rss_mb take one of three values ~20 MB apart from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      config.trace = number == 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Report report;
  if (config.workload == "knn-closed") {
    perfbench::RunKnnClosed(config, &report);
  } else if (config.workload == "shard-poisson") {
    perfbench::RunShardPoisson(config, &report);
  } else if (config.workload == "live-rw") {
    perfbench::RunLiveRw(config, &report);
  } else if (config.workload == "simd-check") {
    perfbench::RunSimdCheck(config, &report);
  } else {
    return Usage(("unknown workload: " + config.workload).c_str());
  }
  std::printf("%s\n", report.Json(config.workload).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
