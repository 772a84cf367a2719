// simd-check: the exact work counters of a small fixed knn-closed problem.
// The distance kernels promise bit-identical results at every SIMD level,
// so builds and searches must count exactly the same work whether the
// process runs scalar or vector kernels; run.py compares two runs.

#include <memory>

#include "core/simd/simd.h"
#include "methods/factory.h"
#include "serve/executor.h"
#include "workloads.h"

namespace perfbench {

void RunSimdCheck(const Config& config, Report* report) {
  Inputs in = MakeInputs(config.seed, 5000, 200, 0);
  std::unique_ptr<gass::methods::GraphIndex> index =
      gass::methods::CreateIndex("hnsw", config.seed);
  const gass::methods::BuildStats build = index->Build(in.base);

  gass::serve::ExecutorOptions options;
  options.threads = 2;
  options.seed = config.seed;
  gass::serve::QueryExecutor executor(*index, options);
  const gass::serve::BatchResult batch = executor.SearchBatch(
      in.queries.data(), in.queries.size(), in.queries.dim(), BenchParams());
  gass::core::SearchStats totals;
  std::uint64_t digest = 0;
  for (const auto& r : batch.results) {
    totals += r.stats;
    digest = Digest(r.neighbors, digest);
  }
  const double nq = static_cast<double>(in.queries.size());
  report->Counter("methods.build_dists",
                  static_cast<double>(build.distance_computations));
  report->Counter("core.dists_per_query",
                  static_cast<double>(totals.distance_computations) / nq);
  report->Counter("core.hops_per_query", static_cast<double>(totals.hops) / nq);
  report->Counter("core.prefetches_per_query",
                  static_cast<double>(totals.prefetches) / nq);
  report->Counter("graph_digest_low32",
                  static_cast<double>(DigestGraph(index->graph()) & 0xFFFFFFFFu));
  report->Counter("results_digest_low32",
                  static_cast<double>(digest & 0xFFFFFFFFu));
  ProbeBeamSearch(index->graph(), in.base, in.queries, config.seed, nullptr,
                  report);
  report->Note("simd_level", gass::core::simd::SimdLevelName(
                                 gass::core::simd::ActiveSimdLevel()));
  report->Ops(batch.results.size(), 0);
}

}  // namespace perfbench
