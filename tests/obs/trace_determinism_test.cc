// End-to-end trace determinism (docs/OBSERVABILITY.md): with the same
// executor seed and the same admission ids, two runs sample the identical
// query subset, and each sampled query's per-stage work counters (distance
// computations, hops, prefetches) match bit-for-bit. Span durations are
// wall-clock and excluded from the comparison.

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "methods/search_params.h"
#include "obs/trace.h"
#include "serve/executor.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"
#include "synth/workloads.h"

namespace gass::obs {
namespace {

// Everything deterministic about one trace: its id plus each span's stage,
// shard, and work counters, in a canonical order.
using SpanKey =
    std::tuple<std::uint8_t, std::int32_t, std::uint64_t, std::uint64_t,
               std::uint64_t>;
struct TraceKey {
  std::uint64_t admission_id;
  std::vector<SpanKey> spans;
  bool operator==(const TraceKey& other) const {
    return admission_id == other.admission_id && spans == other.spans;
  }
};

TraceKey KeyOf(const QueryTrace& trace) {
  TraceKey key;
  key.admission_id = trace.admission_id();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceSpan& span = trace.span(i);
    key.spans.emplace_back(static_cast<std::uint8_t>(span.stage), span.shard,
                           span.distance_computations, span.hops,
                           span.prefetches);
  }
  std::sort(key.spans.begin(), key.spans.end());
  return key;
}

std::vector<TraceKey> RunExecutorOnce(const methods::GraphIndex& index,
                                      const core::Dataset& queries) {
  serve::ExecutorOptions options;
  options.threads = 2;
  options.seed = 42;
  options.trace.sample_period = 2;
  serve::QueryExecutor executor(index, options);

  const methods::SearchParams params = methods::MakeSearchParams(5, 32, 8);
  executor.SearchBatch(queries.data(), queries.size(), queries.dim(), params);

  std::vector<TraceKey> keys;
  for (const QueryTrace* trace : executor.tracer().Completed()) {
    keys.push_back(KeyOf(*trace));
  }
  // Worker interleaving randomizes completion order; canonicalize.
  std::sort(keys.begin(), keys.end(),
            [](const TraceKey& a, const TraceKey& b) {
              return a.admission_id < b.admission_id;
            });
  return keys;
}

TEST(TraceDeterminismTest, ExecutorRunsProduceIdenticalTraces) {
  synth::HoldOutSplit split = synth::SplitHoldOut(
      synth::MakeDatasetProxy("deep", 1600, 42), 80, 42 ^ 0x5ULL);
  auto index = methods::CreateIndex("hnsw", 42);
  index->Build(split.base);

  const std::vector<TraceKey> first = RunExecutorOnce(*index, split.queries);
  const std::vector<TraceKey> second = RunExecutorOnce(*index, split.queries);

  ASSERT_FALSE(first.empty());  // Period 2 over 80 ids samples some.
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].admission_id, second[i].admission_id);
    EXPECT_EQ(first[i].spans, second[i].spans)
        << "trace " << first[i].admission_id << " diverged";
  }

  // Sampled queries carry real work: some span must have nonzero counters.
  bool any_work = false;
  for (const TraceKey& key : first) {
    for (const SpanKey& span : key.spans) {
      if (std::get<2>(span) > 0) any_work = true;
    }
  }
  EXPECT_TRUE(any_work);
}

TEST(TraceDeterminismTest, ShardedRequestSearchTracesAreStable) {
  synth::HoldOutSplit split = synth::SplitHoldOut(
      synth::MakeDatasetProxy("deep", 1200, 42), 8, 42 ^ 0x5ULL);
  shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.seed = 42;
  options.partitioner.num_shards = 3;
  options.partitioner.kind = shard::PartitionerKind::kKMeans;
  shard::ShardedIndex index(options);
  index.Build(split.base);

  methods::SearchContext ctx = index.MakeSearchContext(0);
  serve::ServeMetrics metrics;
  for (std::uint64_t id = 0; id < split.queries.size(); ++id) {
    QueryTrace first, second;
    for (QueryTrace* trace : {&first, &second}) {
      trace->Begin(id);
      const serve::SearchResponse response = serve::Execute(
          index, split.queries.Row(static_cast<core::VectorId>(id)), &ctx,
          options.seed, id, methods::MakeSearchParams(5, 32, 8),
          core::Deadline(), trace, metrics);
      serve::FinishTrace(trace, /*owner=*/nullptr, metrics);
      EXPECT_EQ(response.admission_id, id);
    }
    const TraceKey a = KeyOf(first), b = KeyOf(second);
    EXPECT_EQ(a.spans, b.spans) << "query " << id << " diverged";

    // The sharded breakdown records route + one span per probed shard +
    // merge — never the opaque whole-search span.
    std::size_t probes = 0;
    bool has_route = false, has_merge = false, has_search = false;
    for (std::size_t i = 0; i < first.size(); ++i) {
      switch (first.span(i).stage) {
        case Stage::kRoute: has_route = true; break;
        case Stage::kMerge: has_merge = true; break;
        case Stage::kShardSearch: ++probes; break;
        case Stage::kSearch: has_search = true; break;
        default: break;
      }
    }
    EXPECT_TRUE(has_route);
    EXPECT_TRUE(has_merge);
    EXPECT_FALSE(has_search);
    EXPECT_EQ(probes, index.EffectiveNprobe());
  }
}

}  // namespace
}  // namespace gass::obs
