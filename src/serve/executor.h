// The serve tier's one request path (serve::Execute) and the batched
// executor built on it.
//
// Execute runs one query against one index: it reseeds the context RNG
// from (seed, admission id), wires the deadline and trace into the
// SearchParams, records the `search` span, classifies the outcome and
// feeds ServeMetrics. QueryExecutor (closed loop, batches) and Frontend
// (open loop, admission queue) differ only in how they pick the id,
// deadline and trace before calling it.
//
// The executor owns a core::ThreadPool and a SearchSessionPool; callers
// hand it a batch of queries and get back one SearchResult per query. Every
// query runs with an optional deadline: on expiry the underlying beam
// search returns its best-so-far answers instead of blocking the batch.
//
// Determinism: each query's RNG is reseeded from (executor seed, query
// index), so batch results are identical regardless of thread count or
// scheduling — executor(1 thread) == executor(8 threads), query by query.

#ifndef GASS_SERVE_EXECUTOR_H_
#define GASS_SERVE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/deadline.h"
#include "core/thread_pool.h"
#include "methods/graph_index.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/search_session.h"

namespace gass::serve {

/// Runs one query against `index` on the leased context `ctx`. The
/// context RNG is reseeded from (seed, id), so the answer depends only on
/// those two values. `deadline` replaces params.deadline (unlimited = none)
/// and must outlive the call; `trace` (null = untraced) must already be
/// begun. Records a `session` span and a `search` span, the latter
/// cancelled when the index records its own stage breakdown (sharded
/// fan-out). The outcome is kExpired when the deadline cut the search
/// short, else kDegraded for params.degrade_step > 0, else kFull. The
/// query is RecordQuery()'d into `metrics`; the trace is left open for
/// the caller (see FinishTrace).
SearchResponse Execute(const methods::GraphIndex& index, const float* query,
                       methods::SearchContext* ctx, std::uint64_t seed,
                       std::uint64_t id, const methods::SearchParams& params,
                       const core::Deadline& deadline, obs::QueryTrace* trace,
                       ServeMetrics& metrics);

/// Finishes `trace` (null = no-op) and feeds its spans into the per-stage
/// latency histograms of `metrics`. A tracer-owned slot is retired through
/// `owner`; a caller-owned trace (owner null) is only stamped.
void FinishTrace(obs::QueryTrace* trace, obs::Tracer* owner,
                 ServeMetrics& metrics);

struct ExecutorOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Per-query time budget in seconds; <= 0 = unlimited.
  double timeout_seconds = 0.0;
  /// Base seed for the per-query RNG streams.
  std::uint64_t seed = 0x5E44E5ULL;
  /// Trace sampling (obs::TracerOptions::sample_period 0 = off), keyed on
  /// each query's admission id — the batch index, unless the request
  /// carries an explicit id.
  obs::TracerOptions trace;
};

/// Results of one SearchBatch call.
struct BatchResult {
  std::vector<SearchResponse> results;  ///< One per query, in order.
  std::uint64_t expired = 0;      ///< Queries cut short by the deadline.
  double elapsed_seconds = 0.0;   ///< Wall time for the whole batch.

  double Qps() const {
    return elapsed_seconds > 0
               ? static_cast<double>(results.size()) / elapsed_seconds
               : 0.0;
  }
};

/// Runs query batches concurrently against one shared index.
///
/// The index must be built, support concurrent search, and outlive the
/// executor. SearchBatch is not re-entrant: one batch at a time per
/// executor (serving threads live inside the executor, not around it).
class QueryExecutor {
 public:
  QueryExecutor(const methods::GraphIndex& index,
                const ExecutorOptions& options = {});

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Runs one batch of SearchRequests — the primary entry point. Each
  /// request's auto admission id resolves to its batch index (so the
  /// historic (seed, query index) determinism contract is unchanged).
  ///
  /// Deadline contract: each query runs under the *earliest* of the
  /// request deadline (when has_deadline), the caller-set
  /// `params.deadline` (which must outlive the call), and the executor's
  /// own per-query timeout (`options.timeout_seconds`, measured from that
  /// query's start). A caller deadline is never loosened by a longer
  /// executor timeout, and never silently overwritten by a shorter one
  /// being absent — min always wins.
  BatchResult SearchBatch(const std::vector<SearchRequest>& requests);

  /// Forwarding overload: searches `queries[i * dim .. (i+1) * dim)` for
  /// i in [0, num_queries), all with the same SearchParams.
  BatchResult SearchBatch(const float* queries, std::size_t num_queries,
                          std::size_t dim, const methods::SearchParams& params);

  /// Cumulative metrics across all batches since construction/Reset().
  const ServeMetrics& metrics() const { return metrics_; }
  ServeMetrics& metrics() { return metrics_; }

  /// The executor's trace sampler (configured from options.trace).
  const obs::Tracer& tracer() const { return tracer_; }
  obs::Tracer& tracer() { return tracer_; }

  std::size_t thread_count() const { return pool_.thread_count(); }

 private:
  const methods::GraphIndex& index_;
  ExecutorOptions options_;
  core::ThreadPool pool_;
  SearchSessionPool sessions_;
  ServeMetrics metrics_;
  obs::Tracer tracer_;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_EXECUTOR_H_
