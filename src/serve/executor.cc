#include "serve/executor.h"

#include <atomic>

#include "core/macros.h"
#include "methods/search_params.h"

namespace gass::serve {

SearchResponse Execute(const methods::GraphIndex& index, const float* query,
                       methods::SearchContext* ctx, std::uint64_t seed,
                       std::uint64_t id, const methods::SearchParams& params,
                       const core::Deadline& deadline, obs::QueryTrace* trace,
                       ServeMetrics& metrics) {
  obs::StageTimer session_timer(trace, obs::Stage::kSession);
  // Reseed per query: results depend only on (seed, admission id), never
  // on which worker ran the query or in what order.
  ctx->rng = core::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
  methods::SearchParams query_params = methods::WithDeadline(
      params, deadline.unlimited() ? nullptr : &deadline);
  query_params.admission_id = id;
  query_params.trace = trace;
  session_timer.Stop();

  const std::size_t spans_before = trace != nullptr ? trace->size() : 0;
  obs::StageTimer search_timer(trace, obs::Stage::kSearch);
  SearchResponse response(index.Search(query, query_params, ctx));
  if (trace != nullptr && trace->size() > spans_before) {
    // The index recorded its own stage breakdown (sharded fan-out); an
    // enclosing span would double-count it in the stage histograms.
    search_timer.Cancel();
  } else {
    search_timer.SetStats(response.stats);
    search_timer.Stop();
  }
  response.admission_id = id;
  response.expired = response.stats.deadline_expiries > 0;
  response.degrade_step = params.degrade_step;
  response.outcome = response.expired        ? methods::ServeOutcome::kExpired
                     : params.degrade_step > 0 ? methods::ServeOutcome::kDegraded
                                               : methods::ServeOutcome::kFull;
  metrics.RecordQuery(response.stats, response.expired, response.partial);
  return response;
}

void FinishTrace(obs::QueryTrace* trace, obs::Tracer* owner,
                 ServeMetrics& metrics) {
  if (trace == nullptr) return;
  if (owner != nullptr) {
    owner->FinishTrace(trace);
  } else {
    trace->Finish();
  }
  // Traced queries feed the per-stage latency histograms; the untraced
  // majority never touches them.
  for (std::size_t i = 0; i < trace->size(); ++i) {
    const obs::TraceSpan& span = trace->span(i);
    metrics.RecordStageNanos(span.stage, span.duration_ns);
  }
}

QueryExecutor::QueryExecutor(const methods::GraphIndex& index,
                             const ExecutorOptions& options)
    : index_(index),
      options_(options),
      pool_(options.threads),
      sessions_(index, options.seed ^ 0xC0417E57ULL),
      tracer_(options.trace) {
  GASS_CHECK_MSG(index.SupportsConcurrentSearch(),
                 "%s does not support concurrent search; clone one instance "
                 "per thread instead (see docs/SERVING.md)",
                 index.Name().c_str());
}

BatchResult QueryExecutor::SearchBatch(
    const std::vector<SearchRequest>& requests) {
  BatchResult batch;
  const std::size_t num_queries = requests.size();
  batch.results.resize(num_queries);
  if (num_queries == 0) return batch;

  core::Timer timer;
  const std::size_t workers = pool_.thread_count();
  std::atomic<std::size_t> next_query{0};

  // Each worker leases one context for its whole run and pulls query
  // indices from a shared counter — queries are independent, so dynamic
  // scheduling absorbs latency variance without any per-query dispatch.
  auto worker = [&]() {
    SearchSessionPool::Lease lease = sessions_.Acquire();
    for (;;) {
      const std::size_t q = next_query.fetch_add(1, std::memory_order_relaxed);
      if (q >= num_queries) break;
      const SearchRequest& request = requests[q];
      const std::uint64_t id = request.admission_id == kAutoAdmissionId
                                   ? static_cast<std::uint64_t>(q)
                                   : request.admission_id;
      // Trace attachment: the request's own sink wins over the sampler.
      obs::QueryTrace* trace = request.trace;
      obs::Tracer* owner = nullptr;
      if (trace != nullptr) {
        trace->Begin(id);
      } else {
        trace = tracer_.StartTrace(id);
        owner = &tracer_;
      }
      // Effective deadline: the earliest of the request deadline, the
      // caller's params.deadline, and the executor's per-query timeout
      // (see the header contract).
      core::Deadline deadline = request.params.deadline != nullptr
                                    ? *request.params.deadline
                                    : core::Deadline();
      if (request.has_deadline) {
        deadline = core::Deadline::Earliest(deadline, request.deadline);
      }
      if (options_.timeout_seconds > 0) {
        deadline = core::Deadline::Earliest(
            deadline, core::Deadline::After(options_.timeout_seconds));
      }
      SearchResponse response =
          Execute(index_, request.query, lease.get(), options_.seed, id,
                  request.params, deadline, trace, metrics_);
      FinishTrace(trace, owner, metrics_);
      response.trace = trace;
      batch.results[q] = std::move(response);
    }
  };

  std::size_t submitted = 0;
  for (std::size_t w = 0; w + 1 < workers; ++w) {
    if (pool_.Submit(worker)) ++submitted;
  }
  // The calling thread is the last worker; with submitted == 0 (e.g. the
  // pool is shutting down) the batch still completes, just serially.
  worker();
  pool_.Wait();
  (void)submitted;

  batch.elapsed_seconds = timer.Seconds();
  for (const methods::SearchResult& r : batch.results) {
    if (r.expired) ++batch.expired;
  }
  return batch;
}

BatchResult QueryExecutor::SearchBatch(const float* queries,
                                       std::size_t num_queries,
                                       std::size_t dim,
                                       const methods::SearchParams& params) {
  std::vector<SearchRequest> requests(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    requests[q].query = queries + q * dim;
    requests[q].dim = dim;
    requests[q].params = params;
  }
  return SearchBatch(requests);
}

}  // namespace gass::serve
