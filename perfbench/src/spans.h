// Benchmark-side tracing: spans kept in memory, reduced to self times and
// written out when the run ends.
//
// A traced run combines two span sources per request: the program's own
// obs::Tracer stages (queue, session, search, route, shard_search, merge,
// wal_append, apply) and the spans the benchmark records around its calls
// into a layer — chiefly `index.search`, recorded by TracedIndex, a
// forwarding GraphIndex handed to the executor or frontend so that every
// index search becomes a child span of its serving request. Offsets of both
// sources share the QueryTrace clock. Self time of a span is its duration
// minus the part of it covered by its children (spans nested inside it).
// Nothing here adds tracing inside the library.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "methods/graph_index.h"
#include "obs/trace.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanLog {
 public:
  /// Records a benchmark span inside the request traced by `trace`.
  void AddChild(const gass::obs::QueryTrace& trace, const char* name,
                std::uint64_t start_ns, std::uint64_t end_ns);
  /// Records a span of a direct layer call outside any serving request
  /// (one request of its own).
  void AddStandalone(const std::string& phase, const char* name,
                     std::uint64_t dur_ns);

  /// Folds every completed trace (plus the benchmark spans recorded for
  /// it) into one request each under `phase` (updates, which carry
  /// wal_append/apply spans, under `phase`.update), computes self times, and
  /// clears the pending benchmark spans. Call when the tracing threads are
  /// quiescent, before the tracer is reset.
  void Harvest(const std::string& phase,
               const std::vector<const gass::obs::QueryTrace*>& traces);

  /// Mean self time per request of spans named `name` in `phase`, in
  /// microseconds (0 when the phase has no requests).
  double SelfUsPerRequest(const std::string& phase,
                          const std::string& name) const;
  /// Serving-layer time per request of `phase`: the self time of the
  /// request, `session` and serve-side `search` spans, i.e. everything the
  /// executor or frontend spends outside the queue and the index search.
  double ServeOverheadUs(const std::string& phase) const {
    return SelfUsPerRequest(phase, "request") +
           SelfUsPerRequest(phase, "session") +
           SelfUsPerRequest(phase, "search");
  }
  /// Mean duration per span named `name` in `phase`, microseconds.
  double MeanUs(const std::string& phase, const std::string& name) const;
  /// Requests harvested under `phase`.
  std::size_t Requests(const std::string& phase) const;
  /// Per request of `phase`: slowest / median duration of its spans named
  /// `name` (requests with fewer than two such spans are skipped); the
  /// median over requests.
  double TailRatio(const std::string& phase, const std::string& name) const;

  /// Writes the kept requests' spans as JSON lines; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Request {
    std::string phase;
    std::uint64_t id = 0;
    std::vector<Span> spans;  // spans[0] is the root ("request").
  };
  struct Aggregate {
    std::vector<double> dur_ns;
    double self_ns = 0.0;
  };
  struct Phase {
    std::size_t requests = 0;
    std::map<std::string, Aggregate> by_name;
    std::map<std::string, std::vector<double>> tail_ratios;
  };
  /// Durations (ns) of every span named `name` in `phase`.
  std::vector<double> Durations(const std::string& phase,
                                const std::string& name) const;
  static void ComputeSelfTimes(std::vector<Span>* spans);
  void Fold(Request request);

  /// Requests written to the spans file at most (the aggregates cover all).
  static constexpr std::size_t kMaxKeptRequests = 20000;

  mutable std::mutex mutex_;
  /// Benchmark spans waiting for their request's trace, keyed by the
  /// trace object they were recorded against.
  std::map<const gass::obs::QueryTrace*, std::vector<Span>> pending_;
  std::map<std::string, Phase> phases_;
  std::vector<Request> kept_;
  std::uint64_t next_id_ = 0;
};

/// Forwarding GraphIndex: searches `inner`, and
///  * when the request is traced, records an `index.search` span into
///    `spans` (a child of the serving request's trace);
///  * when `done_ns` is set, stamps the completion time of admission id
///    `id` at done_ns[id - id_base] (the open-loop latency clock).
class TracedIndex : public gass::methods::GraphIndex {
 public:
  TracedIndex(gass::methods::GraphIndex* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {
    data_ = inner->data();
  }

  /// Completion stamps for admission ids [id_base, id_base + size).
  void StampCompletions(std::vector<std::uint64_t>* done_ns,
                        std::uint64_t id_base) {
    done_ns_ = done_ns;
    id_base_ = id_base;
  }

  std::string Name() const override { return inner_->Name(); }
  gass::methods::BuildStats Build(const gass::core::Dataset& data) override {
    return inner_->Build(data);
  }
  gass::methods::SearchResult Search(
      const float* query, const gass::methods::SearchParams& params) override {
    return inner_->Search(query, params);
  }
  gass::methods::SearchResult Search(
      const float* query, const gass::methods::SearchParams& params,
      gass::methods::SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override {
    return inner_->SupportsConcurrentSearch();
  }
  gass::methods::SearchContext MakeSearchContext(
      std::uint64_t seed) const override {
    return inner_->MakeSearchContext(seed);
  }
  const gass::core::Graph& graph() const override { return inner_->graph(); }
  bool HasBaseGraph() const override { return inner_->HasBaseGraph(); }
  std::size_t IndexBytes() const override { return inner_->IndexBytes(); }

 private:
  gass::methods::GraphIndex* inner_;
  SpanLog* spans_;
  std::vector<std::uint64_t>* done_ns_ = nullptr;
  std::uint64_t id_base_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
