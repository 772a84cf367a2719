#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

void SpanLog::AddChild(const gass::obs::QueryTrace& trace, const char* name,
                       std::uint64_t start_ns, std::uint64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.dur_ns = end_ns - start_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  pending_[&trace].push_back(span);
}

void SpanLog::AddStandalone(const std::string& phase, const char* name,
                            std::uint64_t dur_ns) {
  Request request;
  request.phase = phase;
  Span root;
  root.name = "request";
  root.dur_ns = dur_ns;
  Span span = root;
  span.name = name;
  request.spans = {root, span};
  std::lock_guard<std::mutex> lock(mutex_);
  Fold(std::move(request));
}

void SpanLog::Harvest(
    const std::string& phase,
    const std::vector<const gass::obs::QueryTrace*>& traces) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const gass::obs::QueryTrace* trace : traces) {
    Request request;
    request.phase = phase;
    Span root;
    root.name = "request";
    root.dur_ns = trace->total_ns();
    request.spans.push_back(root);
    for (std::size_t i = 0; i < trace->size(); ++i) {
      const gass::obs::TraceSpan& s = trace->span(i);
      // Updates (WAL append + apply) are folded apart from searches.
      if (s.stage == gass::obs::Stage::kWalAppend ||
          s.stage == gass::obs::Stage::kApply) {
        request.phase = phase + ".update";
      }
      Span span;
      span.name = gass::obs::StageName(s.stage);
      span.start_ns = s.start_ns;
      span.dur_ns = s.duration_ns;
      request.spans.push_back(span);
    }
    auto it = pending_.find(trace);
    if (it != pending_.end()) {
      request.spans.insert(request.spans.end(), it->second.begin(),
                           it->second.end());
    }
    Fold(std::move(request));
  }
  pending_.clear();
}

void SpanLog::ComputeSelfTimes(std::vector<Span>* spans) {
  // Parents first: earlier start, then longer duration. Each span's parent
  // is the innermost open span that contains it.
  std::stable_sort(spans->begin() + 1, spans->end(),
                   [](const Span& a, const Span& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.dur_ns > b.dur_ns;
                   });
  const std::size_t n = spans->size();
  std::vector<std::size_t> parent(n, 0);
  std::vector<std::size_t> stack{0};
  for (std::size_t i = 1; i < n; ++i) {
    const Span& s = (*spans)[i];
    while (stack.size() > 1) {
      const Span& top = (*spans)[stack.back()];
      if (s.start_ns >= top.start_ns &&
          s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    parent[i] = stack.back();
    stack.push_back(i);
  }
  // Self = duration minus the union of the direct children's intervals
  // (children are in start order, so one sweep merges overlaps).
  std::vector<std::uint64_t> covered(n, 0);
  std::vector<std::uint64_t> reach(n, 0);
  for (std::size_t i = 0; i < n; ++i) reach[i] = (*spans)[i].start_ns;
  for (std::size_t i = 1; i < n; ++i) {
    const Span& s = (*spans)[i];
    const std::size_t p = parent[i];
    const std::uint64_t end = s.start_ns + s.dur_ns;
    const std::uint64_t from = std::max(s.start_ns, reach[p]);
    if (end > from) covered[p] += end - from;
    reach[p] = std::max(reach[p], end);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Span& s = (*spans)[i];
    s.self_ns = s.dur_ns > covered[i] ? s.dur_ns - covered[i] : 0;
  }
}

void SpanLog::Fold(Request request) {
  ComputeSelfTimes(&request.spans);
  request.id = next_id_++;
  Phase& phase = phases_[request.phase];
  ++phase.requests;
  std::map<std::string, std::vector<double>> per_name;
  for (const Span& span : request.spans) {
    Aggregate& agg = phase.by_name[span.name];
    agg.dur_ns.push_back(static_cast<double>(span.dur_ns));
    agg.self_ns += static_cast<double>(span.self_ns);
    per_name[span.name].push_back(static_cast<double>(span.dur_ns));
  }
  for (auto& [name, durs] : per_name) {
    if (durs.size() < 2) continue;
    const double slowest = *std::max_element(durs.begin(), durs.end());
    const double median = Median(durs);
    if (median > 0) phase.tail_ratios[name].push_back(slowest / median);
  }
  if (kept_.size() < kMaxKeptRequests) kept_.push_back(std::move(request));
}

double SpanLog::SelfUsPerRequest(const std::string& phase,
                                 const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto p = phases_.find(phase);
  if (p == phases_.end() || p->second.requests == 0) return 0.0;
  auto a = p->second.by_name.find(name);
  if (a == p->second.by_name.end()) return 0.0;
  return a->second.self_ns * 1e-3 / static_cast<double>(p->second.requests);
}

double SpanLog::MeanUs(const std::string& phase,
                       const std::string& name) const {
  return Mean(Durations(phase, name)) * 1e-3;
}

std::vector<double> SpanLog::Durations(const std::string& phase,
                                       const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto p = phases_.find(phase);
  if (p == phases_.end()) return {};
  auto a = p->second.by_name.find(name);
  if (a == p->second.by_name.end()) return {};
  return a->second.dur_ns;
}

std::size_t SpanLog::Requests(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto p = phases_.find(phase);
  return p == phases_.end() ? 0 : p->second.requests;
}

double SpanLog::TailRatio(const std::string& phase,
                          const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto p = phases_.find(phase);
  if (p == phases_.end()) return 0.0;
  auto r = p->second.tail_ratios.find(name);
  if (r == p->second.tail_ratios.end()) return 0.0;
  return Median(r->second);
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Request& request : kept_) {
    for (const Span& span : request.spans) {
      std::fprintf(out,
                   "{\"phase\":\"%s\",\"request\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"dur_ns\":%llu,\"self_ns\":%llu}\n",
                   request.phase.c_str(),
                   static_cast<unsigned long long>(request.id), span.name,
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.dur_ns),
                   static_cast<unsigned long long>(span.self_ns));
    }
  }
  return std::fclose(out) == 0;
}

gass::methods::SearchResult TracedIndex::Search(
    const float* query, const gass::methods::SearchParams& params,
    gass::methods::SearchContext* ctx) const {
  const gass::obs::QueryTrace* trace = params.trace;
  const std::uint64_t start = trace != nullptr ? trace->ElapsedNs() : 0;
  gass::methods::SearchResult result = inner_->Search(query, params, ctx);
  if (trace != nullptr) {
    spans_->AddChild(*trace, "index.search", start, trace->ElapsedNs());
  }
  if (done_ns_ != nullptr && params.admission_id >= id_base_ &&
      params.admission_id - id_base_ < done_ns_->size()) {
    (*done_ns_)[params.admission_id - id_base_] = NowNs();
  }
  return result;
}

}  // namespace perfbench
