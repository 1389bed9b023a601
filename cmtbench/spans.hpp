#pragma once
// Benchmark-side span recorder for the traced run.
//
// Spans are recorded in the benchmark's own code around each public call
// into a solver layer: name, start, end, parent span and the workload run
// id. Each rank thread appends only to its own buffer and keeps its own
// stack of open spans, so recording takes no lock. Everything stays in
// memory and is written once, at exit, as Chrome trace-event JSON
// ("traceEvents", complete "X" events) that chrome://tracing or Perfetto
// open offline. With no log attached (the untraced run) a Span is a no-op.

#include <chrono>
#include <string>
#include <vector>

namespace cmtbench {

struct SpanEvent {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  long long id = 0;
  long long parent = -1;  // enclosing span on the same rank, -1 at the root
  int rank = 0;
  int run = 0;  // index into SpanLog::run_ids
};

class SpanLog {
 public:
  explicit SpanLog(int max_ranks)
      : events_(std::size_t(max_ranks)),
        stacks_(std::size_t(max_ranks)),
        next_id_(std::size_t(max_ranks), 0) {}

  /// Start a new run (one solve); later spans carry its id. Call only while
  /// no rank thread is recording.
  void begin_run(std::string id) {
    run_ids_.push_back(std::move(id));
    for (auto& s : stacks_) s.clear();
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  void open(int rank, const char* name) {
    auto& stack = stacks_[std::size_t(rank)];
    SpanEvent ev;
    ev.name = name;
    ev.rank = rank;
    ev.run = int(run_ids_.size()) - 1;
    ev.id = (static_cast<long long>(rank) << 40) |
            next_id_[std::size_t(rank)]++;
    ev.parent = stack.empty() ? -1 : stack.back().id;
    ev.start_us = now_us();
    stack.push_back(ev);
  }

  void close(int rank) {
    auto& stack = stacks_[std::size_t(rank)];
    SpanEvent ev = stack.back();
    stack.pop_back();
    ev.end_us = now_us();
    events_[std::size_t(rank)].push_back(ev);
  }

  /// All closed spans of one rank, in closing order.
  const std::vector<SpanEvent>& events(int rank) const {
    return events_[std::size_t(rank)];
  }
  int ranks() const { return int(events_.size()); }

  /// Write the Chrome trace-event file. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<std::string> run_ids_;
  std::vector<std::vector<SpanEvent>> events_;  // slot r: rank r only
  std::vector<std::vector<SpanEvent>> stacks_;  // open spans per rank
  std::vector<long long> next_id_;              // per-rank span counter
};

/// RAII span; does nothing when `log` is null.
class Span {
 public:
  Span(SpanLog* log, int rank, const char* name) : log_(log), rank_(rank) {
    if (log_ != nullptr) log_->open(rank_, name);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(rank_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int rank_;
};

}  // namespace cmtbench
