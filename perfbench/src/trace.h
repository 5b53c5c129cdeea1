// Span tracer of the benchmark's own calls into the gpumas layers.
//
// Every call the benchmark makes into a public layer function is wrapped
// in a Span named "<layer>.<call>" (e.g. "store.load", "exp.run"). A span
// always measures its duration, so the workload runners read their
// timings from it; only when the tracer is enabled is the span also kept
// (name, start, end, parent) for the Chrome trace-event file written at
// exit. Spans live only in this process's memory and in that file: they
// never reach result records, store files or digests.
//
// Single-threaded by design: spans are opened and closed on the main
// thread, which is what makes the parent of a span the innermost open one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, std::string run_id);

  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Closes the span (idempotent) and returns its duration in seconds.
    double stop();

   private:
    Tracer* tracer_;
    std::string name_;
    Clock::time_point start_;
    int id_ = -1;
    double seconds_ = -1.0;
  };

  bool enabled() const { return enabled_; }
  size_t span_count() const { return spans_.size(); }

  // Summed self time (duration minus the durations of direct children) of
  // the recorded spans, per layer: the name up to its first '.'.
  std::map<std::string, double> self_seconds_by_layer() const;
  // Summed duration, and summed self time, of the recorded spans named
  // exactly `name`.
  double total_seconds(const std::string& name) const;
  double self_seconds_of(const std::string& name) const;

  // Chrome trace-event JSON ("X" complete events; loadable in
  // chrome://tracing and Perfetto). Each event's args carry the span id,
  // its parent id (-1 for a root) and the run id.
  void write_chrome_json(const std::string& path) const;

  // Measured cost of recording one span on this machine, in seconds
  // (times a burst of spans on a scratch tracer).
  static double span_cost_seconds();

 private:
  struct Record {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  int open(const std::string& name, Clock::time_point start);
  void close(int id, Clock::time_point end);
  int64_t since_origin(Clock::time_point t) const;
  std::vector<int64_t> self_ns() const;

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> stack_;  // ids of the open spans, innermost last
};

}  // namespace perfbench
