// The benchmark's metric catalogue and per-run report.
//
// The catalogue is the single list of metric names and units; BENCHMARK.json
// at the repository root declares the same names (perfbench_test checks the
// two agree). End-to-end metrics are what a user of gpumas sees and are
// printed by an untraced run; per-layer metrics explain them through the
// layers' own costs and counters and are printed by a traced run. Every
// workload emits every metric of its kind: a layer a workload does not use
// reports 0 (and a sample count of 0).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  MetricKind kind;
};

const std::vector<MetricDef>& catalogue();

class Report {
 public:
  // `name` must be in the catalogue and `value` finite.
  void set(const std::string& name, double value);
  // Sets <prefix>.p50, .tail, .tail_q and .n from many samples (stats.h).
  void set_tail(const std::string& prefix, const std::vector<double>& samples);
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const;

  // One output check: counts toward `attempted`, and toward `failed` (with
  // the reason kept for the report) when `ok` is false.
  void check(bool ok, const std::string& what);
  int attempted() const { return attempted_; }
  int failed() const { return static_cast<int>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

  // A free-form line printed above the metric table.
  void note(const std::string& line) { notes_.push_back(line); }

  // Prints the notes, every metric set so far as "name value unit", and as
  // the last line the JSON result object carrying the metrics of `kind`.
  // Throws if a metric of `kind` was never set.
  void print(std::ostream& os, MetricKind kind) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int attempted_ = 0;
};

}  // namespace perfbench
