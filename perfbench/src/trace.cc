#include "trace.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_(&tracer), name_(std::move(name)), start_(Clock::now()) {
  if (tracer_->enabled_) id_ = tracer_->open(name_, start_);
}

double Tracer::Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ >= 0) tracer_->close(id_, end);
  return seconds_;
}

int Tracer::open(const std::string& name, Clock::time_point start) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start_ns = since_origin(start);
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id, Clock::time_point end) {
  spans_[static_cast<size_t>(id)].end_ns = since_origin(end);
  // Spans nest (RAII on one thread), so the closing span is innermost.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int64_t Tracer::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::vector<int64_t> Tracer::self_ns() const {
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    self[i] += r.end_ns - r.start_ns;
    if (r.parent >= 0) {
      self[static_cast<size_t>(r.parent)] -= r.end_ns - r.start_ns;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double Tracer::self_seconds_of(const std::string& name) const {
  const std::vector<int64_t> self = self_ns();
  double s = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) s += static_cast<double>(self[i]) * 1e-9;
  }
  return s;
}

double Tracer::total_seconds(const std::string& name) const {
  double s = 0.0;
  for (const Record& r : spans_) {
    if (r.name == name) s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  return s;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\""
     << json_escape(run_id_) << "\"},\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    if (i) os << ",";
    os << "\n{\"name\":\"" << json_escape(r.name) << "\",\"cat\":\""
       << json_escape(layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"run\":\"" << json_escape(run_id_) << "\"}}";
  }
  os << "\n]}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << os.str();
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

double Tracer::span_cost_seconds() {
  constexpr int kSpans = 20000;
  Tracer scratch(true, "span-cost");
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span s(scratch, "bench.cost");
  }
  return std::chrono::duration<double>(Clock::now() - t0).count() / kSpans;
}

}  // namespace perfbench
