// Named like a retired micro-benchmark harness. Wall-clock exemptions are
// anchored to paths (bench/micro_benchmark.cc), never to basenames, so
// this file MUST still be flagged: a basename list would let any TU dodge
// the rule by taking one of its names.
#include <chrono>

namespace fixture {

double impostor_timer() {
  const auto t0 = std::chrono::steady_clock::now();  // VIOLATION
  return static_cast<double>(t0.time_since_epoch().count());
}

}  // namespace fixture
