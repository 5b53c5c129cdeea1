// Deterministic fault injection for the persistence and execution stack.
//
// Crash-safety claims are only testable if crashes and I/O failures can be
// produced on demand, at exact, reproducible points. The FaultInjector is a
// process-wide singleton consulted by every guarded operation — the atomic
// file writer's open/write/fsync/rename boundaries (common/atomic_file.h),
// the bench journal appends, and WorkerPool job dispatch — and decides,
// from a declarative spec, whether that operation proceeds, reports a
// transient failure, or terminates the process mid-operation the way a real
// crash would (leaving a torn write behind).
//
// The spec comes from the GPUMAS_FAULTS environment variable or a bench's
// --faults flag (the flag wins), as comma-separated clauses:
//
//   fail:<site>:<n>    the site's Nth hit reports a transient failure
//   crash:<site>:<n>   the site's Nth hit _Exit()s the process (code 42),
//                      after tearing the pending write in half when the
//                      site is a write — the artifact a real crash leaves
//   flaky:<site>:<p>   every hit fails with probability p (seeded PRNG)
//   seed:<u64>         seed for flaky draws (default 1)
//   retries:<k>        dispatch retry budget before giving up (default 3)
//
//   <site> := open | write | fsync | rename | dispatch
//
// Everything is deterministic: Nth-hit clauses fire by per-site hit count,
// flaky draws come from a seeded splitmix64 stream indexed by hit order,
// and the dispatch retry backoff is a bounded yield schedule — no wall
// clock anywhere, so injected faults can never perturb simulation results.
//
// An unconfigured injector costs one relaxed atomic load per guarded
// operation (the per-site armed flag), so the worker pool's dispatch path
// pays nothing measurable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gpumas::common {

enum class FaultSite : int {
  kFileOpen = 0,
  kFileWrite,
  kFileFsync,
  kFileRename,
  kDispatch,
};
inline constexpr int kNumFaultSites = 5;

// The spec-grammar name of a site ("open", "write", ...).
const char* fault_site_name(FaultSite site);

class FaultInjector {
 public:
  // Exit code of crash clauses, asserted by the chaos CI job.
  static constexpr int kCrashExitCode = 42;

  // The process-wide injector. First use parses GPUMAS_FAULTS (if set);
  // a malformed env spec throws std::logic_error from here.
  static FaultInjector& instance();

  // Replaces the active spec (clauses, seed, retry budget) and resets all
  // counters. Throws std::logic_error naming the offending clause on a
  // malformed spec; an empty spec disarms every site.
  void configure(const std::string& spec);

  // Disarms every site and zeroes the counters (test isolation).
  void reset() { configure(""); }

  // Consults the injector before one guarded operation. Returns true when
  // the operation must report a transient failure. Crash clauses do not
  // return: when `fd` is valid and `pending` non-empty, the first half of
  // the pending bytes is written first (a torn write, exactly what dying
  // mid-write leaves on disk), then the process _Exit()s with
  // kCrashExitCode — no destructors, no stream flushes.
  bool should_fail(FaultSite site, int fd = -1, const char* pending = nullptr,
                   size_t pending_len = 0);

  // True when any clause targets `site` (lock-free; the fast path).
  bool armed(FaultSite site) const {
    return armed_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }

  // Observability: guarded operations seen / transient failures injected
  // at a site since the last configure(). Hits are only counted while the
  // site is armed.
  uint64_t hits(FaultSite site) const;
  uint64_t injected(FaultSite site) const;

  // Bounded retry budget for injected dispatch faults.
  int dispatch_retries() const;

 private:
  FaultInjector();

  struct Clause {
    FaultSite site = FaultSite::kFileOpen;
    bool crash = false;    // crash:... vs fail:...
    uint64_t nth = 0;      // 1-based hit index; 0 marks a flaky clause
    double prob = 0.0;     // flaky clauses: per-hit failure probability
  };

  mutable std::mutex mu_;
  std::vector<Clause> clauses_;
  int retries_ = 3;
  uint64_t flaky_state_[kNumFaultSites] = {};  // per-site splitmix64 stream
  uint64_t hits_[kNumFaultSites] = {};
  uint64_t injected_[kNumFaultSites] = {};
  std::atomic<bool> armed_[kNumFaultSites] = {};
};

// Deterministic bounded pause between dispatch retry attempts: an
// exponentially growing yield loop, never a timed sleep — results must not
// depend on wall-clock time.
void backoff_pause(int attempt);

namespace detail {
void dispatch_guard_slow();
}  // namespace detail

// Fault-injection hook for job dispatch (WorkerPool and the serial
// parallel_for path). Injected transient failures are retried in place
// with backoff_pause(); once the retry budget is exhausted the fault is
// treated as permanent and surfaces as a std::runtime_error through the
// pool's fail-fast path. Free when no dispatch clause is configured.
inline void dispatch_guard() {
  if (!FaultInjector::instance().armed(FaultSite::kDispatch)) return;
  detail::dispatch_guard_slow();
}

}  // namespace gpumas::common
