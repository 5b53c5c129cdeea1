// Persistent fail-fast worker pool, shared by the experiment engine's
// scenario batches, the cold-path fan-outs nested inside them (suite solos,
// scalability points, a queue's co-run groups) and the interference matrix
// measurement. Every job item is a whole simulation, so a helper that
// finds no work simply sleeps until the next job is posted.
//
// One process-wide pool (WorkerPool::shared()) owns its threads for the
// whole process lifetime, so total OS-thread concurrency is structurally
// bounded by the pool size no matter how many logical parallel regions are
// active at once: a caller that asks for more helpers than are free simply
// runs more of the work itself, which also makes nested fan-outs (an
// engine batch whose scenarios fan out their own simulations) safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_inject.h"

namespace gpumas {

class WorkerPool {
 public:
  // Spawns `workers` persistent helper threads (>= 0; 0 makes every run()
  // execute on the calling thread).
  explicit WorkerPool(int workers) {
    if (workers < 0) workers = 0;
    workers_.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& th : workers_) th.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  // The process-wide pool, sized for the machine (hardware threads minus
  // one for the posting thread, at least one helper so parallel code paths
  // execute — and stay testable — even on a single-core host).
  static WorkerPool& shared() {
    static WorkerPool pool(default_workers());
    return pool;
  }

  // Runs fn(0..n-1) with up to `threads` concurrent executors: the calling
  // thread plus up to threads-1 pool helpers (fewer when the pool is busy
  // or smaller — the caller always participates, so progress never waits
  // on a free worker and nested run() calls from inside a helper cannot
  // deadlock). Indices are claimed from a shared atomic, so expensive
  // items load-balance; the first exception stops everyone from claiming
  // new indices and is rethrown here after the job drains. Callers own
  // determinism: fn must write to disjoint slots, and any order-sensitive
  // reduction happens after the call returns.
  template <typename Fn>
  void run(int threads, size_t n, const Fn& fn) {
    if (n == 0) return;
    Job job;
    job.invoke = [](void* ctx, size_t k) { (*static_cast<const Fn*>(ctx))(k); };
    job.ctx = const_cast<void*>(static_cast<const void*>(&fn));
    job.n = n;
    int helpers = threads - 1;
    if (helpers > workers()) helpers = workers();
    if (static_cast<size_t>(helpers) > n - 1) {
      helpers = static_cast<int>(n - 1);
    }
    if (helpers <= 0) {
      execute(job);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        job.budget = helpers;
        open_.push_back(&job);
      }
      work_cv_.notify_all();
      execute(job);
      {
        std::unique_lock<std::mutex> lock(mu_);
        // The job lives on this stack frame: retract it from the open list
        // (helpers that never joined must not touch it after we return)
        // and wait out the ones that did.
        for (size_t i = 0; i < open_.size(); ++i) {
          if (open_[i] == &job) {
            open_.erase(open_.begin() + static_cast<ptrdiff_t>(i));
            break;
          }
        }
        done_cv_.wait(lock, [&] { return job.active == 0; });
      }
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  struct Job {
    void (*invoke)(void* ctx, size_t k) = nullptr;
    void* ctx = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first failure; guarded by the pool mutex
    int budget = 0;            // helpers still allowed to join (under mu_)
    int active = 0;            // helpers currently executing (under mu_)
  };

  static int default_workers() {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw > 2 ? hw - 1 : 1;
  }

  // The shared claim loop, run by the poster and every joined helper.
  void execute(Job& job) {
    while (!job.failed.load(std::memory_order_relaxed)) {
      const size_t k = job.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= job.n) return;
      try {
        // Fault-injection point: injected transient dispatch failures are
        // retried in place with a bounded deterministic backoff; only an
        // exhausted retry budget surfaces as a job failure. Free (one
        // relaxed load) when no dispatch clause is configured.
        common::dispatch_guard();
        job.invoke(job.ctx, k);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
  }

  void worker_loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || !open_.empty(); });
        if (stop_) return;
        job = open_.back();
        if (--job->budget == 0) open_.pop_back();
        ++job->active;
      }
      execute(*job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--job->active == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers wait here for open jobs
  std::condition_variable done_cv_;  // posters wait here for helpers to leave
  std::vector<Job*> open_;           // jobs with helper budget left (LIFO)
  bool stop_ = false;                // under mu_
  std::vector<std::thread> workers_;
};

// Runs fn(0..n-1) across up to `threads` concurrent executors on the shared
// pool (no per-call thread spawning). Fail-fast first-exception semantics:
// the first exception stops the remaining executors from claiming new
// indices and is rethrown after the job drains. threads <= 1 (or n <= 1)
// degenerates to a serial loop on the calling thread.
template <typename Fn>
void parallel_for(int threads, size_t n, const Fn& fn) {
  if (threads <= 1 || n <= 1) {
    // The serial path takes the same dispatch fault-injection point as the
    // pool, so single-threaded runs reproduce injected faults identically.
    for (size_t k = 0; k < n; ++k) {
      common::dispatch_guard();
      fn(k);
    }
    return;
  }
  WorkerPool::shared().run(threads, n, fn);
}

// The "0 = auto" width of the fan-out APIs built on parallel_for
// (ProfileCache::suite_profiles / scalability, sched::QueueRunner): 0
// selects the shared pool's full width, its helpers plus the calling
// thread. Any other width passes through untouched, so an explicit width
// of 1 stays a serial loop that never starts the pool.
inline int resolve_width(int threads) {
  return threads == 0 ? WorkerPool::shared().workers() + 1 : threads;
}

}  // namespace gpumas
