// The persistent WorkerPool behind parallel_for: every index runs exactly
// once, the first exception fails the job fast, nested use of the one
// shared pool is safe, and the serial fallbacks stay on the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace gpumas {
namespace {

TEST(ParTest, ParallelForRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(257);
  for (auto& c : counts) c.store(0);
  parallel_for(4, counts.size(),
               [&](size_t k) { counts[k].fetch_add(1); });
  for (size_t k = 0; k < counts.size(); ++k) {
    EXPECT_EQ(counts[k].load(), 1) << "index " << k;
  }
}

TEST(ParTest, ParallelForExceptionPropagatesAndStopsClaiming) {
  // The regression contract: once a worker throws, remaining iterations
  // stop being claimed instead of running the rest of the batch, and the
  // first exception reaches the caller.
  std::atomic<size_t> executed{0};
  const size_t n = 100000;
  try {
    parallel_for(4, n, [&](size_t k) {
      if (k == 0) throw std::runtime_error("boom");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "exception must propagate out of parallel_for";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Workers that already claimed an index may finish it, but the bulk of
  // the range must never run.
  EXPECT_LT(executed.load(), n / 2);
}

TEST(ParTest, WorkerPoolNestedRunIsSafe) {
  // The experiment engine calls parallel_for around scenarios whose queue
  // runs fan their co-run groups out through parallel_for again — nested
  // use of one pool must not deadlock or lose iterations.
  std::atomic<int> total{0};
  parallel_for(2, 3, [&](size_t) {
    parallel_for(2, 5, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 15);
}

TEST(ParTest, SerialFallbacksDoNotTouchThePool) {
  // threads <= 1 and n <= 1 run inline on the caller.
  int calls = 0;
  parallel_for(1, 4, [&](size_t) { ++calls; });
  parallel_for(8, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

}  // namespace
}  // namespace gpumas
