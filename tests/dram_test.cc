// Unit tests for the FR-FCFS memory channel.
#include "sim/dram.h"

#include <gtest/gtest.h>

#include "sim/gpu_config.h"

namespace gpumas::sim {
namespace {

GpuConfig cfg_with(MemSchedPolicy policy) {
  GpuConfig cfg;
  cfg.mem_sched = policy;
  cfg.banks_per_channel = 2;
  cfg.channel_queue_size = 8;
  cfg.row_hit_cycles = 4;
  cfg.row_miss_cycles = 10;
  cfg.data_bus_cycles = 2;
  return cfg;
}

DramRequest req(uint64_t line, uint32_t bank, uint64_t row, uint64_t cycle) {
  return DramRequest{line, bank, row, 0, cycle, false};
}

TEST(DramTest, ServicesSingleRequest) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ch.tick(0);
  EXPECT_EQ(ch.serviced(), 1u);
  // Row miss (cold bank): ready at 0 + 10 + 2.
  EXPECT_TRUE(ch.drain_completions(11).empty());
  const auto& done = ch.drain_completions(12);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line, 1u);
  EXPECT_TRUE(ch.idle());
}

TEST(DramTest, FirstAccessIsRowMissSecondIsHit) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ASSERT_TRUE(ch.enqueue(req(2, 0, 7, 0)));
  uint64_t cycle = 0;
  while (ch.serviced() < 2 && cycle < 100) ch.tick(cycle++);
  EXPECT_EQ(ch.row_misses(), 1u);
  EXPECT_EQ(ch.row_hits(), 1u);
}

TEST(DramTest, FrFcfsPrioritizesRowHitOverOlderRequest) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  // Open row 7 on bank 0.
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ch.tick(0);
  ASSERT_EQ(ch.serviced(), 1u);
  // Oldest = row 9 (miss); younger = row 7 (hit). FR-FCFS picks the hit.
  uint64_t t = 20;  // past bank busy
  ASSERT_TRUE(ch.enqueue(req(10, 0, 9, t)));
  ASSERT_TRUE(ch.enqueue(req(11, 0, 7, t)));
  ch.tick(t);
  EXPECT_EQ(ch.row_hits(), 1u);
  EXPECT_EQ(ch.row_misses(), 1u);  // only the initial cold access so far
}

TEST(DramTest, FcfsServesOldestEvenWhenYoungerWouldRowHit) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFcfs), 0);
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ch.tick(0);
  uint64_t t = 20;
  ASSERT_TRUE(ch.enqueue(req(10, 0, 9, t)));
  ASSERT_TRUE(ch.enqueue(req(11, 0, 7, t)));
  ch.tick(t);
  // Strict order: row 9 (a miss) goes first.
  EXPECT_EQ(ch.row_misses(), 2u);
  EXPECT_EQ(ch.row_hits(), 0u);
}

TEST(DramTest, QueueCapacityIsEnforced) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ch.enqueue(req(static_cast<uint64_t>(i), 0, 1, 0)));
  }
  EXPECT_TRUE(ch.full());
  EXPECT_FALSE(ch.enqueue(req(99, 0, 1, 0)));
}

TEST(DramTest, DataBusSerializesBackToBackIssues) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  // Two requests to different banks: banks are parallel but the bus is not.
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ASSERT_TRUE(ch.enqueue(req(2, 1, 7, 0)));
  ch.tick(0);
  EXPECT_EQ(ch.serviced(), 1u);
  ch.tick(1);  // bus still busy (data_bus_cycles = 2)
  EXPECT_EQ(ch.serviced(), 1u);
  ch.tick(2);
  EXPECT_EQ(ch.serviced(), 2u);
}

TEST(DramTest, BankBusySerializesSameBank) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ASSERT_TRUE(ch.enqueue(req(2, 0, 8, 0)));  // same bank, different row
  ch.tick(0);
  EXPECT_EQ(ch.serviced(), 1u);
  // Bank 0 busy until cycle 10; bus frees at 2 but the bank gates issue.
  for (uint64_t t = 1; t < 10; ++t) {
    ch.tick(t);
    EXPECT_EQ(ch.serviced(), 1u) << "issued too early at cycle " << t;
  }
  ch.tick(10);
  EXPECT_EQ(ch.serviced(), 2u);
}

TEST(DramTest, WritesCompleteAndAreFlaggedAsWrites) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  DramRequest w = req(5, 0, 3, 0);
  w.is_write = true;
  ASSERT_TRUE(ch.enqueue(w));
  ch.tick(0);
  const auto& done = ch.drain_completions(12);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].is_write);
}

// Drain order is deterministic by construction: ascending (ready_cycle,
// issue order), not an artifact of how earlier drains removed elements. A
// row hit issued after a row miss on another bank overtakes it in ready
// time and must drain first.
TEST(DramTest, DrainOrderIsReadyCycleThenIssueOrder) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  // Open row 7 on bank 0.
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ch.tick(0);
  ASSERT_EQ(ch.drain_completions(12).size(), 1u);
  // Bank 1 row miss issues at t (ready t+12); the bank-0 row hit issues at
  // t+2 once the bus frees (ready t+2+6 = t+8) and completes first.
  const uint64_t t = 20;
  ASSERT_TRUE(ch.enqueue(req(10, 1, 9, t)));
  ch.tick(t);
  ASSERT_TRUE(ch.enqueue(req(11, 0, 7, t)));
  ch.tick(t + 1);  // bus busy
  ch.tick(t + 2);
  ASSERT_EQ(ch.serviced(), 3u);
  const auto& done = ch.drain_completions(t + 12);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].line, 11u);  // ready t+8
  EXPECT_EQ(done[1].line, 10u);  // ready t+12
  EXPECT_LE(done[0].ready_cycle, done[1].ready_cycle);
}

// One batch holding completions that finished out of issue order, two of
// them with the same ready cycle: the drain sorts by ready cycle and keeps
// equal ready cycles in issue order.
TEST(DramTest, DrainSortsOutOfOrderBatchStablyOnEqualReadyCycles) {
  GpuConfig cfg = cfg_with(MemSchedPolicy::kFrFcfs);
  cfg.banks_per_channel = 4;
  DramChannel ch(cfg, 0);
  // Open row 7 on bank 0.
  ASSERT_TRUE(ch.enqueue(req(1, 0, 7, 0)));
  ch.tick(0);
  ASSERT_EQ(ch.drain_completions(12).size(), 1u);
  const auto issue = [&](uint64_t line, uint32_t bank, uint64_t row,
                         uint64_t cycle) {
    ASSERT_TRUE(ch.enqueue(req(line, bank, row, cycle)));
    ASSERT_TRUE(ch.tick(cycle));
  };
  issue(20, 1, 9, 20);  // row miss: ready 20 + 10 + 2 = 32
  issue(21, 0, 7, 22);  // row hit:  ready 22 + 4 + 2 = 28
  issue(22, 2, 5, 24);  // row miss: ready 24 + 10 + 2 = 36
  issue(23, 0, 7, 26);  // row hit:  ready 26 + 4 + 2 = 32, ties line 20
  const auto& done = ch.drain_completions(36);
  ASSERT_EQ(done.size(), 4u);
  const uint64_t lines[] = {21, 20, 23, 22};
  const uint64_t ready[] = {28, 32, 32, 36};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i].line, lines[i]) << "position " << i;
    EXPECT_EQ(done[i].ready_cycle, ready[i]) << "position " << i;
  }
  EXPECT_TRUE(ch.idle());
}

// Property: the completion sequence is independent of the drain cadence —
// collecting every cycle and collecting in coarse batches yield the same
// order. (The former swap-pop removal made batch order depend on removal
// history.)
TEST(DramTest, DrainOrderIndependentOfDrainCadence) {
  const GpuConfig cfg = cfg_with(MemSchedPolicy::kFrFcfs);
  DramChannel every(cfg, 0);
  DramChannel batched(cfg, 0);
  std::vector<DramCompletion> seq_every;
  std::vector<DramCompletion> seq_batched;
  uint64_t x = 777;
  for (uint64_t cycle = 0; cycle < 4000; ++cycle) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 3 == 0 && !every.full() && !batched.full()) {
      const DramRequest r = req((x >> 7) & 0xffff,
                                static_cast<uint32_t>((x >> 17) % 2),
                                (x >> 40) % 4, cycle);
      ASSERT_TRUE(every.enqueue(r));
      ASSERT_TRUE(batched.enqueue(r));
    }
    every.tick(cycle);
    batched.tick(cycle);
    for (const auto& c : every.drain_completions(cycle)) {
      seq_every.push_back(c);
    }
    if (cycle % 13 == 0) {
      for (const auto& c : batched.drain_completions(cycle)) {
        seq_batched.push_back(c);
      }
    }
  }
  for (uint64_t cycle = 4000; cycle < 4100; ++cycle) {
    every.tick(cycle);
    batched.tick(cycle);
    for (const auto& c : every.drain_completions(cycle)) {
      seq_every.push_back(c);
    }
    for (const auto& c : batched.drain_completions(cycle)) {
      seq_batched.push_back(c);
    }
  }
  ASSERT_EQ(seq_every.size(), seq_batched.size());
  for (size_t i = 0; i < seq_every.size(); ++i) {
    EXPECT_EQ(seq_every[i].line, seq_batched[i].line) << "position " << i;
    EXPECT_EQ(seq_every[i].ready_cycle, seq_batched[i].ready_cycle)
        << "position " << i;
  }
}

// Property: every enqueued request is serviced exactly once, regardless of
// arrival pattern, and queue-wait accounting is consistent.
TEST(DramTest, PropertyConservationUnderRandomTraffic) {
  DramChannel ch(cfg_with(MemSchedPolicy::kFrFcfs), 0);
  uint64_t enqueued = 0;
  uint64_t completed = 0;
  uint64_t x = 12345;
  for (uint64_t cycle = 0; cycle < 5000; ++cycle) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 3 == 0 && !ch.full()) {
      const uint32_t bank = static_cast<uint32_t>((x >> 17) % 2);
      const uint64_t row = (x >> 40) % 4;
      ASSERT_TRUE(ch.enqueue(req(enqueued, bank, row, cycle)));
      ++enqueued;
    }
    ch.tick(cycle);
    completed += ch.drain_completions(cycle).size();
  }
  for (uint64_t cycle = 5000; cycle < 6000; ++cycle) {
    ch.tick(cycle);
    completed += ch.drain_completions(cycle).size();
  }
  EXPECT_EQ(ch.serviced(), enqueued);
  EXPECT_EQ(completed, enqueued);
  EXPECT_EQ(ch.row_hits() + ch.row_misses(), enqueued);
  EXPECT_TRUE(ch.idle());
}

}  // namespace
}  // namespace gpumas::sim
