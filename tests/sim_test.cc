// Integration tests for the GPU simulator: conservation invariants,
// partitioning, multi-app isolation, and scheduler behaviour.
#include "sim/gpu.h"

#include <gtest/gtest.h>

#include <numeric>

#include "sim/kernel.h"

namespace gpumas::sim {
namespace {

GpuConfig small_gpu() {
  GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.num_channels = 2;
  cfg.l2.size_bytes = 64 * 1024;
  cfg.max_cycles = 5'000'000;
  return cfg;
}

KernelParams tiny_kernel(const std::string& name = "k") {
  KernelParams kp;
  kp.name = name;
  kp.num_blocks = 16;
  kp.warps_per_block = 4;
  kp.insns_per_warp = 200;
  kp.mem_ratio = 0.1;
  kp.footprint_bytes = 1 << 20;
  kp.divergence = 2;
  kp.ilp = 4;
  kp.mlp = 4;
  kp.seed = 7;
  return kp;
}

TEST(SimTest, RunsToCompletionAndCountsEveryInstruction) {
  Gpu gpu(small_gpu());
  const KernelParams kp = tiny_kernel();
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  EXPECT_GT(r.cycles, 0u);
  // Conservation: issued warp instructions == blocks * warps * insns.
  EXPECT_EQ(r.apps[0].warp_insns, kp.total_warp_insns());
  EXPECT_EQ(r.apps[0].blocks_completed, static_cast<uint64_t>(kp.num_blocks));
  EXPECT_EQ(r.apps[0].warps_completed,
            static_cast<uint64_t>(kp.total_warps()));
  EXPECT_TRUE(r.apps[0].done);
  EXPECT_GT(r.apps[0].finish_cycle, 0u);
  EXPECT_LE(r.apps[0].finish_cycle, r.cycles);
}

TEST(SimTest, DeterministicAcrossRuns) {
  const GpuConfig cfg = small_gpu();
  const KernelParams kp = tiny_kernel();
  Gpu a(cfg);
  a.launch(kp);
  const RunResult ra = a.run_to_completion();
  Gpu b(cfg);
  b.launch(kp);
  const RunResult rb = b.run_to_completion();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.apps[0].l1_hits, rb.apps[0].l1_hits);
  EXPECT_EQ(ra.apps[0].dram_transactions, rb.apps[0].dram_transactions);
}

TEST(SimTest, MemoryHierarchyAccountingIsConsistent) {
  Gpu gpu(small_gpu());
  const KernelParams kp = tiny_kernel();
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  const AppStats& s = r.apps[0];
  // Loads probe the L1; misses eventually fill: fills == L1 read misses
  // (after MSHR merging, every merged group gets one fill).
  EXPECT_GT(s.l1_accesses, 0u);
  EXPECT_LE(s.l1_hits, s.l1_accesses);
  // All L2 accesses are L1 misses (or stores); hits cannot exceed accesses.
  EXPECT_LE(s.l2_hits, s.l2_accesses);
  // DRAM transactions = L2 read misses + stores <= L2 accesses.
  EXPECT_LE(s.dram_transactions, s.l2_accesses);
}

TEST(SimTest, MoreSmsNeverSlowsDownAParallelKernel) {
  const GpuConfig cfg = small_gpu();
  KernelParams kp = tiny_kernel();
  kp.mem_ratio = 0.02;  // compute bound, scales with SMs
  uint64_t prev_cycles = ~0ull;
  for (int sms : {2, 4, 8}) {
    Gpu gpu(cfg);
    gpu.launch(kp);
    gpu.set_partition_counts({sms});
    const RunResult r = gpu.run_to_completion();
    EXPECT_LT(r.cycles, prev_cycles) << "at " << sms << " SMs";
    prev_cycles = r.cycles;
  }
}

TEST(SimTest, PartitionCountsReflectAssignment) {
  Gpu gpu(small_gpu());
  gpu.launch(tiny_kernel("a"));
  gpu.launch(tiny_kernel("b"));
  gpu.set_partition_counts({5, 3});
  const auto counts = gpu.partition_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(counts[1], 3);
}

TEST(SimTest, EvenPartitionSplitsAllSms) {
  Gpu gpu(small_gpu());
  gpu.launch(tiny_kernel("a"));
  gpu.launch(tiny_kernel("b"));
  gpu.launch(tiny_kernel("c"));
  gpu.set_even_partition();
  const auto counts = gpu.partition_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 8);
  for (int c : counts) EXPECT_GE(c, 2);
}

TEST(SimTest, TwoAppsBothComplete) {
  Gpu gpu(small_gpu());
  KernelParams a = tiny_kernel("a");
  KernelParams b = tiny_kernel("b");
  b.seed = 1234;
  gpu.launch(a);
  gpu.launch(b);
  gpu.set_even_partition();
  const RunResult r = gpu.run_to_completion();
  EXPECT_TRUE(r.apps[0].done);
  EXPECT_TRUE(r.apps[1].done);
  EXPECT_EQ(r.apps[0].warp_insns, a.total_warp_insns());
  EXPECT_EQ(r.apps[1].warp_insns, b.total_warp_insns());
}

TEST(SimTest, CoRunIsSlowerThanSoloOnHalfTheDevice) {
  // An app on N/2 SMs co-running with a memory hog must not be faster than
  // the same app alone on N/2 SMs (shared-resource interference only adds).
  const GpuConfig cfg = small_gpu();
  KernelParams victim = tiny_kernel("victim");
  victim.mem_ratio = 0.2;
  victim.footprint_bytes = 64 << 20;
  KernelParams hog = tiny_kernel("hog");
  hog.mem_ratio = 0.4;
  hog.divergence = 16;
  hog.footprint_bytes = 256 << 20;
  hog.pattern = AccessPattern::kRandom;
  hog.mlp = 32;

  Gpu solo(cfg);
  solo.launch(victim);
  solo.set_partition_counts({4});
  const uint64_t solo_cycles = solo.run_to_completion().apps[0].finish_cycle;

  Gpu pair(cfg);
  pair.launch(victim);
  pair.launch(hog);
  pair.set_even_partition();
  pair.run_to_completion();
  const uint64_t co_cycles = pair.stats()[0].finish_cycle;
  EXPECT_GE(co_cycles, solo_cycles);
}

TEST(SimTest, DrainBasedRepartitionMovesSms) {
  Gpu gpu(small_gpu());
  KernelParams a = tiny_kernel("a");
  a.num_blocks = 64;  // long-running so the move happens mid-flight
  KernelParams b = tiny_kernel("b");
  b.num_blocks = 64;
  gpu.launch(a);
  gpu.launch(b);
  gpu.set_partition_counts({4, 4});
  for (int i = 0; i < 50; ++i) gpu.tick();
  const int moved = gpu.repartition(0, 1, 2);
  EXPECT_EQ(moved, 2);
  // The pending flip is visible immediately in effective counts.
  const auto counts = gpu.partition_counts();
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 6);
  const RunResult r = gpu.run_to_completion();
  EXPECT_TRUE(r.apps[0].done);
  EXPECT_TRUE(r.apps[1].done);
  EXPECT_EQ(r.apps[0].warp_insns, a.total_warp_insns());
  EXPECT_EQ(r.apps[1].warp_insns, b.total_warp_insns());
}

TEST(SimTest, GtoAndLrrBothCompleteWithSameInstructionCount) {
  for (WarpSchedPolicy pol : {WarpSchedPolicy::kGto, WarpSchedPolicy::kLrr}) {
    GpuConfig cfg = small_gpu();
    cfg.warp_sched = pol;
    Gpu gpu(cfg);
    const KernelParams kp = tiny_kernel();
    gpu.launch(kp);
    const RunResult r = gpu.run_to_completion();
    EXPECT_EQ(r.apps[0].warp_insns, kp.total_warp_insns());
  }
}

TEST(SimTest, StoreOnlyTrafficReachesDramWithoutFills) {
  GpuConfig cfg = small_gpu();
  Gpu gpu(cfg);
  KernelParams kp = tiny_kernel();
  kp.store_ratio = 1.0;  // all memory instructions are stores
  kp.mem_ratio = 0.3;
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  EXPECT_GT(r.apps[0].dram_transactions, 0u);
  EXPECT_EQ(r.apps[0].l1_fills, 0u);  // stores never fill the L1
}

TEST(SimTest, ThroughputMatchesInsnOverCycles) {
  Gpu gpu(small_gpu());
  const KernelParams kp = tiny_kernel();
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  const double expected =
      static_cast<double>(kp.total_warp_insns() * 32) /
      static_cast<double>(r.cycles);
  EXPECT_DOUBLE_EQ(r.device_throughput(), expected);
}

TEST(SimTest, RejectsOversizedBlocks) {
  Gpu gpu(small_gpu());
  KernelParams kp = tiny_kernel();
  kp.warps_per_block = 64;  // exceeds 48 warp contexts
  EXPECT_THROW(gpu.launch(kp), std::logic_error);
}

TEST(SimTest, RejectsEmptyKernels) {
  Gpu gpu(small_gpu());
  KernelParams kp = tiny_kernel();
  kp.insns_per_warp = 0;
  EXPECT_THROW(gpu.launch(kp), std::logic_error);
}

// The warp scheduler keeps one bit per warp slot in 64-bit masks, so a core
// without warp contexts or with more than 64 is rejected when the device is
// built, naming the offending knob.
TEST(SimTest, RejectsWarpsPerSmOutsideOneToSixtyFour) {
  for (const int warps : {0, -1, 65, 128}) {
    GpuConfig cfg = small_gpu();
    cfg.max_warps_per_sm = warps;
    try {
      Gpu gpu(cfg);
      ADD_FAILURE() << "accepted max_warps_per_sm = " << warps;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("max_warps_per_sm"),
                std::string::npos)
          << e.what();
    }
  }
}

// The bound itself is usable: 64 warp contexts per core, every slot
// (including bit 63) occupied, under both warp schedulers.
TEST(SimTest, SixtyFourWarpsPerSmFillEverySlot) {
  for (const WarpSchedPolicy policy :
       {WarpSchedPolicy::kGto, WarpSchedPolicy::kLrr}) {
    GpuConfig cfg = small_gpu();
    cfg.max_warps_per_sm = 64;
    cfg.warp_sched = policy;
    KernelParams kp = tiny_kernel();
    kp.num_blocks = 64;
    kp.warps_per_block = 8;  // 8 blocks x 8 warps fill all 64 slots
    Gpu gpu(cfg);
    gpu.launch(kp);
    const RunResult r = gpu.run_to_completion();
    EXPECT_TRUE(r.apps[0].done);
    EXPECT_EQ(r.apps[0].warp_insns, kp.total_warp_insns());
  }
}

// Parameterized conservation sweep across divergence and mem ratios.
class SimConservationTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SimConservationTest, InstructionAndBlockConservation) {
  const auto [divergence, mem_ratio] = GetParam();
  Gpu gpu(small_gpu());
  KernelParams kp = tiny_kernel();
  kp.divergence = divergence;
  kp.mem_ratio = mem_ratio;
  kp.store_ratio = 0.25;
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  EXPECT_EQ(r.apps[0].warp_insns, kp.total_warp_insns());
  EXPECT_EQ(r.apps[0].blocks_completed, static_cast<uint64_t>(kp.num_blocks));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimConservationTest,
    ::testing::Combine(::testing::Values(1, 4, 32),
                       ::testing::Values(0.0, 0.05, 0.3)));

}  // namespace
}  // namespace gpumas::sim
