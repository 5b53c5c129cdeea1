// Golden determinism suite for the fast-forwarding simulator core: with
// skip_idle_cycles on, the event-horizon fast path (skipped idle SMs/slices
// and whole-cycle jumps) must reproduce the reference loop — which ticks
// every component every cycle — bit for bit: same total cycles and every
// AppStats counter identical.
#include <gtest/gtest.h>

#include "common/prng.h"
#include "sched/smra.h"
#include "sim/gpu.h"
#include "workloads/suite.h"

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

RunResult run(GpuConfig cfg, const std::vector<KernelParams>& kernels,
              bool skip, const std::vector<int>& partition = {}) {
  cfg.skip_idle_cycles = skip;
  Gpu gpu(cfg);
  for (const auto& kp : kernels) gpu.launch(kp);
  if (!partition.empty()) gpu.set_partition_counts(partition);
  return gpu.run_to_completion();
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  ASSERT_EQ(a.apps.size(), b.apps.size()) << label;
  for (size_t i = 0; i < a.apps.size(); ++i) {
    for_each_app_stat(a.apps[i], b.apps[i],
                      [&](const char* name, uint64_t x, uint64_t y) {
                        EXPECT_EQ(x, y) << label << " app " << i << " "
                                        << name;
                      });
  }
}

// The quickstart example's two-app scenario (compute class A + memory
// class M) on the full default device, under both an uneven pinned split
// and the even split.
TEST(FastPathTest, TwoAppExampleIsByteIdentical) {
  const std::vector<KernelParams> pair = {workloads::benchmark("HS"),
                                          workloads::benchmark("GUPS")};
  GpuConfig cfg;
  expect_identical(run(cfg, pair, true, {40, 20}),
                   run(cfg, pair, false, {40, 20}), "HS+GUPS 40/20");
  expect_identical(run(cfg, pair, true), run(cfg, pair, false),
                   "HS+GUPS even");
}

// A three-app co-run (the fig4_9+ scenarios' shape) on the default device.
TEST(FastPathTest, ThreeAppExampleIsByteIdentical) {
  const std::vector<KernelParams> triple = {workloads::benchmark("HS"),
                                            workloads::benchmark("GUPS"),
                                            workloads::benchmark("BLK")};
  GpuConfig cfg;
  expect_identical(run(cfg, triple, true), run(cfg, triple, false),
                   "HS+GUPS+BLK even");
}

KernelParams random_kernel(Prng& prng, const std::string& name) {
  KernelParams kp;
  kp.name = name;
  kp.num_blocks = 4 + static_cast<int>(prng.next_below(24));
  kp.warps_per_block = 1 + static_cast<int>(prng.next_below(6));
  kp.insns_per_warp = 100 + static_cast<int>(prng.next_below(300));
  kp.mem_ratio = prng.next_double() * 0.3;
  kp.store_ratio = prng.next_double() * 0.4;
  const AccessPattern pats[] = {AccessPattern::kStreaming,
                                AccessPattern::kRandom, AccessPattern::kTiled};
  kp.pattern = pats[prng.next_below(3)];
  kp.hot_fraction = prng.next_double();
  kp.hot_bytes = 16 * 1024 + prng.next_below(128 * 1024);
  kp.footprint_bytes = (1 + prng.next_below(64)) << 20;
  kp.divergence = 1 + static_cast<int>(prng.next_below(8));
  kp.burst_lines = 1 + static_cast<int>(prng.next_below(8));
  kp.ilp = 1 + static_cast<int>(prng.next_below(8));
  kp.mlp = 1 + static_cast<int>(prng.next_below(8));
  kp.seed = prng.next();
  kp.l2_streaming_bypass = prng.next_below(4) == 0;
  return kp;
}

// Property: random co-runs across warp/memory scheduler policies stay
// byte-identical between the fast path and the reference loop.
TEST(FastPathTest, RandomCoRunsAreByteIdentical) {
  Prng prng(20260727);
  for (int trial = 0; trial < 10; ++trial) {
    GpuConfig cfg = small_gpu();
    cfg.warp_sched =
        trial % 2 == 0 ? WarpSchedPolicy::kGto : WarpSchedPolicy::kLrr;
    cfg.mem_sched =
        trial % 3 == 0 ? MemSchedPolicy::kFcfs : MemSchedPolicy::kFrFcfs;
    const int napps = 2 + static_cast<int>(prng.next_below(2));
    std::vector<KernelParams> kernels;
    for (int a = 0; a < napps; ++a) {
      kernels.push_back(random_kernel(prng, "k" + std::to_string(a)));
    }
    expect_identical(run(cfg, kernels, true), run(cfg, kernels, false),
                     "trial " + std::to_string(trial));
  }
}

// The gpu_invariants conservation properties must also hold with skipping
// explicitly off (the default-config invariants run exercises skip-on).
TEST(FastPathTest, ConservationHoldsWithSkippingOff) {
  Prng prng(7);
  GpuConfig cfg = small_gpu();
  cfg.skip_idle_cycles = false;
  for (int trial = 0; trial < 3; ++trial) {
    Gpu gpu(cfg);
    std::vector<KernelParams> kernels;
    for (int a = 0; a < 2; ++a) {
      kernels.push_back(random_kernel(prng, "k" + std::to_string(a)));
      gpu.launch(kernels.back());
    }
    gpu.set_even_partition();
    const RunResult r = gpu.run_to_completion();
    for (int a = 0; a < 2; ++a) {
      EXPECT_EQ(r.apps[static_cast<size_t>(a)].warp_insns,
                kernels[static_cast<size_t>(a)].total_warp_insns());
      EXPECT_TRUE(r.apps[static_cast<size_t>(a)].done);
    }
  }
}

// Idle-cycle accounting: ticked + skipped cycles account for the whole
// clock, and a memory-latency-bound kernel (tiny mlp, random access over a
// large footprint) actually fast-forwards over stall spans.
TEST(FastPathTest, SkippingActuallySkipsOnLatencyBoundRuns) {
  GpuConfig cfg = small_gpu();
  KernelParams kp;
  kp.name = "lat";
  kp.num_blocks = 4;
  kp.warps_per_block = 1;
  kp.insns_per_warp = 400;
  kp.mem_ratio = 0.6;
  kp.pattern = AccessPattern::kRandom;
  kp.footprint_bytes = 256ull << 20;
  kp.divergence = 1;
  kp.burst_lines = 1;
  kp.ilp = 1;
  kp.mlp = 1;
  kp.seed = 99;
  Gpu gpu(cfg);
  gpu.launch(kp);
  const RunResult r = gpu.run_to_completion();
  EXPECT_EQ(gpu.ticked_cycles() + gpu.skipped_cycles(), r.cycles);
  EXPECT_GT(gpu.skipped_cycles(), 0u);

  GpuConfig noskip = cfg;
  noskip.skip_idle_cycles = false;
  Gpu ref(noskip);
  ref.launch(kp);
  const RunResult rr = ref.run_to_completion();
  EXPECT_EQ(ref.skipped_cycles(), 0u);
  EXPECT_EQ(ref.ticked_cycles(), rr.cycles);
  expect_identical(r, rr, "latency-bound solo");
}

// SMRA drives the device through per-cycle observation (windowed stats,
// drain-based repartitioning); with the controller's skip barrier in place
// the whole trajectory — including the number of adjustments — must be
// byte-identical between fast path and reference loop.
TEST(FastPathTest, SmraControlLoopIsByteIdentical) {
  auto kernels = [] {
    KernelParams hog;
    hog.name = "hog";
    hog.num_blocks = 24;
    hog.warps_per_block = 4;
    hog.insns_per_warp = 300;
    hog.mem_ratio = 0.4;
    hog.pattern = AccessPattern::kStreaming;
    hog.footprint_bytes = 128ull << 20;
    hog.mlp = 8;
    hog.seed = 5;
    KernelParams worker = hog;
    worker.name = "worker";
    worker.mem_ratio = 0.03;
    worker.seed = 17;
    return std::vector<KernelParams>{hog, worker};
  }();

  sched::SmraParams params;
  params.tc = 500;
  params.ipc_thr = 40;
  params.bw_thr = 0.5;
  params.nr = 1;
  params.rmin = 2;

  RunResult results[2];
  uint64_t adjustments[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    GpuConfig cfg = small_gpu();
    cfg.skip_idle_cycles = mode == 0;
    Gpu gpu(cfg);
    for (const auto& kp : kernels) gpu.launch(kp);
    gpu.set_even_partition();
    sched::SmraController controller(params, cfg);
    while (!gpu.done()) {
      ASSERT_LT(gpu.cycle(), cfg.max_cycles);
      gpu.set_skip_barrier(controller.next_eval());
      gpu.tick();
      controller.on_tick(gpu);
    }
    RunResult r;
    r.cycles = gpu.cycle();
    r.apps = gpu.stats();
    r.warp_size = cfg.warp_size;
    results[mode] = r;
    adjustments[mode] = controller.adjustments();
  }
  expect_identical(results[0], results[1], "smra loop");
  EXPECT_EQ(adjustments[0], adjustments[1]);
}

// The L2 admission memo: a ready head refused for lack of MSHR or
// miss-queue room is probed once, then skipped until room frees, it is
// popped, or (a load) an MSHR entry for its line appears. Four L2 MSHRs
// per slice keep the slices saturated. The streaming loader fills the
// MSHRs, the storer's write-throughs wait on the miss queue, and the
// sharer's SMs share a tiny footprint, so a blocked head later merges onto
// an entry another SM emplaced; the storer's and sharer's hits pass
// blocked heads. The reference loop re-probes every head every cycle, so
// it is the oracle.
TEST(FastPathTest, L2AdmissionMemoIsByteIdentical) {
  GpuConfig cfg = small_gpu();
  cfg.l2.mshr_entries = 4;
  KernelParams loader;
  loader.name = "loader";
  loader.num_blocks = 16;
  loader.warps_per_block = 4;
  loader.insns_per_warp = 300;
  loader.mem_ratio = 0.5;
  loader.pattern = AccessPattern::kStreaming;
  loader.footprint_bytes = 64ull << 20;
  loader.mlp = 8;
  loader.seed = 21;
  // Loads that mostly hit a hot region leave the storer's LSUs free to
  // flood the miss queue with write-throughs.
  KernelParams storer = loader;
  storer.name = "storer";
  storer.mem_ratio = 0.8;
  storer.store_ratio = 0.3;
  storer.pattern = AccessPattern::kTiled;
  storer.hot_fraction = 1.0;
  storer.hot_bytes = 4 * 1024;
  storer.divergence = 8;
  storer.seed = 22;
  KernelParams sharer = loader;
  sharer.name = "sharer";
  sharer.mem_ratio = 0.4;
  sharer.pattern = AccessPattern::kRandom;
  sharer.footprint_bytes = 16 * 1024;
  sharer.divergence = 2;
  sharer.seed = 23;
  const std::vector<KernelParams> kernels = {loader, storer, sharer};

  RunResult results[2];
  uint64_t probes[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    GpuConfig c = cfg;
    c.skip_idle_cycles = mode == 0;
    Gpu gpu(c);
    for (const auto& kp : kernels) gpu.launch(kp);
    results[mode] = gpu.run_to_completion();
    probes[mode] = gpu.l2_head_probes();
  }
  expect_identical(results[0], results[1], "L2 admission memo");
  EXPECT_LE(probes[0] * 4, probes[1])
      << "skip-side probes " << probes[0] << " vs reference " << probes[1];
}

// --- sampled mode (SimMode::kSampled) ---

KernelParams sampled_kernel(uint64_t seed) {
  KernelParams kp;
  kp.name = "sampled";
  kp.num_blocks = 16;
  kp.warps_per_block = 4;
  kp.insns_per_warp = 2000;
  kp.mem_ratio = 0.2;
  kp.footprint_bytes = 8ull << 20;
  kp.seed = seed;
  return kp;
}

// An SMRA-style observer that reads the device at fixed cycle boundaries:
// a sampled-mode jump must clip to the skip barrier exactly like the
// idle-span fast-forward does, or the controller would evaluate windows
// it never saw.
TEST(FastPathTest, SampledModeHonorsSkipBarrier) {
  GpuConfig cfg = small_gpu();
  cfg.sim_mode = SimMode::kSampled;
  cfg.sample_detail_cycles = 300;
  cfg.sample_skip_cycles = 1500;
  Gpu gpu(cfg);
  gpu.launch(sampled_kernel(3));
  gpu.launch(sampled_kernel(7));
  gpu.set_even_partition();
  constexpr uint64_t kStep = 1000;
  uint64_t barrier = kStep;
  gpu.set_skip_barrier(barrier);
  while (!gpu.done()) {
    gpu.tick();
    ASSERT_LE(gpu.cycle(), barrier) << "jump carried the clock past the "
                                       "observation barrier";
    if (gpu.cycle() == barrier) {
      barrier += kStep;
      gpu.set_skip_barrier(barrier);
    }
  }
  EXPECT_GT(gpu.sample_windows(), 0u);
  EXPECT_GT(gpu.skipped_cycles(), 0u);
}

// Sampled mode composes with the fast path: the idle-span skips inside
// each detailed window, and the per-core tick schedule across a jump,
// must leave the sampled trajectory exactly as the reference loop runs it.
// Covers suite pairs and a triple on the default device with uneven splits.
TEST(FastPathTest, SampledSuiteCoRunsAreByteIdentical) {
  struct Case {
    std::vector<const char*> apps;
    std::vector<int> split;
  };
  const Case cases[] = {{{"HS", "GUPS"}, {40, 20}},
                        {{"BLK", "LUD"}, {30, 30}},
                        {{"3DS", "LUD", "BP"}, {30, 20, 10}}};
  GpuConfig cfg;
  cfg.sim_mode = SimMode::kSampled;
  for (const Case& c : cases) {
    std::vector<KernelParams> kernels;
    std::string label = "sampled";
    for (const char* name : c.apps) {
      kernels.push_back(workloads::benchmark(name));
      label += std::string(" ") + name;
    }
    expect_identical(run(cfg, kernels, true, c.split),
                     run(cfg, kernels, false, c.split), label);
  }
}

// Analytic crediting may move instructions between windows, but never
// invents or loses them: every warp still executes (or is credited)
// exactly its program, completion is never synthesized, and the
// ticked/skipped split accounts for every cycle.
TEST(FastPathTest, SampledRunConservesWork) {
  GpuConfig cfg = small_gpu();
  cfg.sim_mode = SimMode::kSampled;
  cfg.sample_detail_cycles = 300;
  cfg.sample_skip_cycles = 1500;
  Gpu gpu(cfg);
  const KernelParams a = sampled_kernel(3);
  const KernelParams b = sampled_kernel(7);
  gpu.launch(a);
  gpu.launch(b);
  const RunResult res = gpu.run_to_completion();
  ASSERT_EQ(res.apps.size(), 2u);
  EXPECT_TRUE(res.apps[0].done);
  EXPECT_TRUE(res.apps[1].done);
  EXPECT_EQ(res.apps[0].warp_insns, a.total_warp_insns());
  EXPECT_EQ(res.apps[1].warp_insns, b.total_warp_insns());
  EXPECT_EQ(gpu.ticked_cycles() + gpu.skipped_cycles(), res.cycles);
  EXPECT_GT(gpu.skipped_cycles(), 0u);
  EXPECT_GT(gpu.sample_windows(), 0u);
  ASSERT_EQ(res.sample_estimates.size(), 2u);
  for (const SampleEstimate& e : res.sample_estimates) {
    EXPECT_GT(e.windows, 0u);
    EXPECT_GT(e.mean_ipc, 0.0);
    EXPECT_GE(e.ci95, 0.0);
  }
}

}  // namespace
}  // namespace gpumas::sim
