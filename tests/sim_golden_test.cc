// Golden simulator digests: each scenario's RunResult (total cycles, every
// AppStats counter and the sampled-mode estimates) is hashed and compared
// with a constant recorded from a known-good build. The fast-path identity
// suite (fastpath_test) compares two loops that share the warp scheduler,
// the LSU and the memory system, so a behaviour change inside that shared
// code passes it; these digests catch it. A mismatch means the
// simulated trajectory changed: if the change is intended, re-record the
// constant (the failure message prints it) and say why in the change log.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/text.h"
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

std::string digest(const RunResult& r) {
  std::string s = std::to_string(r.cycles);
  const AppStats zero;
  for (const AppStats& a : r.apps) {
    for_each_app_stat(a, zero, [&](const char* name, uint64_t x, uint64_t) {
      s += ' ';
      s += name;
      s += '=';
      s += std::to_string(x);
    });
  }
  char buf[96];
  for (const SampleEstimate& e : r.sample_estimates) {
    std::snprintf(buf, sizeof(buf), " est=%" PRIu64 "/%.17g/%.17g", e.windows,
                  e.mean_ipc, e.ci95);
    s += buf;
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a(s));
  return buf;
}

RunResult run(const GpuConfig& cfg, const std::vector<KernelParams>& kernels,
              const std::vector<int>& partition = {}) {
  Gpu gpu(cfg);
  for (const auto& kp : kernels) gpu.launch(kp);
  if (!partition.empty()) gpu.set_partition_counts(partition);
  const RunResult r = gpu.run_to_completion();
  for (const AppStats& a : r.apps) EXPECT_TRUE(a.done);
  return r;
}

// Three seeded co-runners with stores, divergence, tight mlp budgets and
// ALU dependency stalls: enough pressure on both ALU pipes, the LSU and the
// L1 MSHRs that every issue-eligibility branch is taken.
std::vector<KernelParams> small_corun() {
  Prng prng(20261017);
  std::vector<KernelParams> kernels;
  const AccessPattern pats[] = {AccessPattern::kStreaming,
                                AccessPattern::kRandom, AccessPattern::kTiled};
  for (int a = 0; a < 3; ++a) {
    KernelParams kp;
    kp.name = "g" + std::to_string(a);
    kp.num_blocks = 12 + static_cast<int>(prng.next_below(12));
    kp.warps_per_block = 2 + static_cast<int>(prng.next_below(5));
    kp.insns_per_warp = 300 + static_cast<int>(prng.next_below(300));
    kp.mem_ratio = 0.05 + 0.1 * a;
    kp.store_ratio = prng.next_double() * 0.4;
    kp.pattern = pats[a];
    kp.hot_fraction = prng.next_double();
    kp.hot_bytes = 16 * 1024 + prng.next_below(128 * 1024);
    kp.footprint_bytes = (4 + prng.next_below(60)) << 20;
    kp.divergence = 1 + static_cast<int>(prng.next_below(4));
    kp.burst_lines = 1 + static_cast<int>(prng.next_below(8));
    kp.ilp = 1 + static_cast<int>(prng.next_below(4));
    kp.mlp = 2 + static_cast<int>(prng.next_below(6));
    kp.seed = prng.next();
    kernels.push_back(kp);
  }
  return kernels;
}

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

struct Golden {
  const char* label = "";
  WarpSchedPolicy warp = WarpSchedPolicy::kGto;
  MemSchedPolicy mem = MemSchedPolicy::kFrFcfs;
  SimMode mode = SimMode::kDetailed;
  const char* digest = "";
};

TEST(SimGoldenTest, SmallDeviceScenariosMatchRecordedDigests) {
  const Golden cases[] = {
      {"gto frfcfs detailed", WarpSchedPolicy::kGto, MemSchedPolicy::kFrFcfs,
       SimMode::kDetailed, "acc49cd86fdb9c76"},
      {"lrr frfcfs detailed", WarpSchedPolicy::kLrr, MemSchedPolicy::kFrFcfs,
       SimMode::kDetailed, "dbbab3f5557565d5"},
      {"gto fcfs detailed", WarpSchedPolicy::kGto, MemSchedPolicy::kFcfs,
       SimMode::kDetailed, "51a35cdcd8f9bfd7"},
      {"lrr fcfs detailed", WarpSchedPolicy::kLrr, MemSchedPolicy::kFcfs,
       SimMode::kDetailed, "609410073df96128"},
      {"gto frfcfs sampled", WarpSchedPolicy::kGto, MemSchedPolicy::kFrFcfs,
       SimMode::kSampled, "535a2ecacbf50a73"},
      {"lrr fcfs sampled", WarpSchedPolicy::kLrr, MemSchedPolicy::kFcfs,
       SimMode::kSampled, "2bc067b33439eaf9"},
  };
  for (const Golden& g : cases) {
    GpuConfig cfg = small_gpu();
    cfg.warp_sched = g.warp;
    cfg.mem_sched = g.mem;
    cfg.sim_mode = g.mode;
    std::vector<KernelParams> kernels = small_corun();
    if (g.mode == SimMode::kSampled) {
      cfg.sample_detail_cycles = 300;
      cfg.sample_skip_cycles = 1500;
      kernels = {sampled_kernel(3), sampled_kernel(7)};
    }
    EXPECT_EQ(digest(run(cfg, kernels)), g.digest) << g.label;
  }
}

// One Table 4.1 suite pair on the default 60-SM device, uneven split, in
// both simulation modes.
TEST(SimGoldenTest, DefaultDeviceSuitePairMatchesRecordedDigests) {
  const std::vector<KernelParams> pair = {workloads::benchmark("HS"),
                                          workloads::benchmark("GUPS")};
  GpuConfig cfg;
  EXPECT_EQ(digest(run(cfg, pair, {40, 20})), "59a002b0ec826118")
      << "HS+GUPS 40/20 detailed";
  cfg.sim_mode = SimMode::kSampled;
  EXPECT_EQ(digest(run(cfg, pair, {40, 20})), "75b315cbd4fb3b9b")
      << "HS+GUPS 40/20 sampled";
}

}  // namespace
}  // namespace gpumas::sim
