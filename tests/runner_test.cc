// Integration tests for the queue runner across all policies.
#include "sched/runner.h"

#include <gtest/gtest.h>

#include "exp/result_io.h"

#include <sstream>
#include <thread>

namespace gpumas::sched {
namespace {

using profile::AppClass;
using profile::AppProfile;

sim::GpuConfig small_gpu() {
  sim::GpuConfig cfg;
  cfg.num_sms = 12;
  cfg.num_channels = 2;
  cfg.l2.size_bytes = 64 * 1024;
  return cfg;
}

// Small grids (10 blocks on a 12-SM device) so co-running genuinely
// reclaims idle SMs, as in the paper's motivation (Fig 1.2).
sim::KernelParams kernel(const std::string& name, double mem_ratio,
                         uint64_t seed, int blocks = 10) {
  sim::KernelParams kp;
  kp.name = name;
  kp.num_blocks = blocks;
  kp.warps_per_block = 4;
  kp.insns_per_warp = 250;
  kp.mem_ratio = mem_ratio;
  kp.footprint_bytes = 8 << 20;
  kp.divergence = 2;
  kp.seed = seed;
  return kp;
}

struct Fixture {
  sim::GpuConfig cfg = small_gpu();
  std::vector<sim::KernelParams> kernels;
  std::vector<AppProfile> profiles;
  interference::SlowdownModel model;
  std::vector<Job> queue;

  Fixture() {
    kernels = {kernel("mem", 0.3, 1), kernel("cpu", 0.02, 2),
               kernel("mid", 0.1, 3), kernel("mix", 0.05, 4)};
    profile::Profiler profiler(cfg);
    for (const auto& k : kernels) profiles.push_back(profiler.profile(k));
    // Assign one app per class so ILP grouping is exercised.
    profiles[0].cls = AppClass::kM;
    profiles[1].cls = AppClass::kA;
    profiles[2].cls = AppClass::kC;
    profiles[3].cls = AppClass::kMC;
    model = interference::SlowdownModel::measure_pairwise(cfg, kernels,
                                                          profiles);
    for (size_t i = 0; i < kernels.size(); ++i) {
      queue.push_back(Job{kernels[i], profiles[i].cls, static_cast<int>(i)});
    }
  }
};

TEST(RunnerTest, SerialRunsEveryJobAlone) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const RunReport report = runner.run(f.queue, Policy::kSerial, 2);
  ASSERT_EQ(report.groups.size(), 4u);
  for (size_t i = 0; i < report.groups.size(); ++i) {
    EXPECT_EQ(report.groups[i].names.size(), 1u);
    // Alone on the full device: slowdown 1.0 (identical to the profile run).
    EXPECT_NEAR(report.groups[i].slowdowns[0], 1.0, 1e-9);
  }
  EXPECT_GT(report.device_throughput(), 0.0);
}

TEST(RunnerTest, TotalInsnsIndependentOfPolicy) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const uint64_t serial =
      runner.run(f.queue, Policy::kSerial, 2).total_thread_insns;
  for (Policy p : {Policy::kEven, Policy::kProfileBased, Policy::kIlp,
                   Policy::kIlpSmra}) {
    EXPECT_EQ(runner.run(f.queue, p, 2).total_thread_insns, serial)
        << policy_name(p);
  }
}

TEST(RunnerTest, ConcurrentPoliciesBeatSerialOnThroughputHere) {
  // With four small complementary apps, any co-run policy should beat
  // one-at-a-time on this device.
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const double serial =
      runner.run(f.queue, Policy::kSerial, 2).device_throughput();
  const double even =
      runner.run(f.queue, Policy::kEven, 2).device_throughput();
  EXPECT_GT(even, serial);
}

TEST(RunnerTest, GroupReportsAreInternallyConsistent) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const RunReport report = runner.run(f.queue, Policy::kEven, 2);
  uint64_t cycles = 0;
  for (const auto& g : report.groups) {
    cycles += g.cycles;
    for (size_t i = 0; i < g.names.size(); ++i) {
      EXPECT_LE(g.app_cycles[i], g.cycles);
      EXPECT_GT(g.slowdowns[i], 0.9);
    }
    EXPECT_EQ(g.cycles,
              *std::max_element(g.app_cycles.begin(), g.app_cycles.end()));
  }
  EXPECT_EQ(report.total_cycles, cycles);
}

TEST(RunnerTest, ProfileBasedPartitionSumsToDevice) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const std::vector<Job> group = {f.queue[0], f.queue[1]};
  const auto split = runner.profile_based_partition(group);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0] + split[1], f.cfg.num_sms);
  EXPECT_GE(split[0], 1);
  EXPECT_GE(split[1], 1);
}

TEST(RunnerTest, ProfileBasedThreeWaySplit) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const std::vector<Job> group = {f.queue[0], f.queue[1], f.queue[2]};
  const auto split = runner.profile_based_partition(group);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0] + split[1] + split[2], f.cfg.num_sms);
}

TEST(RunnerTest, PerAppIpcCoversEveryBenchmark) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const RunReport report = runner.run(f.queue, Policy::kEven, 2);
  const auto ipc = report.per_app_ipc();
  EXPECT_EQ(ipc.size(), 4u);
  for (const auto& [name, value] : ipc) EXPECT_GT(value, 0.0) << name;
}

// Regression for the pre-ProfileCache design, where ProfileBased mutated a
// `mutable` member map inside const run(): a shared runner driven from
// several threads must be race-free and agree with the serial result.
TEST(RunnerTest, SharedRunnerIsSafeAcrossThreads) {
  Fixture f;
  profile::ProfileCache cache;
  const QueueRunner runner(f.cfg, f.profiles, f.model, &cache);
  // ProfileBased is the policy that lazily measures scalability curves —
  // exactly the path that used to write to runner-internal state.
  const std::string expected =
      [&] {
        std::ostringstream os;
        const RunReport r = runner.run(f.queue, Policy::kProfileBased, 2);
        os << r.total_cycles << ":" << r.total_thread_insns;
        return os.str();
      }();

  constexpr int kThreads = 4;
  std::vector<std::string> got(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&runner, &f, &got, t] {
        std::ostringstream os;
        const RunReport r = runner.run(f.queue, Policy::kProfileBased, 2);
        os << r.total_cycles << ":" << r.total_thread_insns;
        got[static_cast<size_t>(t)] = os.str();
      });
    }
    for (auto& th : pool) th.join();
  }
  for (const auto& g : got) EXPECT_EQ(g, expected);
  // The scalability curves were measured once, in the shared cache, not
  // once per thread.
  const uint64_t misses_after = cache.misses();
  runner.run(f.queue, Policy::kProfileBased, 2);
  EXPECT_EQ(cache.misses(), misses_after);
}

TEST(RunnerTest, PartitionOverridePinsTheSplit) {
  Fixture f;
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const std::vector<Job> pair = {f.queue[0], f.queue[1]};
  const RunReport even = runner.run(pair, Policy::kEven, 2);
  const RunReport skewed = runner.run(pair, Policy::kEven, 2, {}, {10, 2});
  // Same work either way, but the lopsided split changes the timeline.
  EXPECT_EQ(even.total_thread_insns, skewed.total_thread_insns);
  EXPECT_NE(even.total_cycles, skewed.total_cycles);
}

// Serialized run shape used for exact re-run comparisons.
std::string serialize(const RunReport& r) {
  std::ostringstream os;
  os << r.total_cycles << ":" << r.total_thread_insns;
  for (const auto& g : r.groups) {
    os << " " << g.label() << "=" << g.cycles << "/" << g.serial_cycles;
    for (size_t i = 0; i < g.names.size(); ++i) {
      os << "," << g.app_cycles[i] << "+" << g.app_thread_insns[i] << "@"
         << g.slowdowns[i];
    }
  }
  return os.str();
}

TEST(RunnerTest, RepeatedRunsSimulateZeroGroups) {
  Fixture f;
  profile::ProfileCache cache;
  const QueueRunner runner(f.cfg, f.profiles, f.model, &cache);
  const RunReport first = runner.run(f.queue, Policy::kEven, 2);
  const uint64_t misses_after_first = cache.group_misses();
  EXPECT_GT(misses_after_first, 0u);

  // Same queue, same policy: every group is a cache hit and the report is
  // byte-identical (slowdowns recomputed, not replayed).
  const RunReport second = runner.run(f.queue, Policy::kEven, 2);
  EXPECT_EQ(cache.group_misses(), misses_after_first);
  EXPECT_EQ(serialize(first), serialize(second));

  // ILP picks different pairings here, so it may simulate new groups — but
  // any group it shares with Even (same members, same even split) hits.
  const uint64_t hits_before = cache.group_hits();
  runner.run(f.queue, Policy::kSerial, 2);
  const uint64_t serial_misses = cache.group_misses() - misses_after_first;
  EXPECT_EQ(serial_misses, f.queue.size())
      << "each job's solo group simulates once";
  runner.run(f.queue, Policy::kSerial, 2);
  EXPECT_EQ(cache.group_misses(), misses_after_first + serial_misses);
  EXPECT_GT(cache.group_hits(), hits_before);
}

// run() fans a queue's groups (and ProfileBased's curve points) out over
// the runner's width. Width 1 is the serial reference; width 4 on a fresh
// cache must render every policy's report byte for byte the same and
// measure exactly the same artifacts.
TEST(RunnerTest, ReportsAndStoreCountersAreWidthInvariant) {
  Fixture f;
  struct Outcome {
    std::vector<std::string> renderings;
    uint64_t misses = 0;
    uint64_t scalability_misses = 0;
    uint64_t group_misses = 0;
    uint64_t group_hits = 0;
  };
  const auto run_all = [&f](int threads) {
    profile::ProfileCache cache;
    const QueueRunner runner(f.cfg, f.profiles, f.model, &cache, threads);
    Outcome out;
    for (Policy p : {Policy::kSerial, Policy::kEven, Policy::kProfileBased,
                     Policy::kIlp, Policy::kIlpSmra}) {
      out.renderings.push_back(
          exp::result_io::to_string(runner.run(f.queue, p, 2)));
    }
    out.misses = cache.misses();
    out.scalability_misses = cache.scalability_misses();
    out.group_misses = cache.group_misses();
    out.group_hits = cache.group_hits();
    return out;
  };
  const Outcome serial = run_all(1);
  const Outcome wide = run_all(4);
  EXPECT_EQ(wide.renderings, serial.renderings);
  EXPECT_GT(serial.scalability_misses, 0u) << "ProfileBased fetched curves";
  EXPECT_EQ(wide.misses, serial.misses);
  EXPECT_EQ(wide.scalability_misses, serial.scalability_misses);
  EXPECT_EQ(wide.group_misses, serial.group_misses);
  EXPECT_EQ(wide.group_hits, serial.group_hits);
}

TEST(RunnerTest, ThreeAppGroupsRun) {
  Fixture f;
  // Six jobs so nc = 3 divides evenly: duplicate the queue.
  std::vector<Job> queue6 = f.queue;
  queue6.push_back(Job{f.kernels[1], AppClass::kA, 4});
  queue6.push_back(Job{f.kernels[3], AppClass::kMC, 5});
  QueueRunner runner(f.cfg, f.profiles, f.model);
  const RunReport report = runner.run(queue6, Policy::kIlp, 3);
  ASSERT_EQ(report.groups.size(), 2u);
  for (const auto& g : report.groups) EXPECT_EQ(g.names.size(), 3u);
}

}  // namespace
}  // namespace gpumas::sched
