// Tests for the experiment engine: scenario resolution, repetitions, the
// shared-environment memoization, and — the load-bearing property — that a
// multi-threaded batch reproduces the single-threaded reports exactly.
#include "exp/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/result_io.h"

namespace gpumas::exp {
namespace {

using profile::AppClass;

sim::GpuConfig small_gpu() {
  sim::GpuConfig cfg;
  cfg.num_sms = 12;
  cfg.num_channels = 2;
  cfg.l2.size_bytes = 64 * 1024;
  return cfg;
}

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

// A 4-app stand-in suite so tests never pay for the 14-benchmark suite.
std::vector<sim::KernelParams> tiny_suite() {
  return {kernel("mem", 0.3, 1), kernel("cpu", 0.02, 2),
          kernel("mid", 0.1, 3), kernel("mix", 0.05, 4)};
}

// Thresholds scaled to the 12-SM/2-channel device so the tiny suite spreads
// over all four classes (mem -> M, mid -> MC, mix -> C, cpu -> A), which
// distribution queues require.
profile::ClassifierThresholds tiny_thresholds() {
  profile::ClassifierThresholds t;
  t.alpha = 36.0;
  t.beta = 32.0;
  t.gamma = 25.0;
  t.epsilon = 150.0;
  return t;
}

// Canonical rendering of a report, used for exact comparisons.
std::string serialize(const sched::RunReport& r) {
  std::ostringstream os;
  os << sched::policy_name(r.policy) << " " << r.total_cycles << " "
     << r.total_thread_insns << "\n";
  for (const auto& g : r.groups) {
    os << g.label() << " " << g.cycles << " " << g.serial_cycles << " "
       << g.smra_adjustments << " " << g.smra_reverts;
    for (size_t i = 0; i < g.names.size(); ++i) {
      os << " " << g.app_cycles[i] << "/" << g.app_thread_insns[i];
    }
    os << "\n";
  }
  return os.str();
}

std::string serialize(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  for (const auto& r : results) {
    os << "== " << r.name << "\n";
    for (const auto& rep : r.reps) os << serialize(rep);
  }
  return os.str();
}

std::vector<ScenarioSpec> mixed_batch() {
  const sim::GpuConfig cfg = small_gpu();
  std::vector<ScenarioSpec> batch;
  for (const auto policy :
       {sched::Policy::kSerial, sched::Policy::kEven, sched::Policy::kIlp,
        sched::Policy::kIlpSmra}) {
    ScenarioSpec spec;
    spec.name = std::string("suite/") + sched::policy_name(policy);
    spec.config = cfg;
    spec.thresholds = tiny_thresholds();
    spec.queue = QueueSpec::Suite();
    spec.policy = policy;
    spec.nc = 2;
    batch.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "dist/even";
    spec.config = cfg;
    spec.thresholds = tiny_thresholds();
    spec.queue =
        QueueSpec::Distribution(sched::QueueDistribution::kEqual, 4, 11);
    spec.policy = sched::Policy::kEven;
    spec.nc = 2;
    spec.repetitions = 2;
    batch.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "explicit/custom";
    spec.config = cfg;
    spec.thresholds = tiny_thresholds();
    spec.queue = QueueSpec::Explicit(
        {kernel("custom", 0.15, 42), kernel("cpu", 0.02, 2)});
    spec.policy = sched::Policy::kEven;
    spec.nc = 2;
    batch.push_back(spec);
  }
  return batch;
}

TEST(ExperimentTest, ResultsFollowDeclarationOrder) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 1, tiny_suite());
  const auto batch = mixed_batch();
  const auto results = engine.run(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i].name, batch[i].name);
    EXPECT_FALSE(results[i].reps.empty());
    EXPECT_GT(results[i].report().device_throughput(), 0.0);
  }
}

TEST(ExperimentTest, MultiThreadedBatchIsByteIdenticalToSerial) {
  const auto batch = mixed_batch();

  profile::ProfileCache cache1;
  ExperimentRunner serial_engine(cache1, 1, tiny_suite());
  const std::string serial = serialize(serial_engine.run(batch));

  profile::ProfileCache cache4;
  ExperimentRunner parallel_engine(cache4, 4, tiny_suite());
  const std::string parallel = serialize(parallel_engine.run(batch));

  EXPECT_EQ(serial, parallel);

  // And again on the warm cache: reports must not change when every
  // profile lookup is a hit.
  const std::string warm = serialize(parallel_engine.run(batch));
  EXPECT_EQ(serial, warm);
}

TEST(ExperimentTest, RepetitionsRedrawDistributionQueues) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  ScenarioSpec spec;
  spec.name = "reps";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  spec.queue = QueueSpec::Distribution(sched::QueueDistribution::kEqual, 4, 5);
  spec.policy = sched::Policy::kEven;
  spec.nc = 2;
  spec.repetitions = 3;
  const auto result = engine.run_one(spec);
  ASSERT_EQ(result.reps.size(), 3u);
  EXPECT_GT(result.mean_device_throughput(), 0.0);
}

TEST(ExperimentTest, SuiteExclusionShrinksTheQueue) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 1, tiny_suite());
  ScenarioSpec spec;
  spec.name = "excl";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  spec.queue = QueueSpec::Suite({"mem", "mid"});
  spec.policy = sched::Policy::kSerial;
  spec.nc = 2;
  const auto result = engine.run_one(spec);
  ASSERT_EQ(result.report().groups.size(), 2u);  // 4-app suite minus 2
  for (const auto& g : result.report().groups) {
    EXPECT_NE(g.names[0], "mem");
    EXPECT_NE(g.names[0], "mid");
  }
}

TEST(ExperimentTest, FixedPartitionChangesTheOutcome) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  ScenarioSpec even;
  even.name = "even";
  even.config = small_gpu();
  even.thresholds = tiny_thresholds();
  even.queue = QueueSpec::Explicit({kernel("cpu", 0.02, 2),
                                    kernel("mem", 0.3, 1)});
  even.policy = sched::Policy::kEven;
  even.nc = 2;

  ScenarioSpec skewed = even;
  skewed.name = "skewed";
  skewed.fixed_partition = {10, 2};

  const auto results = engine.run({even, skewed});
  EXPECT_NE(serialize(results[0].report()), serialize(results[1].report()));
}

TEST(ExperimentTest, ExplicitQueueRejectsAliasedKernelNames) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 1, tiny_suite());
  ScenarioSpec spec;
  spec.name = "aliased";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  // Same name, different parameters: QueueRunner keys profiles by name,
  // so this must be rejected rather than silently mis-attributed.
  spec.queue = QueueSpec::Explicit(
      {kernel("dup", 0.3, 1), kernel("dup", 0.02, 2)});
  spec.policy = sched::Policy::kEven;
  spec.nc = 2;
  EXPECT_THROW(engine.run_one(spec), std::logic_error);
}

// Merges sharded result vectors: each index is filled by exactly one shard.
std::vector<ScenarioResult> merge_shards(
    const std::vector<std::vector<ScenarioResult>>& shards) {
  std::vector<ScenarioResult> merged(shards.front().size());
  for (const auto& part : shards) {
    for (size_t i = 0; i < part.size(); ++i) {
      if (part[i].has_reps()) merged[i] = part[i];
    }
  }
  return merged;
}

TEST(ExperimentTest, ShardUnionIsByteIdenticalToFullRun) {
  const auto batch = mixed_batch();  // includes a 2-repetition scenario

  profile::ProfileCache full_cache;
  ExperimentRunner full_engine(full_cache, 2, tiny_suite());
  const std::string full = serialize(full_engine.run(batch));

  // Each shard runs in its own engine and cache (as separate processes
  // would), at different thread counts.
  std::vector<std::vector<ScenarioResult>> parts;
  for (int index = 0; index < 2; ++index) {
    profile::ProfileCache cache;
    ExperimentRunner engine(cache, index == 0 ? 1 : 4, tiny_suite());
    parts.push_back(engine.run(batch, Shard{index, 2}));
  }
  EXPECT_EQ(serialize(merge_shards(parts)), full);

  // Same property for an uneven 3-way split.
  std::vector<std::vector<ScenarioResult>> thirds;
  for (int index = 0; index < 3; ++index) {
    profile::ProfileCache cache;
    ExperimentRunner engine(cache, 2, tiny_suite());
    thirds.push_back(engine.run(batch, Shard{index, 3}));
  }
  EXPECT_EQ(serialize(merge_shards(thirds)), full);
}

TEST(ExperimentTest, ShardKeepsNamesAndSkipsOtherShards) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  const auto batch = mixed_batch();
  const auto results = engine.run(batch, Shard{1, 2});
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i].name, batch[i].name);
    EXPECT_EQ(results[i].has_reps(), i % 2 == 1);
  }
  EXPECT_THROW(engine.run(batch, Shard{2, 2}), std::logic_error);
  EXPECT_THROW(engine.run(batch, Shard{0, 0}), std::logic_error);
}

TEST(ExperimentTest, ExplicitQueueUnderEvenBuildsNeitherProfilesNorModel) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  for (const auto policy : {sched::Policy::kEven, sched::Policy::kSerial}) {
    ScenarioSpec spec;
    spec.name = "lazy-explicit";
    spec.config = small_gpu();
    spec.thresholds = tiny_thresholds();
    spec.queue = QueueSpec::Explicit(
        {kernel("custom", 0.15, 42), kernel("cpu", 0.02, 2)});
    spec.policy = policy;
    spec.nc = 2;
    engine.run_one(spec);
  }
  // Only the two explicit kernels were profiled — no suite profiling, no
  // interference measurement.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.model_misses(), 0u);
}

TEST(ExperimentTest, SuiteQueueUnderEvenSkipsTheModel) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 1, tiny_suite());
  ScenarioSpec spec;
  spec.name = "lazy-suite";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  spec.queue = QueueSpec::Suite();
  spec.policy = sched::Policy::kEven;
  spec.nc = 2;
  engine.run_one(spec);
  EXPECT_GT(cache.misses(), 0u) << "suite queues need suite profiles";
  EXPECT_EQ(cache.model_misses(), 0u) << "Even must not force the model";

  // The ILP policy on the same env forces exactly one model measurement.
  spec.name = "ilp";
  spec.policy = sched::Policy::kIlp;
  engine.run_one(spec);
  EXPECT_EQ(cache.model_misses(), 1u);
}

TEST(ExperimentTest, WarmStoreReproducesColdReportsByteForByte) {
  const auto batch = mixed_batch();
  const std::string dir = "/tmp/gpumas_exp_store_test";
  std::filesystem::remove_all(dir);

  std::string cold;
  {
    profile::ProfileCache cache;
    ExperimentRunner engine(cache, 2, tiny_suite());
    cold = serialize(engine.run(batch));
    cache.save_store(dir);
  }
  profile::ProfileCache warm_cache;
  ASSERT_TRUE(warm_cache.load_store_if_exists(dir));
  ExperimentRunner warm_engine(warm_cache, 2, tiny_suite());
  const std::string warm = serialize(warm_engine.run(batch));
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_cache.misses(), 0u)
      << "warm store must serve every profile from disk";
  EXPECT_EQ(warm_cache.model_misses(), 0u)
      << "warm store must serve the model from disk";
  // The golden property of the group-run layer: the warm policy batch
  // (Serial, Even, ILP, ILP+SMRA groups alike) simulates ZERO groups and
  // still rendered byte-identically above — slowdowns are recomputed from
  // solo cycles, not replayed from the records.
  EXPECT_EQ(warm_cache.group_misses(), 0u)
      << "warm store must serve every group run from disk";
  EXPECT_GT(warm_cache.group_hits(), 0u);
  std::filesystem::remove_all(dir);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The engine's width also bounds the nested cold-path fan-outs (suite solos,
// ProfileBased's curve points, a queue's groups). A cold engine at width 4
// must dump the same records and save the same store, byte for byte, as
// the serial width-1 engine.
TEST(ExperimentTest, ColdDumpAndStoreAreByteIdenticalAcrossWidths) {
  auto batch = mixed_batch();
  ScenarioSpec profile_based = batch[1];
  profile_based.name = "suite/Profile-based";
  profile_based.policy = sched::Policy::kProfileBased;
  batch.push_back(profile_based);

  const auto root = std::filesystem::temp_directory_path() /
                    "gpumas_exp_width_test";
  std::filesystem::remove_all(root);
  std::string dumps[2];
  const int widths[2] = {1, 4};
  for (int w = 0; w < 2; ++w) {
    profile::ProfileCache cache;
    ExperimentRunner engine(cache, widths[w], tiny_suite());
    const auto results = engine.run(batch);
    for (size_t i = 0; i < results.size(); ++i) {
      dumps[w] += result_io::to_string(results[i], 0, static_cast<int>(i));
    }
    cache.save_store((root / std::to_string(widths[w])).string());
  }
  EXPECT_EQ(dumps[1], dumps[0]);
  for (const char* file : {"profiles.txt", "models.txt", "groups.txt"}) {
    const std::string serial = read_file(root / "1" / file);
    EXPECT_FALSE(serial.empty()) << file;
    EXPECT_EQ(read_file(root / "4" / file), serial) << file;
  }
  std::filesystem::remove_all(root);
}

TEST(ExperimentTest, RepetitionStatistics) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  ScenarioSpec spec;
  spec.name = "stats";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  spec.queue = QueueSpec::Distribution(sched::QueueDistribution::kEqual, 4, 5);
  spec.policy = sched::Policy::kEven;
  spec.nc = 2;
  spec.repetitions = 3;
  const auto seeded = engine.run_one(spec);
  const RepStats stp = seeded.throughput_stats();
  const RepStats cyc = seeded.cycles_stats();
  EXPECT_GT(stp.mean, 0.0);
  EXPECT_GT(cyc.mean, 0.0);
  EXPECT_GE(stp.stddev, 0.0);
  EXPECT_DOUBLE_EQ(stp.mean, seeded.mean_device_throughput());

  // Explicit queues are not re-drawn: identical repetitions, zero spread.
  ScenarioSpec fixed = spec;
  fixed.name = "fixed";
  fixed.queue = QueueSpec::Explicit(
      {kernel("cpu", 0.02, 2), kernel("mem", 0.3, 1)});
  const auto result = engine.run_one(fixed);
  EXPECT_DOUBLE_EQ(result.throughput_stats().stddev, 0.0);
  EXPECT_DOUBLE_EQ(result.cycles_stats().stddev, 0.0);
}

TEST(ExperimentTest, BatchErrorStillPropagatesFromThePool) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 4, tiny_suite());
  // One poisoned scenario in a parallel batch: run() must rethrow it (and
  // the fail-fast flag stops idle workers from simulating the remainder).
  auto batch = mixed_batch();
  ScenarioSpec bad;
  bad.name = "bad";
  bad.config = small_gpu();
  bad.thresholds = tiny_thresholds();
  bad.queue = QueueSpec::Explicit(
      {kernel("dup", 0.3, 1), kernel("dup", 0.02, 2)});  // aliased names
  bad.policy = sched::Policy::kEven;
  bad.nc = 2;
  batch.insert(batch.begin(), bad);
  EXPECT_THROW(engine.run(batch), std::logic_error);
}

TEST(ExperimentTest, SharedCacheMakesSecondBatchPureHits) {
  profile::ProfileCache cache;
  ExperimentRunner engine(cache, 2, tiny_suite());
  ScenarioSpec spec;
  spec.name = "one";
  spec.config = small_gpu();
  spec.thresholds = tiny_thresholds();
  spec.queue = QueueSpec::Suite();
  spec.policy = sched::Policy::kSerial;
  spec.nc = 2;
  engine.run_one(spec);
  const uint64_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);

  // Fresh engine, same cache: the offline stage must be free.
  ExperimentRunner second(cache, 2, tiny_suite());
  second.run_one(spec);
  EXPECT_EQ(cache.misses(), misses_after_first);
}

}  // namespace
}  // namespace gpumas::exp
