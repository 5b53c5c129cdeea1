// Tests for the artifact store: memoization, thread safety, threshold
// orthogonality, the store directory round-trip and its strict, salvaging
// per-entry parsers.
#include "profile/profile_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/prng.h"
#include "profile/profile.h"

namespace gpumas::profile {
namespace {

namespace fs = std::filesystem;

// A fresh, empty store directory path (not yet created).
std::string store_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gpumas_pc_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// Loads a store directory whose only member is `file` holding `text`.
std::unique_ptr<ProfileCache> load_member(const std::string& dir,
                                          const std::string& file,
                                          const std::string& text) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_file(dir + "/" + file, text);
  auto cache = std::make_unique<ProfileCache>();
  EXPECT_TRUE(cache->load_store_if_exists(dir));
  return cache;
}

sim::GpuConfig small_gpu() {
  sim::GpuConfig cfg;
  cfg.num_sms = 12;
  cfg.num_channels = 2;
  cfg.l2.size_bytes = 64 * 1024;
  return cfg;
}

sim::KernelParams kernel(const std::string& name, double mem_ratio,
                         uint64_t seed) {
  sim::KernelParams kp;
  kp.name = name;
  kp.num_blocks = 10;
  kp.warps_per_block = 4;
  kp.insns_per_warp = 250;
  kp.mem_ratio = mem_ratio;
  kp.footprint_bytes = 8 << 20;
  kp.divergence = 2;
  kp.seed = seed;
  return kp;
}

void expect_same_measurement(const AppProfile& a, const AppProfile& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.solo_cycles, b.solo_cycles);
  EXPECT_EQ(a.thread_insns, b.thread_insns);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.mb_gbps, b.mb_gbps);
  EXPECT_DOUBLE_EQ(a.l2l1_gbps, b.l2l1_gbps);
  EXPECT_DOUBLE_EQ(a.r, b.r);
}

TEST(ProfileCacheTest, SoloMemoizesAndMatchesProfiler) {
  const sim::GpuConfig cfg = small_gpu();
  const auto kp = kernel("a", 0.1, 1);
  ProfileCache cache;

  const AppProfile first = cache.solo(cfg, kp);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const AppProfile second = cache.solo(cfg, kp);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  expect_same_measurement(first, second);

  // The cache must return exactly what direct profiling returns.
  const AppProfile direct = Profiler(cfg).profile(kp);
  expect_same_measurement(first, direct);
  EXPECT_EQ(first.cls, direct.cls);
}

TEST(ProfileCacheTest, FullDeviceAliasesExplicitSmCount) {
  const sim::GpuConfig cfg = small_gpu();
  const auto kp = kernel("a", 0.1, 1);
  ProfileCache cache;
  cache.solo(cfg, kp, -1);
  cache.solo(cfg, kp, cfg.num_sms);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ProfileCacheTest, ScalabilitySharesEntriesWithSolo) {
  const sim::GpuConfig cfg = small_gpu();
  const auto kp = kernel("a", 0.1, 1);
  ProfileCache cache;
  const auto points = cache.scalability(cfg, kp, {5, 10});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].sms, 5);
  EXPECT_GT(points[0].ipc, 0.0);
  EXPECT_EQ(cache.misses(), 2u);

  cache.solo(cfg, kp, 5);  // same point: must hit
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// The fan-outs of suite_profiles and scalability write pre-sized slots, so
// width 4 returns exactly what the serial width-1 loop returns, and both
// measure the same entries.
TEST(ProfileCacheTest, FanOutsAreWidthInvariant) {
  const sim::GpuConfig cfg = small_gpu();
  const std::vector<sim::KernelParams> suite = {
      kernel("a", 0.1, 1), kernel("b", 0.3, 2), kernel("c", 0.02, 3),
      kernel("a", 0.1, 1)};  // a repeated kernel shares one entry
  const std::vector<int> grid = {2, 5, 8, 10};
  struct Outcome {
    std::vector<AppProfile> profiles;
    std::vector<ScalabilityPoint> curve;
    uint64_t misses = 0;
    uint64_t hits = 0;
  };
  const auto measure = [&](int threads) {
    ProfileCache cache;
    Outcome out;
    out.profiles = cache.suite_profiles(suite, cfg, {}, threads);
    out.curve = cache.scalability(cfg, suite[1], grid, threads);
    out.misses = cache.misses();
    out.hits = cache.hits();
    return out;
  };
  const Outcome serial = measure(1);
  const Outcome wide = measure(4);
  ASSERT_EQ(wide.profiles.size(), suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    expect_same_measurement(wide.profiles[i], serial.profiles[i]);
    EXPECT_EQ(wide.profiles[i].cls, serial.profiles[i].cls);
  }
  ASSERT_EQ(wide.curve.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(wide.curve[i].sms, grid[i]);
    EXPECT_EQ(wide.curve[i].sms, serial.curve[i].sms);
    EXPECT_DOUBLE_EQ(wide.curve[i].ipc, serial.curve[i].ipc);
  }
  EXPECT_EQ(serial.misses, 7u) << "3 distinct solos + 4 curve points";
  EXPECT_EQ(wide.misses, serial.misses);
  EXPECT_EQ(wide.hits, serial.hits);
}

TEST(ProfileCacheTest, ScalabilityRejectsBadGridBeforeSimulating) {
  const sim::GpuConfig cfg = small_gpu();
  const auto kp = kernel("a", 0.1, 1);
  for (const int threads : {1, 4}) {
    ProfileCache cache;
    // The bad count sits last, behind valid points that would otherwise
    // already be simulating.
    EXPECT_THROW(cache.scalability(cfg, kp, {2, 5, 0}, threads),
                 std::logic_error);
    EXPECT_THROW(
        cache.scalability(cfg, kp, {2, 5, cfg.num_sms + 1}, threads),
        std::logic_error);
    EXPECT_EQ(cache.misses(), 0u) << "width " << threads;
    EXPECT_EQ(cache.size(), 0u) << "width " << threads;
  }
}

TEST(ProfileCacheTest, DistinctKernelsConfigsAndSmCountsMiss) {
  const sim::GpuConfig cfg = small_gpu();
  sim::GpuConfig other_cfg = cfg;
  other_cfg.l2.size_bytes = 128 * 1024;
  const auto a = kernel("a", 0.1, 1);
  auto a_reseeded = a;
  a_reseeded.seed = 99;  // same name, different stream: distinct entry

  ProfileCache cache;
  cache.solo(cfg, a);
  cache.solo(cfg, a_reseeded);
  cache.solo(other_cfg, a);
  cache.solo(cfg, a, 6);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ProfileCacheTest, ThresholdsReclassifyWithoutRemeasuring) {
  const sim::GpuConfig cfg = small_gpu();
  const auto kp = kernel("a", 0.1, 1);
  ProfileCache cache;
  const AppProfile base = cache.solo(cfg, kp);

  ClassifierThresholds loose;
  loose.alpha = 0.0;  // any DRAM traffic classifies as M
  const AppProfile reclassified = cache.solo(cfg, kp, -1, loose);
  EXPECT_EQ(cache.misses(), 1u) << "thresholds must not be part of the key";
  expect_same_measurement(base, reclassified);
  ASSERT_GT(reclassified.mb_gbps, 0.0);
  EXPECT_EQ(reclassified.cls, AppClass::kM);
}

TEST(ProfileCacheTest, ConcurrentRequestsComputeEachKeyOnce) {
  const sim::GpuConfig cfg = small_gpu();
  ProfileCache cache;
  constexpr int kThreads = 8;
  std::vector<AppProfile> results(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&cache, &results, &cfg, t] {
        // Half the threads share a key, the rest are distinct.
        const auto kp = kernel(t % 2 == 0 ? "shared" : "k" + std::to_string(t),
                               0.1, t % 2 == 0 ? 7 : 100 + t);
        results[t] = cache.solo(cfg, kp);
      });
    }
    for (auto& th : pool) th.join();
  }
  // 4 threads asked for "shared" (1 unique key) + 4 distinct keys.
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.hits(), 3u);
  for (int t = 2; t < kThreads; t += 2) {
    expect_same_measurement(results[0], results[t]);
  }
}

TEST(ProfileCacheTest, DiskRoundTrip) {
  const sim::GpuConfig cfg = small_gpu();
  const auto a = kernel("a", 0.1, 1);
  const auto b = kernel("b", 0.02, 2);
  const std::string dir = store_dir("roundtrip");

  ProfileCache cache;
  const AppProfile pa = cache.solo(cfg, a);
  cache.solo(cfg, b, 6);
  cache.save_store(dir);

  ProfileCache loaded;
  ASSERT_TRUE(loaded.load_store_if_exists(dir));
  EXPECT_EQ(loaded.size(), 2u);
  const AppProfile qa = loaded.solo(cfg, a);
  EXPECT_EQ(loaded.misses(), 0u) << "loaded entry must serve the lookup";
  EXPECT_EQ(loaded.hits(), 1u);
  expect_same_measurement(pa, qa);
  EXPECT_EQ(pa.cls, qa.cls);
  fs::remove_all(dir);
}

TEST(ProfileCacheTest, HashInKernelNameRoundTrips) {
  const sim::GpuConfig cfg = small_gpu();
  auto kp = kernel("attn#1", 0.1, 9);
  const std::string dir = store_dir("hash");

  ProfileCache cache;
  const AppProfile saved = cache.solo(cfg, kp);
  cache.save_store(dir);

  ProfileCache loaded;
  ASSERT_TRUE(loaded.load_store_if_exists(dir));
  EXPECT_EQ(loaded.quarantine_stats().total(), 0u);
  const AppProfile back = loaded.solo(cfg, kp);
  EXPECT_EQ(loaded.misses(), 0u);
  EXPECT_EQ(back.name, "attn#1") << "'#' must not start a comment mid-name";
  expect_same_measurement(saved, back);
  fs::remove_all(dir);
}

TEST(ProfileCacheTest, LoadRejectsTruncatedEntries) {
  const std::string dir = store_dir("trunc");
  const auto cache = load_member(
      dir, "profiles.txt", "[profile]\nconfig = 7\nkernel = 9\nsms = 20\n");
  EXPECT_EQ(cache->quarantine_stats().profiles, 1u);
  EXPECT_EQ(cache->size(), 0u);
  fs::remove_all(dir);
}

TEST(ProfileCacheTest, LoadMissingFile) {
  ProfileCache cache;
  EXPECT_FALSE(cache.load_store_if_exists("/nonexistent/store"));
  // A store directory without member files is an empty store.
  const std::string dir = store_dir("empty");
  fs::create_directories(dir);
  EXPECT_TRUE(cache.load_store_if_exists(dir));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.quarantine_stats().total(), 0u);
  fs::remove_all(dir);
}

TEST(ProfileCacheTest, AccuracyPartitionsSoloEntries) {
  // sim_mode is part of the config fingerprint, so a store warmed under
  // one fidelity must never serve the other — a sampled profile standing
  // in for a detailed one (or vice versa) would silently change every
  // downstream classification and model fit.
  const std::string dir = store_dir("acc");
  const sim::GpuConfig detailed = small_gpu();
  sim::GpuConfig sampled = small_gpu();
  sampled.sim_mode = sim::SimMode::kSampled;
  sampled.sample_detail_cycles = 200;
  sampled.sample_skip_cycles = 400;
  const auto kp = kernel("a", 0.1, 1);

  ProfileCache cache;
  cache.solo(detailed, kp);
  cache.save_store(dir);

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  warm.solo(sampled, kp);
  EXPECT_EQ(warm.hits(), 0u) << "detailed-warm store served a sampled lookup";
  EXPECT_EQ(warm.misses(), 1u);
  warm.solo(detailed, kp);
  EXPECT_EQ(warm.hits(), 1u);

  fs::remove_all(dir);
  ProfileCache cache2;
  cache2.solo(sampled, kp);
  cache2.save_store(dir);
  ProfileCache warm2;
  ASSERT_TRUE(warm2.load_store_if_exists(dir));
  warm2.solo(detailed, kp);
  EXPECT_EQ(warm2.hits(), 0u) << "sampled-warm store served a detailed lookup";
  EXPECT_EQ(warm2.misses(), 1u);
  fs::remove_all(dir);
}

TEST(ProfileCacheTest, LoadRejectsMalformedEntries) {
  const std::string dir = store_dir("bad");
  const auto cache =
      load_member(dir, "profiles.txt", "[profile]\nconfig = notanumber\n");
  EXPECT_EQ(cache->quarantine_stats().profiles, 1u);
  EXPECT_EQ(cache->size(), 0u);
  fs::remove_all(dir);
}

// --- slowdown models through the artifact store ---

// A small suite with forced classes, shared by the model tests.
struct ModelFixture {
  sim::GpuConfig cfg = small_gpu();
  std::vector<sim::KernelParams> kernels;
  std::vector<AppProfile> profiles;

  explicit ModelFixture(ProfileCache& cache) {
    // Three apps so measure_triples can pick three distinct representatives.
    kernels = {kernel("a", 0.05, 1), kernel("b", 0.3, 2),
               kernel("c", 0.15, 3)};
    for (const auto& k : kernels) profiles.push_back(cache.solo(cfg, k));
    profiles[0].cls = AppClass::kA;
    profiles[1].cls = AppClass::kM;
    profiles[2].cls = AppClass::kC;
  }
};

TEST(ProfileCacheModelTest, ModelMemoizedOncePerKey) {
  ProfileCache cache;
  ModelFixture f(cache);

  const auto first = cache.model(f.cfg, f.kernels, f.profiles);
  EXPECT_EQ(cache.model_misses(), 1u);
  EXPECT_EQ(cache.model_hits(), 0u);
  EXPECT_GT(first->total_pair_samples(), 0);

  const auto second = cache.model(f.cfg, f.kernels, f.profiles);
  EXPECT_EQ(cache.model_misses(), 1u);
  EXPECT_EQ(cache.model_hits(), 1u);
  EXPECT_EQ(first.get(), second.get()) << "same key must share one model";

  // Different sampling cap = different artifact.
  cache.model(f.cfg, f.kernels, f.profiles, /*max_samples_per_cell=*/1);
  EXPECT_EQ(cache.model_misses(), 2u);

  // Different class assignment = different artifact (thresholds that
  // classify identically share one model; ones that don't, don't).
  auto reclassified = f.profiles;
  reclassified[0].cls = AppClass::kC;
  cache.model(f.cfg, f.kernels, reclassified);
  EXPECT_EQ(cache.model_misses(), 3u);
  EXPECT_EQ(cache.model_count(), 3u);
}

TEST(ProfileCacheModelTest, DiskRoundTripServesWarmLoadsWithoutMeasuring) {
  const std::string dir = store_dir("model");
  ProfileCache cache;
  ModelFixture f(cache);
  const auto measured =
      cache.model(f.cfg, f.kernels, f.profiles, /*max_samples_per_cell=*/0,
                  /*with_triples=*/true);
  ASSERT_GT(measured->multi_entries(), 0u);
  cache.save_store(dir);

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  EXPECT_EQ(warm.model_count(), 1u);
  const auto loaded =
      warm.model(f.cfg, f.kernels, f.profiles, 0, /*with_triples=*/true);
  EXPECT_EQ(warm.model_misses(), 0u)
      << "a warm model load must perform zero co-run simulations";
  EXPECT_EQ(warm.model_hits(), 1u);
  // The loaded artifact is bit-identical to the measured one.
  EXPECT_EQ(loaded->to_string(), measured->to_string());
  fs::remove_all(dir);
}

TEST(ProfileCacheModelTest, CorruptAndPartialModelFilesRejected) {
  const std::string dir = store_dir("model_bad");
  for (const char* text :
       {"[model]\nconfig = 7\nsuite = 9\nsamples_per_cell = 0\n"
        "triples = 0\naccuracy = detailed\npair_M_M = 2\n",  // matrix cut
        "[model]\nconfig = notanumber\n"}) {
    const auto cache = load_member(dir, "models.txt", text);
    EXPECT_EQ(cache->quarantine_stats().models, 1u) << text;
    EXPECT_EQ(cache->model_count(), 0u) << text;
  }
  fs::remove_all(dir);
}

TEST(ProfileCacheModelTest, StoreDirectoryRoundTrip) {
  const std::string dir = "/tmp/gpumas_store_test";
  std::filesystem::remove_all(dir);

  ProfileCache cache;
  ModelFixture f(cache);
  cache.model(f.cfg, f.kernels, f.profiles);
  cache.save_store(dir);
  ASSERT_TRUE(std::filesystem::is_regular_file(dir + "/profiles.txt"));
  ASSERT_TRUE(std::filesystem::is_regular_file(dir + "/models.txt"));
  ASSERT_TRUE(std::filesystem::is_regular_file(dir + "/groups.txt"));

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  EXPECT_EQ(warm.size(), cache.size());
  EXPECT_EQ(warm.model_count(), 1u);
  EXPECT_EQ(warm.group_count(), cache.group_count());
  EXPECT_GT(warm.group_count(), 0u)
      << "the model measurement must populate the group layer";
  warm.solo(f.cfg, f.kernels[0]);
  warm.model(f.cfg, f.kernels, f.profiles);
  EXPECT_EQ(warm.misses(), 0u);
  EXPECT_EQ(warm.model_misses(), 0u);
  EXPECT_EQ(warm.group_misses(), 0u);

  ProfileCache empty;
  EXPECT_FALSE(empty.load_store_if_exists("/tmp/gpumas_no_such_store"));
  std::filesystem::remove_all(dir);
}

// --- the group-run layer ---

void expect_same_record(const GroupRunRecord& a, const GroupRunRecord& b) {
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.app_cycles, b.app_cycles);
  EXPECT_EQ(a.app_thread_insns, b.app_thread_insns);
  EXPECT_EQ(a.group_cycles, b.group_cycles);
  EXPECT_EQ(a.smra_adjustments, b.smra_adjustments);
  EXPECT_EQ(a.smra_reverts, b.smra_reverts);
  EXPECT_EQ(a.ticked_cycles, b.ticked_cycles);
  EXPECT_EQ(a.skipped_cycles, b.skipped_cycles);
  EXPECT_EQ(a.sample_windows, b.sample_windows);
}

TEST(GroupCacheTest, CanonicalizationCollapsesMemberPermutations) {
  const sim::GpuConfig cfg = small_gpu();
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);

  const CanonicalGroup ab = canonicalize_group(cfg, {a, b}, {}, "static");
  const CanonicalGroup ba = canonicalize_group(cfg, {b, a}, {}, "static");
  EXPECT_EQ(ab.group_fp, ba.group_fp);
  EXPECT_EQ(ab.config_fp, ba.config_fp);
  // Same canonical member list either way; the permutations invert each
  // other's caller orders.
  ASSERT_EQ(ab.kernels.size(), 2u);
  EXPECT_EQ(ab.kernels[0].name, ba.kernels[0].name);
  EXPECT_EQ(ab.kernels[1].name, ba.kernels[1].name);
  EXPECT_EQ(ab.partition, ba.partition);
  EXPECT_NE(ab.perm, ba.perm);

  // An explicit partition permutes with its kernels...
  const CanonicalGroup lop62 = canonicalize_group(cfg, {a, b}, {6, 2},
                                                  "static");
  const CanonicalGroup lop26 = canonicalize_group(cfg, {b, a}, {2, 6},
                                                  "static");
  EXPECT_EQ(lop62.group_fp, lop26.group_fp);
  // ...and a different split or mode is a different group.
  EXPECT_NE(lop62.group_fp, ab.group_fp);
  EXPECT_NE(canonicalize_group(cfg, {a, b}, {}, "smra tc=3000").group_fp,
            ab.group_fp);
}

TEST(GroupCacheTest, EvenSplitResolvesAfterCanonicalSort) {
  // 8 SMs over 3 members: {3, 3, 2} with the remainder on the canonical
  // first members, whatever order the caller listed them in.
  const sim::GpuConfig cfg = small_gpu();  // 12 SMs
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);
  const auto c = kernel("c", 0.15, 3);
  const CanonicalGroup abc = canonicalize_group(cfg, {a, b, c}, {}, "static");
  const CanonicalGroup cba = canonicalize_group(cfg, {c, b, a}, {}, "static");
  EXPECT_EQ(abc.group_fp, cba.group_fp);
  EXPECT_EQ(abc.partition, cba.partition);
  int total = 0;
  for (const int n : abc.partition) total += n;
  EXPECT_EQ(total, cfg.num_sms);
}

TEST(GroupCacheTest, GroupRunMemoizesPermutedCallers) {
  const sim::GpuConfig cfg = small_gpu();
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);
  ProfileCache cache;

  const GroupRunRecord first =
      cache.group_run(cfg, canonicalize_group(cfg, {a, b}, {}, "static"));
  EXPECT_EQ(cache.group_misses(), 1u);
  EXPECT_EQ(cache.group_hits(), 0u);
  EXPECT_GT(first.group_cycles, 0u);
  ASSERT_EQ(first.app_cycles.size(), 2u);
  EXPECT_EQ(first.group_cycles,
            std::max(first.app_cycles[0], first.app_cycles[1]));

  // The permuted caller is served from the same record.
  const GroupRunRecord second =
      cache.group_run(cfg, canonicalize_group(cfg, {b, a}, {}, "static"));
  EXPECT_EQ(cache.group_misses(), 1u);
  EXPECT_EQ(cache.group_hits(), 1u);
  expect_same_record(first, second);

  // The cached record matches a direct canonical simulation.
  const CanonicalGroup canon = canonicalize_group(cfg, {a, b}, {}, "static");
  expect_same_record(first,
                     simulate_static_group(cfg, canon.kernels,
                                           canon.partition));
}

TEST(GroupCacheTest, DiskRoundTripServesWarmRunsWithoutSimulating) {
  const std::string dir = store_dir("group");
  const sim::GpuConfig cfg = small_gpu();
  // A hostile name exercises the %-escaping of the comma-joined list.
  const auto a = kernel("a space,comma%pct", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);

  ProfileCache cache;
  const auto canon = canonicalize_group(cfg, {a, b}, {}, "static");
  const GroupRunRecord measured = cache.group_run(cfg, canon);
  cache.save_store(dir);

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  EXPECT_EQ(warm.group_count(), 1u);
  const GroupRunRecord loaded = warm.group_run(cfg, canon);
  EXPECT_EQ(warm.group_misses(), 0u)
      << "a warm group load must perform zero simulations";
  EXPECT_EQ(warm.group_hits(), 1u);
  expect_same_record(measured, loaded);
  EXPECT_EQ(loaded.names[canon.perm[0] == 0 ? 0 : 1], "a space,comma%pct");
  fs::remove_all(dir);
}

TEST(GroupCacheTest, EmptyKernelNameRoundTrips) {
  // A default-constructed KernelParams has an empty name; its group entry
  // renders `names = ` (escape of "" is ""), which the loader must accept
  // rather than quarantining the entry as corrupt.
  const std::string dir = store_dir("group_empty_name");
  const sim::GpuConfig cfg = small_gpu();
  auto anon = kernel("", 0.1, 5);

  ProfileCache cache;
  const auto canon = canonicalize_group(cfg, {anon}, {}, "static");
  const GroupRunRecord measured = cache.group_run(cfg, canon);
  cache.save_store(dir);

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  EXPECT_EQ(warm.quarantine_stats().total(), 0u);
  EXPECT_EQ(warm.group_count(), 1u);
  const GroupRunRecord loaded = warm.group_run(cfg, canon);
  EXPECT_EQ(warm.group_misses(), 0u);
  expect_same_record(measured, loaded);
  EXPECT_EQ(loaded.names, std::vector<std::string>{""});
  fs::remove_all(dir);
}

// Each text is one corrupt group entry: loading it quarantines exactly
// that entry and installs nothing.
void expect_group_quarantined(const std::vector<std::string>& texts) {
  const std::string dir = store_dir("group_bad");
  for (const auto& text : texts) {
    const auto cache = load_member(dir, "groups.txt", text);
    EXPECT_EQ(cache->quarantine_stats().groups, 1u) << text;
    EXPECT_EQ(cache->group_count(), 0u) << text;
  }
  fs::remove_all(dir);
}

TEST(GroupCacheTest, LoadRejectsCorruptGroupFiles) {
  expect_group_quarantined({
      // Truncated entry.
      "[group]\nconfig = 7\ngroup = 9\napps = 2\n",
      // List length disagrees with apps.
      "[group]\nconfig = 7\ngroup = 9\napps = 2\nnames = a,b\n"
      "app_cycles = 10\napp_insns = 5,6\ncycles = 10\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
      // Malformed number.
      "[group]\nconfig = banana\n",
      // Negative and trailing-garbage numbers (istream would wrap/truncate).
      "[group]\nconfig = 7\ngroup = -9\n",
      "[group]\nconfig = 7\ngroup = 9\napps = 1\nnames = a\n"
      "app_cycles = -10\napp_insns = 5\ncycles = 10\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
      "[group]\nconfig = 7\ngroup = 9\napps = 1\nnames = a\n"
      "app_cycles = 10\napp_insns = 5\ncycles = 10abc\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
      // Unknown key.
      "[group]\nconfig = 7\nmystery = 1\n",
      // Duplicate key.
      "[group]\nconfig = 7\nconfig = 8\n",
      // Malformed %-escape in a name.
      "[group]\nconfig = 7\ngroup = 9\napps = 1\nnames = a%zz\n"
      "app_cycles = 10\napp_insns = 5\ncycles = 10\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
  });
}

TEST(GroupCacheTest, SampledGroupRunRoundTrips) {
  const std::string dir = store_dir("group_sampled");
  sim::GpuConfig cfg = small_gpu();
  cfg.sim_mode = sim::SimMode::kSampled;
  cfg.sample_detail_cycles = 200;
  cfg.sample_skip_cycles = 400;
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);

  ProfileCache cache;
  const auto canon = canonicalize_group(cfg, {a, b}, {}, "static");
  EXPECT_EQ(canon.accuracy, sim::SimMode::kSampled);
  const GroupRunRecord measured = cache.group_run(cfg, canon);
  EXPECT_GT(measured.sample_windows, 0u);
  EXPECT_GT(measured.skipped_cycles, 0u);
  EXPECT_EQ(measured.ticked_cycles + measured.skipped_cycles,
            measured.group_cycles);
  cache.save_store(dir);

  ProfileCache warm;
  ASSERT_TRUE(warm.load_store_if_exists(dir));
  const GroupRunRecord loaded = warm.group_run(cfg, canon);
  EXPECT_EQ(warm.group_misses(), 0u)
      << "a sampled record must serve a sampled lookup without simulating";
  EXPECT_EQ(warm.group_hits(), 1u);
  expect_same_record(measured, loaded);

  // The detailed run of the same members is a different key: the sampled
  // record must not stand in for it.
  const sim::GpuConfig det = small_gpu();
  ProfileCache warm2;
  ASSERT_TRUE(warm2.load_store_if_exists(dir));
  warm2.group_run(det, canonicalize_group(det, {a, b}, {}, "static"));
  EXPECT_EQ(warm2.group_misses(), 1u)
      << "sampled-warm store served a detailed group run";
  fs::remove_all(dir);
}

TEST(GroupCacheTest, LoadRejectsUnknownOrMissingAccuracy) {
  expect_group_quarantined({
      // A full entry whose accuracy tag names no known fidelity.
      "[group]\nconfig = 7\ngroup = 9\naccuracy = bogus\napps = 1\n"
      "names = a\napp_cycles = 10\napp_insns = 5\ncycles = 10\n"
      "ticked_cycles = 10\nskipped_cycles = 0\nsample_windows = 0\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
      // A pre-sampling store without the accuracy/accounting keys: its
      // fidelity is unknowable, so it must be re-measured, not guessed at.
      "[group]\nconfig = 7\ngroup = 9\napps = 1\nnames = a\n"
      "app_cycles = 10\napp_insns = 5\ncycles = 10\n"
      "smra_adjustments = 0\nsmra_reverts = 0\n",
  });
}

TEST(GroupCacheTest, ConcurrentGroupRequestsSimulateEachKeyOnce) {
  const sim::GpuConfig cfg = small_gpu();
  ProfileCache cache;
  constexpr int kThreads = 8;
  std::vector<GroupRunRecord> results(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&cache, &results, &cfg, t] {
        // Even threads all want the same pair — half of them in swapped
        // member order, so canonicalization is what makes them collide.
        // Odd threads each bring a distinct co-runner.
        const auto shared_a = kernel("shared_a", 0.1, 7);
        const auto shared_b = kernel("shared_b", 0.05, 8);
        std::vector<sim::KernelParams> group;
        if (t % 2 == 0) {
          group = t % 4 == 0
                      ? std::vector<sim::KernelParams>{shared_a, shared_b}
                      : std::vector<sim::KernelParams>{shared_b, shared_a};
        } else {
          group = {shared_a, kernel("k" + std::to_string(t), 0.1, 100 + t)};
        }
        results[t] = cache.group_run(
            cfg, canonicalize_group(cfg, group, {}, "static"));
      });
    }
    for (auto& th : pool) th.join();
  }
  // 4 threads share one canonical pair + 4 distinct pairs.
  EXPECT_EQ(cache.group_misses(), 5u);
  EXPECT_EQ(cache.group_hits(), 3u);
  EXPECT_EQ(cache.group_count(), 5u);
  for (int t = 2; t < kThreads; t += 2) {
    expect_same_record(results[0], results[t]);
  }
}

// --- strict parsing, failed entries and mutated stores ---

// A saved three-layer store (three profiles, one model with triples and
// its group runs) and its per-layer entry counts.
struct SavedStore {
  std::string dir;
  size_t profiles = 0;
  size_t models = 0;
  size_t groups = 0;

  explicit SavedStore(const std::string& name) : dir(store_dir(name)) {
    ProfileCache cache;
    ModelFixture f(cache);
    cache.model(f.cfg, f.kernels, f.profiles, 0, /*with_triples=*/true);
    cache.save_store(dir);
    profiles = cache.size();
    models = cache.model_count();
    groups = cache.group_count();
  }
  ~SavedStore() { fs::remove_all(dir); }
};

const char* const kMembers[] = {"profiles.txt", "models.txt", "groups.txt"};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

TEST(StoreParsingTest, EveryLayerQuarantinesNonStrictFields) {
  const SavedStore base("strict_base");
  const std::string dir = store_dir("strict");
  // Each mutant edits the first `key = value` line of one member file:
  // appends to the value, replaces it, or repeats the key on a new line
  // right after it.
  enum Edit { kAppend, kReplace, kRepeat };
  struct Mutant {
    const char* file = nullptr;
    const char* key = nullptr;
    Edit edit = kReplace;
    const char* text = nullptr;
  };
  const Mutant mutants[] = {
      {"profiles.txt", "config", kAppend, "abc"},
      {"profiles.txt", "ipc", kAppend, "xyz"},
      {"profiles.txt", "sms", kReplace, "-3"},
      {"profiles.txt", "sms", kReplace, "0"},
      {"profiles.txt", "solo_cycles", kReplace, "-5"},
      {"profiles.txt", "ipc", kRepeat, "1"},
      {"models.txt", "samples_per_cell", kReplace, "-1"},
      // A second `triples = 1` would otherwise flip the model's key.
      {"models.txt", "triples", kRepeat, "1"},
      {"models.txt", "config", kReplace, "9abc"},
      {"models.txt", "pair_M_M", kAppend, "x"},
  };
  for (const Mutant& m : mutants) {
    fs::remove_all(dir);
    fs::copy(base.dir, dir, fs::copy_options::recursive);
    auto lines = split_lines(read_file(dir + "/" + m.file));
    const std::string prefix = std::string(m.key) + " = ";
    const auto it = std::find_if(lines.begin(), lines.end(), [&](auto& l) {
      return l.rfind(prefix, 0) == 0;
    });
    ASSERT_NE(it, lines.end()) << m.key;
    const std::string mutated =
        m.edit == kAppend ? *it + m.text : prefix + m.text;
    if (m.edit == kRepeat) {
      lines.insert(it + 1, mutated);
    } else {
      *it = mutated;
    }
    write_file(dir + "/" + m.file, join_lines(lines));

    ProfileCache cache;
    ASSERT_TRUE(cache.load_store_if_exists(dir));
    const bool profile = std::string(m.file) == "profiles.txt";
    EXPECT_EQ(cache.quarantine_stats().total(), 1u) << mutated;
    EXPECT_EQ(cache.size(), base.profiles - (profile ? 1 : 0)) << mutated;
    EXPECT_EQ(cache.model_count(), base.models - (profile ? 0 : 1))
        << mutated;
    EXPECT_EQ(cache.group_count(), base.groups) << mutated;
  }
  fs::remove_all(dir);
}

TEST(StoreMergeTest, MergeSkipsAFailedResidentEntry) {
  const sim::GpuConfig cfg = small_gpu();
  const auto canon = canonicalize_group(
      cfg, {kernel("a", 0.05, 1), kernel("b", 0.3, 2)}, {}, "static");
  const std::string dir = store_dir("merge_failed");
  {
    ProfileCache healthy;
    healthy.group_run(cfg, canon);
    healthy.save_store(dir);
  }

  ProfileCache cache;
  const GroupSimulator broken = [](const sim::GpuConfig&,
                                   const std::vector<sim::KernelParams>&,
                                   const std::vector<int>&) -> GroupRunRecord {
    throw std::runtime_error("simulator failed");
  };
  EXPECT_THROW(cache.group_run(cfg, canon, broken), std::runtime_error);
  // The failed resident entry cannot be compared: merge, save and the
  // lifecycle accounting all skip it instead of rethrowing.
  EXPECT_EQ(cache.merge_store(dir), 0u);
  EXPECT_EQ(cache.quarantine_stats().total(), 0u);
  EXPECT_EQ(cache.group_count(), 1u);
  EXPECT_EQ(cache.lifecycle_stats().group_live_bytes, 0u);
  const std::string out = store_dir("merge_failed_out");
  cache.save_store(out);
  ProfileCache reloaded;
  ASSERT_TRUE(reloaded.load_store_if_exists(out));
  EXPECT_EQ(reloaded.group_count(), 0u) << "a failed entry was persisted";
  fs::remove_all(dir);
  fs::remove_all(out);
}

// Seeded mutations of a rendered three-layer store (byte flips, deleted
// and duplicated lines). Every load must salvage without crashing, and the
// store it saves must be clean and stable: reloading it quarantines
// nothing, and saving that reload reproduces the same bytes (the group
// file's generation stamp aside, since every load advances it).
TEST(StoreFuzzTest, SeededMutationsQuarantineOrRoundTrip) {
  const SavedStore base("fuzz_base");
  std::vector<std::string> members;
  for (const char* file : kMembers) {
    members.push_back(read_file(base.dir + "/" + file));
  }
  const std::string dir = store_dir("fuzz");
  const std::string first = store_dir("fuzz_first");
  const std::string second = store_dir("fuzz_second");
  const auto snapshot = [](const std::string& d) {
    std::string all;
    for (const char* file : kMembers) {
      for (const auto& line : split_lines(read_file(d + "/" + file))) {
        if (line.rfind("# generation = ", 0) != 0) all += line + "\n";
      }
    }
    return all;
  };

  Prng rng(0x5eedf022);
  constexpr int kIterations = 200;
  size_t salvaged = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const size_t target = rng.next_below(3);
    auto lines = split_lines(members[target]);
    // Mutate entry lines only: the preamble comments are schema metadata,
    // whose mismatch rejects the whole store by design.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!lines[i].empty() && lines[i][0] != '#') candidates.push_back(i);
    }
    ASSERT_FALSE(candidates.empty());
    const size_t at = candidates[rng.next_below(candidates.size())];
    switch (rng.next_below(3)) {
      case 0: {
        std::string& line = lines[at];
        const size_t byte = rng.next_below(line.size());
        line[byte] = static_cast<char>(line[byte] ^ (1 + rng.next_below(255)));
        break;
      }
      case 1:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      default:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (size_t f = 0; f < members.size(); ++f) {
      write_file(dir + "/" + kMembers[f],
                 f == target ? join_lines(lines) : members[f]);
    }
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", " +
                 kMembers[target] + " line " + std::to_string(at));

    ProfileCache mutated;
    ASSERT_NO_THROW(mutated.load_store_if_exists(dir));
    if (mutated.quarantine_stats().total() > 0) ++salvaged;
    fs::remove_all(first);
    mutated.save_store(first);
    ProfileCache reloaded;
    ASSERT_TRUE(reloaded.load_store_if_exists(first));
    EXPECT_EQ(reloaded.quarantine_stats().total(), 0u);
    fs::remove_all(second);
    reloaded.save_store(second);
    ASSERT_EQ(snapshot(first), snapshot(second));
  }
  // The mutations must actually hit the parsers, not only benign bytes.
  EXPECT_GT(salvaged, kIterations / 4);
  fs::remove_all(dir);
  fs::remove_all(first);
  fs::remove_all(second);
}

}  // namespace
}  // namespace gpumas::profile
