// Crash-safety and recovery tests: the atomic file writer, the
// deterministic fault injector, store-entry quarantine, and the bench
// harness's checkpoint/--resume path. Crash clauses are exercised through
// gtest death tests — the forked child _Exit()s at the injected point and
// the parent inspects the files the "crash" left behind, exactly what the
// chaos CI job does with whole processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/atomic_file.h"
#include "common/fault_inject.h"
#include "common/parallel.h"
#include "exp/scenario.h"
#include "profile/profile_cache.h"

namespace gpumas {
namespace {

namespace fs = std::filesystem;
using common::FaultInjector;
using common::FaultSite;

// Every test leaves the process-wide injector disarmed: the suite shares
// one process, and a leaked clause would fire in an unrelated test.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::instance().reset(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string test_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/gpumas_recovery_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
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

// ---------------------------------------------------------------- atomic

TEST(AtomicFileTest, CommitReplacesAndNoCommitLeavesTarget) {
  const std::string dir = test_dir("atomic_basic");
  const std::string path = dir + "/artifact.txt";
  common::atomic_write_file(path, "old content\n");
  ASSERT_EQ(read_file(path), "old content\n");

  {
    common::AtomicFile w(path);
    w.stream() << "abandoned\n";
    // No commit(): the target must be untouched.
  }
  EXPECT_EQ(read_file(path), "old content\n");

  common::AtomicFile w(path);
  w.stream() << "new content\n";
  w.commit();
  EXPECT_EQ(read_file(path), "new content\n");
  EXPECT_THROW(w.commit(), std::runtime_error);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFileTest, InjectedWriteFailureLeavesTargetUntouched) {
  FaultGuard guard;
  const std::string dir = test_dir("atomic_fail_write");
  const std::string path = dir + "/artifact.txt";
  common::atomic_write_file(path, "survives\n");

  FaultInjector::instance().configure("fail:write:1");
  EXPECT_THROW(common::atomic_write_file(path, "lost\n"),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "survives\n");
  // The failed attempt cleans up its temp file.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(FaultInjector::instance().injected(FaultSite::kFileWrite), 1u);
}

TEST(AtomicFileTest, InjectedRenameFailureLeavesTargetUntouched) {
  FaultGuard guard;
  const std::string dir = test_dir("atomic_fail_rename");
  const std::string path = dir + "/artifact.txt";
  common::atomic_write_file(path, "survives\n");

  FaultInjector::instance().configure("fail:rename:1");
  EXPECT_THROW(common::atomic_write_file(path, "lost\n"),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "survives\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFileTest, CrashDuringWriteTearsTempNeverTarget) {
  const std::string dir = test_dir("atomic_crash_write");
  const std::string path = dir + "/artifact.txt";
  common::atomic_write_file(path, "old content\n");

  EXPECT_EXIT(
      {
        FaultInjector::instance().configure("crash:write:1");
        common::atomic_write_file(path, "0123456789abcdef");
      },
      ::testing::ExitedWithCode(FaultInjector::kCrashExitCode), "");

  // The target still holds the old bytes; the crash artifact is a torn
  // temp file carrying half of the pending write.
  EXPECT_EQ(read_file(path), "old content\n");
  ASSERT_TRUE(fs::exists(path + ".tmp"));
  EXPECT_EQ(read_file(path + ".tmp"), "01234567");
}

TEST(JournalWriterTest, TruncateAndAppendModes) {
  const std::string dir = test_dir("journal");
  const std::string path = dir + "/run.journal";
  {
    common::JournalWriter w(path, /*truncate=*/true);
    w.append("one\n");
    w.append("two\n");
  }
  EXPECT_EQ(read_file(path), "one\ntwo\n");
  {
    common::JournalWriter w(path, /*truncate=*/false);
    w.append("three\n");
  }
  EXPECT_EQ(read_file(path), "one\ntwo\nthree\n");
  {
    common::JournalWriter w(path, /*truncate=*/true);
  }
  EXPECT_EQ(read_file(path), "");
}

// ---------------------------------------------------------------- faults

TEST(FaultInjectorTest, MalformedSpecsThrowAndDoNotHalfApply) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::instance();
  EXPECT_THROW(fi.configure("bogus"), std::logic_error);
  EXPECT_THROW(fi.configure("fail:nosite:1"), std::logic_error);
  EXPECT_THROW(fi.configure("fail:write:0"), std::logic_error);
  EXPECT_THROW(fi.configure("flaky:write:1.5"), std::logic_error);
  EXPECT_THROW(fi.configure("seed:notanumber"), std::logic_error);
  // A malformed trailing clause must not arm the valid leading one.
  EXPECT_THROW(fi.configure("fail:write:1,wat"), std::logic_error);
  EXPECT_FALSE(fi.armed(FaultSite::kFileWrite));
  EXPECT_FALSE(fi.should_fail(FaultSite::kFileWrite));
}

TEST(FaultInjectorTest, NthHitClauseFiresExactlyOnce) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("fail:fsync:2");
  EXPECT_TRUE(fi.armed(FaultSite::kFileFsync));
  EXPECT_FALSE(fi.armed(FaultSite::kFileWrite));
  EXPECT_FALSE(fi.should_fail(FaultSite::kFileFsync));
  EXPECT_TRUE(fi.should_fail(FaultSite::kFileFsync));
  EXPECT_FALSE(fi.should_fail(FaultSite::kFileFsync));
  EXPECT_EQ(fi.hits(FaultSite::kFileFsync), 3u);
  EXPECT_EQ(fi.injected(FaultSite::kFileFsync), 1u);
}

TEST(FaultInjectorTest, FlakyDrawsAreSeededAndReproducible) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::instance();
  const auto draw = [&](const std::string& spec) {
    fi.configure(spec);
    std::vector<bool> seq;
    for (int i = 0; i < 64; ++i) {
      seq.push_back(fi.should_fail(FaultSite::kFileOpen));
    }
    return seq;
  };
  const auto a = draw("flaky:open:0.5,seed:7");
  const auto b = draw("flaky:open:0.5,seed:7");
  const auto c = draw("flaky:open:0.5,seed:8");
  EXPECT_EQ(a, b) << "same seed must reproduce the same failure pattern";
  EXPECT_NE(a, c) << "a different seed must draw a different pattern";
  size_t failures = 0;
  for (const bool f : a) failures += f ? 1u : 0u;
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 64u);
}

TEST(FaultInjectorTest, DispatchFaultsRetryThenExhaustDeterministically) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::instance();

  // A single transient dispatch failure: retried in place, every element
  // still executes, nothing surfaces to the caller.
  fi.configure("fail:dispatch:2");
  std::vector<int> ran(4, 0);
  parallel_for(1, ran.size(), [&](size_t k) { ran[k] = 1; });
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 4);
  EXPECT_EQ(fi.injected(FaultSite::kDispatch), 1u);

  // A persistent failure (probability 1) exhausts the bounded retry
  // budget and surfaces through the fail-fast path.
  fi.configure("flaky:dispatch:1,retries:2");
  EXPECT_THROW(
      parallel_for(1, size_t{2}, [&](size_t) {}),
      std::runtime_error);
}

// ------------------------------------------------------------ quarantine

TEST(StoreRecoveryTest, CorruptEntriesAreQuarantinedReMeasuredAndHealed) {
  const std::string dir = test_dir("store_quarantine");
  const sim::GpuConfig cfg = small_gpu();
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);

  profile::ProfileCache cache;
  std::vector<profile::AppProfile> profiles{cache.solo(cfg, a),
                                            cache.solo(cfg, b)};
  cache.model(cfg, {a, b}, profiles);
  cache.save_store(dir);
  const size_t groups_before = cache.group_count();
  ASSERT_GT(groups_before, 0u);

  // One corruption per member file, in three different shapes: a garbage
  // tail line glued onto the last profile entry, a stray line outside any
  // model entry, and a garbage tail on the last group entry.
  {
    std::ofstream out(dir + "/profiles.txt", std::ios::app);
    out << "this line has no equals sign\n";
  }
  {
    const std::string text = read_file(dir + "/models.txt");
    const size_t nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    common::atomic_write_file(
        dir + "/models.txt",
        text.substr(0, nl + 1) + "stray garbage\n" + text.substr(nl + 1));
  }
  {
    std::ofstream out(dir + "/groups.txt", std::ios::app);
    out << "torn tail of a group entry\n";
  }

  profile::ProfileCache fresh;
  ASSERT_TRUE(fresh.load_store_if_exists(dir));
  const auto q = fresh.quarantine_stats();
  EXPECT_EQ(q.profiles, 1u);
  EXPECT_EQ(q.models, 1u);
  EXPECT_EQ(q.groups, 1u);
  EXPECT_EQ(q.total(), 3u);

  // The intact entries loaded; only the corrupt ones are missing.
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.model_count(), 1u);
  EXPECT_EQ(fresh.group_count(), groups_before - 1);

  // The quarantine directory holds the evidence, named by content.
  ASSERT_TRUE(fs::is_directory(dir + "/quarantine"));
  size_t quarantine_files = 0;
  for (const auto& e : fs::directory_iterator(dir + "/quarantine")) {
    (void)e;
    ++quarantine_files;
  }
  EXPECT_EQ(quarantine_files, 3u);

  // The lost profile is simply re-measured (one miss, one hit)...
  fresh.solo(cfg, a);
  fresh.solo(cfg, b);
  EXPECT_EQ(fresh.misses(), 1u);
  EXPECT_EQ(fresh.hits(), 1u);

  // ...and the next save writes healed files: a reload sees no
  // corruption and both profiles.
  fresh.save_store(dir);
  profile::ProfileCache healed;
  ASSERT_TRUE(healed.load_store_if_exists(dir));
  EXPECT_EQ(healed.quarantine_stats().total(), 0u);
  EXPECT_EQ(healed.size(), 2u);
}

TEST(StoreRecoveryTest, SchemaVersionMismatchRejectsAllOrNothing) {
  const std::string dir = test_dir("store_version");
  const sim::GpuConfig cfg = small_gpu();
  const auto a = kernel("a", 0.05, 1);
  const auto b = kernel("b", 0.3, 2);

  profile::ProfileCache cache;
  std::vector<profile::AppProfile> profiles{cache.solo(cfg, a),
                                            cache.solo(cfg, b)};
  cache.model(cfg, {a, b}, profiles);
  cache.save_store(dir);

  // Bump the version of the LAST member file only: all-or-nothing means
  // the intact profiles and models must not install either.
  const std::string text = read_file(dir + "/groups.txt");
  const std::string from = "# gpumas group-run cache v2";
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  std::string bumped = text;
  bumped.replace(at, from.size(), "# gpumas group-run cache v9");
  common::atomic_write_file(dir + "/groups.txt", bumped);

  profile::ProfileCache fresh;
  EXPECT_THROW(fresh.load_store_if_exists(dir), std::logic_error);
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_EQ(fresh.model_count(), 0u);
  EXPECT_EQ(fresh.group_count(), 0u);
  EXPECT_EQ(fresh.quarantine_stats().total(), 0u);
}

// ---------------------------------------------------------------- resume

std::vector<exp::ScenarioSpec> tiny_batch() {
  std::vector<exp::ScenarioSpec> specs;
  const sim::GpuConfig cfg = small_gpu();
  for (int i = 0; i < 3; ++i) {
    exp::ScenarioSpec s;
    s.name = "s" + std::to_string(i);
    s.config = cfg;
    s.queue = exp::QueueSpec::Explicit(
        {kernel("a" + std::to_string(i), 0.05 + 0.1 * i, 1 + i),
         kernel("b" + std::to_string(i), 0.25, 100 + i)});
    specs.push_back(s);
  }
  return specs;
}

// Constructs a Harness from bench-style flags and runs the batch; the
// destructor (dump finalization, journal cleanup, exit-status policy)
// runs before this returns.
void run_bench(std::vector<std::string> args,
               const std::vector<exp::ScenarioSpec>& specs) {
  args.insert(args.begin(), "recovery_test_bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& s : args) argv.push_back(s.data());
  bench::Harness h(static_cast<int>(argv.size()), argv.data());
  h.run(specs);
}

TEST(HarnessResumeTest, CrashMidBatchThenResumeIsByteIdentical) {
  const std::string dir = test_dir("resume_crash");
  const std::string ref = dir + "/ref.txt";
  const std::string dump = dir + "/crash.txt";
  const auto specs = tiny_batch();

  run_bench({"--threads", "1", "--dump-results", ref}, specs);
  ASSERT_FALSE(fs::exists(ref + ".journal"));
  const std::string want = read_file(ref);
  ASSERT_FALSE(want.empty());

  // Journal write hits: 1 = header, 2 = scenario s0's record, 3 =
  // scenario s1's record — crash there, tearing s1's line in half.
  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--faults",
                 "crash:write:3"},
                specs),
      ::testing::ExitedWithCode(common::FaultInjector::kCrashExitCode), "");
  ASSERT_TRUE(fs::exists(dump + ".journal"));
  ASSERT_FALSE(fs::exists(dump)) << "crashed before the batch finalized";

  // Resume: s0 is served from the journal, the torn s1 and the never-run
  // s2 re-execute, and the final dump matches the uninterrupted run byte
  // for byte. The journal is gone after clean completion.
  run_bench({"--threads", "1", "--dump-results", dump, "--resume"}, specs);
  EXPECT_EQ(read_file(dump), want);
  EXPECT_FALSE(fs::exists(dump + ".journal"));
}

TEST(HarnessResumeTest, ResumeAtADifferentWidthIsByteIdentical) {
  const std::string dir = test_dir("resume_width");
  const std::string ref = dir + "/ref.txt";
  const std::string dump = dir + "/crash.txt";
  const auto specs = tiny_batch();

  run_bench({"--threads", "1", "--dump-results", ref}, specs);
  const std::string want = read_file(ref);
  ASSERT_FALSE(want.empty());

  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--faults",
                 "crash:write:3"},
                specs),
      ::testing::ExitedWithCode(common::FaultInjector::kCrashExitCode), "");
  ASSERT_TRUE(fs::exists(dump + ".journal"));

  // Records do not depend on --threads, so the journal accepts a wider
  // resume and the final dump still matches the uninterrupted run. The
  // wide run goes in a child process: it starts the shared worker pool,
  // and the death tests below fork this process.
  EXPECT_EXIT(
      {
        run_bench({"--threads", "2", "--dump-results", dump, "--resume"},
                  specs);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(read_file(dump), want);
  EXPECT_FALSE(fs::exists(dump + ".journal"));
}

TEST(HarnessResumeTest, ResumeAfterCleanCompletionIsIdempotent) {
  const std::string dir = test_dir("resume_idempotent");
  const std::string dump = dir + "/results.txt";
  const auto specs = tiny_batch();

  run_bench({"--threads", "1", "--dump-results", dump}, specs);
  const std::string want = read_file(dump);

  // The journal is gone, but the complete dump itself feeds the resume:
  // every scenario is skipped and the rewrite is a byte-level no-op.
  run_bench({"--threads", "1", "--dump-results", dump, "--resume"}, specs);
  EXPECT_EQ(read_file(dump), want);
  EXPECT_FALSE(fs::exists(dump + ".journal"));
}

TEST(HarnessResumeTest, ResumeUnderDifferentFlagsExitsTwo) {
  const std::string dir = test_dir("resume_flags");
  const std::string dump = dir + "/crash.txt";
  const auto specs = tiny_batch();

  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--faults",
                 "crash:write:3"},
                specs),
      ::testing::ExitedWithCode(common::FaultInjector::kCrashExitCode), "");

  // A different repetition count changes the records themselves, so the
  // journal's fingerprint header must refuse the resume.
  EXPECT_EXIT(
      run_bench({"--threads", "1", "--reps", "2", "--dump-results", dump,
                 "--resume"},
                specs),
      ::testing::ExitedWithCode(2), "");
}

TEST(HarnessResumeTest, ResumeAgainstDifferentScenariosExitsTwo) {
  const std::string dir = test_dir("resume_scenarios");
  const std::string dump = dir + "/crash.txt";
  const auto specs = tiny_batch();

  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--faults",
                 "crash:write:3"},
                specs),
      ::testing::ExitedWithCode(common::FaultInjector::kCrashExitCode), "");

  // Same flags, different bench body: the reloaded record's scenario name
  // does not match the declared batch.
  auto renamed = specs;
  renamed[0].name = "not-the-same-scenario";
  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--resume"},
                renamed),
      ::testing::ExitedWithCode(2), "");
}

TEST(HarnessResumeTest, ResumeFlagValidation) {
  const auto specs = tiny_batch();
  EXPECT_EXIT(run_bench({"--resume"}, specs), ::testing::ExitedWithCode(2),
              "");
  EXPECT_EXIT(
      run_bench({"--resume", "--dump-results", "/tmp/x", "--dump-append"},
                specs),
      ::testing::ExitedWithCode(2), "");
}

TEST(HarnessResumeTest, DumpIoFailureExitsNonzero) {
  const std::string dir = test_dir("dump_io_failure");
  const std::string dump = dir + "/results.txt";
  const auto specs = tiny_batch();

  // Write hits 1-4 are the journal (header + three records); hit 5 is the
  // batch-end dump rewrite. Failing it must not abort the run — the
  // harness finishes, keeps the journal, and exits 1 instead of 0.
  EXPECT_EXIT(
      run_bench({"--threads", "1", "--dump-results", dump, "--faults",
                 "fail:write:5"},
                specs),
      ::testing::ExitedWithCode(1), "");
  EXPECT_TRUE(fs::exists(dump + ".journal"))
      << "the journal is the surviving copy of the records";
}

TEST(HarnessStoreTest, ProfileCacheFileExitsTwo) {
  // The artifact store is a directory; a regular file is a user error,
  // refused before anything is read or written.
  const std::string dir = test_dir("store_file");
  const std::string file = dir + "/profiles.txt";
  common::atomic_write_file(file, "# gpumas profile cache v2\n");
  EXPECT_EXIT(run_bench({"--threads", "1", "--profile-cache", file},
                        tiny_batch()),
              ::testing::ExitedWithCode(2),
              "must name the artifact store directory");
  EXPECT_EQ(read_file(file), "# gpumas profile cache v2\n");
}

}  // namespace
}  // namespace gpumas
