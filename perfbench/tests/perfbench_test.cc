// Tests of the benchmark itself: its generators are deterministic per seed
// and differ across seeds, every catalogued metric is emitted by every
// workload with a well-formed name, and the tracer's bookkeeping is right.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <unistd.h>

#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() /
                     ("perfbench_test-" + std::to_string(getpid())) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string render(const std::vector<CorunGroup>& groups) {
  std::string s;
  for (const auto& g : groups) s += g.label() + ";";
  return s;
}

TEST(Generators, CorunGroupsAreSeededPartitionsOfTheSuite) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const auto groups = draw_corun_groups(seed, 60);
    EXPECT_EQ(render(groups), render(draw_corun_groups(seed, 60)));
    std::map<std::string, int> runs;
    bool pair = false, triple = false, even = false, uneven = false;
    std::set<GroupKind> kinds;
    for (const auto& g : groups) {
      for (const auto& a : g.apps) ++runs[a];
      pair = pair || g.apps.size() == 2;
      triple = triple || g.apps.size() == 3;
      even = even || g.even();
      uneven = uneven || !g.even();
      kinds.insert(g.kind);
      int sms = 0;
      for (const int s : g.partition) {
        EXPECT_GT(s, 0);
        sms += s;
      }
      EXPECT_EQ(sms, 60);
    }
    EXPECT_EQ(groups.size(), 12u);
    EXPECT_EQ(runs.size(), 14u);
    for (const auto& [app, n] : runs) EXPECT_EQ(n, 2) << app;
    EXPECT_TRUE(pair && triple && even && uneven);
    EXPECT_EQ(kinds.size(), 3u) << "seed " << seed;
  }
  EXPECT_NE(render(draw_corun_groups(1, 60)), render(draw_corun_groups(2, 60)));
}

TEST(Generators, PolicyGridIsSeeded) {
  const auto a = policy_grid(7, 8);
  const auto b = policy_grid(7, 8);
  const auto c = policy_grid(8, 8);
  ASSERT_EQ(a.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].queue.seed, b[i].queue.seed);
    EXPECT_EQ(a[i].policy, kGridPolicies[i]);
    EXPECT_EQ(a[i].nc, 2);
  }
  EXPECT_NE(a[0].queue.seed, c[0].queue.seed);
}

// The padded group layer, as bytes on disk.
std::string padded_store(uint64_t seed, const fs::path& dir) {
  gpumas::profile::ProfileCache cache;
  const gpumas::sim::GpuConfig cfg;
  for (uint64_t i = 0; i < 300; ++i) {
    const PadEntry e = pad_entry(cfg, seed, i);
    cache.group_run(cfg, e.canon,
                    [&](const gpumas::sim::GpuConfig&,
                        const std::vector<gpumas::sim::KernelParams>&,
                        const std::vector<int>&) { return e.record; });
  }
  EXPECT_EQ(cache.group_count(), 300u) << "pad keys must be unique";
  cache.save_store(dir.string());
  return read_file(dir / "groups.txt");
}

TEST(Generators, PaddedStoreBytesAreSeeded) {
  const fs::path root = temp_dir("pad");
  const std::string a = padded_store(3, root / "a");
  EXPECT_EQ(a, padded_store(3, root / "b"));
  EXPECT_NE(a, padded_store(4, root / "c"));
  fs::remove_all(root.parent_path());
}

TEST(Stats, TailKeepsTenSamplesBeyondIt) {
  std::vector<double> xs;
  for (int i = 1; i <= 19; ++i) xs.push_back(i);
  EXPECT_EQ(summarize(xs).tail_q, 50.0);  // no percentile qualifies
  EXPECT_EQ(summarize(xs).p50, 10.0);
  for (int i = 20; i <= 100; ++i) xs.push_back(i);
  const Tail t = summarize(xs);  // 100 samples: p90 leaves 10 beyond
  EXPECT_EQ(t.tail_q, 90.0);
  EXPECT_EQ(t.n, 100u);
  EXPECT_NEAR(t.tail, 90.1, 1e-9);
}

TEST(Tracer, NestsSpansAndSplitsSelfTime) {
  Tracer t(true, "r");
  {
    Tracer::Span outer(t, "bench.round");
    { Tracer::Span inner(t, "sim.detailed"); }
    { Tracer::Span inner(t, "store.load"); }
  }
  EXPECT_EQ(t.span_count(), 3u);
  const auto self = t.self_seconds_by_layer();
  const double total = self.at("bench") + self.at("sim") + self.at("store");
  EXPECT_NEAR(total, t.total_seconds("bench.round"), 1e-9);
  const fs::path dir = temp_dir("trace");
  t.write_chrome_json((dir / "t.json").string());
  const std::string json = read_file(dir / "t.json");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(json.find("\"run\":\"r\""), std::string::npos);
  fs::remove_all(dir.parent_path());

  Tracer off(false, "r");
  { Tracer::Span s(off, "sim.detailed"); }
  EXPECT_EQ(off.span_count(), 0u);
}

TEST(Metrics, NamesAreWellFormedAndMatchBenchmarkJson) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> names;
  for (const MetricDef& d : catalogue()) {
    EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
    EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.unit;
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
  }
  const std::string json =
      read_file(fs::path(PERFBENCH_DIR).parent_path() / "BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  std::set<std::string> declared;
  const std::regex decl("\\{\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), decl);
       it != std::sregex_iterator(); ++it) {
    declared.insert((*it)[1]);
    const auto def = std::find_if(
        catalogue().begin(), catalogue().end(),
        [&](const MetricDef& d) { return d.name == (*it)[1]; });
    ASSERT_NE(def, catalogue().end()) << (*it)[1];
    EXPECT_EQ(def->unit, (*it)[2]) << def->name;
  }
  EXPECT_EQ(declared, names);
}

std::set<std::string> catalogue_names(MetricKind kind) {
  std::set<std::string> names;
  for (const MetricDef& d : catalogue()) {
    if (d.kind == kind) names.insert(d.name);
  }
  return names;
}

// The metric names of the JSON line `report` prints for `kind`.
std::set<std::string> printed(const Report& report, MetricKind kind) {
  std::ostringstream os;
  report.print(os, kind);
  std::string last, line;
  std::istringstream in(os.str());
  while (std::getline(in, line)) last = line;
  std::set<std::string> names;
  const std::regex metric("\"([^\"]+)\": \\{\"value\"");
  for (auto it = std::sregex_iterator(last.begin(), last.end(), metric);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

// Runs a shrunken, traced workload and checks that it passes its own
// checks and prints every end-to-end and every per-layer metric.
void expect_every_metric(void (*run)(const Options&, Tracer&, Report&)) {
  Options opt;
  opt.seconds = 0;
  opt.threads = 2;
  opt.setup_reps = 1;
  opt.corun_groups = 3;
  opt.grid_queue_length = 4;
  opt.warm_queue_length = 4;
  opt.plan_queue_length = 12;
  opt.pad_entries = 200;
  const fs::path dir = temp_dir("run");
  opt.work_dir = dir.string();
  Tracer tracer(true, "test");
  Report report;
  run(opt, tracer, report);
  finish_report(tracer, report);
  fs::remove_all(dir.parent_path());
  EXPECT_GT(report.attempted(), 0);
  EXPECT_EQ(report.failed(), 0) << report.failures().front();
  EXPECT_EQ(printed(report, MetricKind::kEndToEnd),
            catalogue_names(MetricKind::kEndToEnd));
  EXPECT_EQ(printed(report, MetricKind::kPerLayer),
            catalogue_names(MetricKind::kPerLayer));
  EXPECT_GT(report.get("trace.accounted_frac"), 0.9);
}

TEST(Workloads, SimCorunEmitsEveryMetric) {
  expect_every_metric(run_sim_corun);
}

TEST(Workloads, GridColdEmitsEveryMetric) {
  expect_every_metric(run_grid_cold);
}

TEST(Workloads, StoreWarmEmitsEveryMetric) {
  expect_every_metric(run_store_warm);
}

}  // namespace
}  // namespace perfbench
