// grid_cold, and the helpers the workloads share.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "exp/experiment.h"
#include "exp/result_io.h"
#include "sim/gpu.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/suite.h"

namespace perfbench {

namespace exp = gpumas::exp;
namespace fs = std::filesystem;
namespace profile = gpumas::profile;
namespace sched = gpumas::sched;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it would
  // report the launching process's peak when that was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void finish_report(const Tracer& tracer, Report& report) {
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("error_rate", static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted()));
  if (!tracer.enabled()) return;
  const auto self = tracer.self_seconds_by_layer();
  for (const char* layer : {"bench", "sim", "profile", "interference", "ilp",
                            "sched", "exp", "store"}) {
    const auto it = self.find(layer);
    report.set(std::string("trace.self_s.") + layer,
               it == self.end() ? 0.0 : it->second);
  }
  const double rounds = tracer.total_seconds("bench.round");
  const double glue = tracer.self_seconds_of("bench.round");
  report.set("trace.accounted_frac", rounds > 0 ? 1.0 - glue / rounds : 0.0);
  report.set("trace.wall_s", report.get("wall_s"));
  report.set("trace.spans", static_cast<double>(tracer.span_count()));
  const double cost =
      static_cast<double>(tracer.span_count()) * Tracer::span_cost_seconds();
  const double traced = rounds + tracer.total_seconds("bench.setup");
  report.set("trace.overhead_pct", cost / traced * 100.0);
  report.note("tracing overhead: " + std::to_string(tracer.span_count()) +
              " spans cost ~" + std::to_string(cost * 1e3) + " ms of " +
              std::to_string(traced) +
              " s traced; compare trace.wall_s with an untraced run's wall_s");
}

void zero_unset(Report& report, const std::vector<std::string>& prefixes) {
  for (const MetricDef& d : catalogue()) {
    if (d.kind != MetricKind::kPerLayer || report.has(d.name)) continue;
    for (const std::string& p : prefixes) {
      if (d.name.compare(0, p.size(), p) == 0) report.set(d.name, 0.0);
    }
  }
}

uint64_t directory_bytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

std::string dump_results(const std::vector<exp::ScenarioResult>& results) {
  std::string dump;
  for (size_t i = 0; i < results.size(); ++i) {
    dump += exp::result_io::to_string(results[i], 0, static_cast<int>(i));
  }
  return dump;
}

std::vector<double> stp_gains(const std::vector<exp::ScenarioResult>& results) {
  std::vector<double> gains;
  const double even = results.front().mean_device_throughput();
  for (size_t p = 1; p < results.size(); ++p) {
    gains.push_back((results[p].mean_device_throughput() / even - 1.0) *
                    100.0);
  }
  return gains;
}

void set_stp_gains(Report& report, const std::vector<double>& gains) {
  // kGridPolicies order: Even, Profile-based, ILP, ILP-SMRA.
  report.set("stp_gain_profile_pct", gains.at(0));
  report.set("stp_gain_ilp_pct", gains.at(1));
  report.set("stp_gain_ilp_smra_pct", gains.at(2));
}

void check_digest(const Options& opt, const std::string& workload,
                  const std::string& actual, Report& report) {
  const std::string recorded = opt.digests.find(workload, opt.seed);
  report.note("digest " + workload + " " + std::to_string(opt.seed) + " " +
              actual + (recorded.empty() ? " (no recorded digest; not checked)"
                                         : " (recorded " + recorded + ")"));
  if (!recorded.empty()) {
    report.check(recorded == actual,
                 workload + " output digest differs from the recorded one");
  }
}

namespace {

// Thread-instructions behind every simulated artifact of a saved store:
// each solo profile and each group run in it was simulated exactly once.
uint64_t store_thread_insns(const std::string& dir) {
  uint64_t total = 0;
  for (const char* file : {"profiles.txt", "groups.txt"}) {
    std::ifstream in(fs::path(dir) / file);
    std::string line;
    while (std::getline(in, line)) {
      std::string values;
      if (line.rfind("thread_insns = ", 0) == 0) {
        values = line.substr(15);
      } else if (line.rfind("app_insns = ", 0) == 0) {
        values = line.substr(12);
      } else {
        continue;
      }
      std::istringstream vs(values);
      std::string v;
      while (std::getline(vs, v, ',')) total += std::stoull(v);
    }
  }
  return total;
}

}  // namespace

ColdBuild cold_build(profile::ProfileCache& cache,
                     const std::vector<exp::ScenarioSpec>& specs, int threads,
                     const std::string& store_dir, Tracer& tracer) {
  using Clock = std::chrono::steady_clock;
  const exp::ScenarioSpec& head = specs.front();
  const auto& suite = gpumas::workloads::suite();
  ColdBuild b;
  const double build_cpu0 = process_cpu_seconds();

  // The engine's profile and model stages, forced here with its exact
  // arguments so they can be timed apart; the batch then hits both.
  std::vector<profile::AppProfile> profiles;
  {
    Tracer::Span s(tracer, "profile.suite_profiles");
    profiles = cache.suite_profiles(suite, head.config, head.thresholds);
    b.suite_s = s.stop();
  }
  b.solo_sims = cache.misses();
  {
    Tracer::Span s(tracer, "interference.model");
    cache.model(head.config, suite, profiles, head.model_samples_per_cell,
                /*with_triples=*/false, threads);
    b.model_s = s.stop();
  }
  b.corun_sims = cache.group_misses();

  const uint64_t misses0 = cache.misses() - cache.scalability_misses();
  const uint64_t model_misses0 = cache.model_misses();
  const uint64_t scal0 = cache.scalability_misses();
  const uint64_t gmiss0 = cache.group_misses();
  const uint64_t ghit0 = cache.group_hits();
  std::vector<Clock::time_point> done;
  exp::RunHooks hooks;
  hooks.on_result = [&](size_t, const exp::ScenarioResult&) {
    done.push_back(Clock::now());
  };
  const double cpu0 = process_cpu_seconds();
  {
    Tracer::Span s(tracer, "exp.run");
    exp::ExperimentRunner runner(cache, threads);
    b.results = runner.run(specs, {}, hooks);
    b.batch_s = s.stop();
  }
  const Clock::time_point end = Clock::now();
  b.pool_busy_frac =
      (process_cpu_seconds() - cpu0) / (b.batch_s * threads);
  // Workers claim scenarios in order, so after the first N - T completions
  // every scenario is claimed and the next completion idles a worker.
  std::sort(done.begin(), done.end());
  if (!done.empty()) {
    const size_t idle = done.size() > static_cast<size_t>(threads)
                            ? done.size() - static_cast<size_t>(threads)
                            : 0;
    b.tail_s = std::chrono::duration<double>(end - done[idle]).count();
  }
  b.batch_profile_misses =
      cache.misses() - cache.scalability_misses() - misses0;
  b.batch_model_misses = cache.model_misses() - model_misses0;
  b.scalability_sims = cache.scalability_misses() - scal0;
  b.group_sims = cache.group_misses() - gmiss0;
  b.group_hits = cache.group_hits() - ghit0;

  {
    Tracer::Span s(tracer, "exp.dump");
    b.dump = dump_results(b.results);
    b.dump_s = s.stop();
  }
  {
    Tracer::Span s(tracer, "store.save");
    cache.save_store(store_dir);
    b.save_s = s.stop();
  }
  b.cpu_s = process_cpu_seconds() - build_cpu0;
  b.sim_thread_insns = store_thread_insns(store_dir);
  b.store_bytes = directory_bytes(store_dir);

  uint64_t cycles = 0, skipped = 0;
  for (const auto& r : b.results) {
    for (const auto& rep : r.reps) {
      cycles += rep.total_ticked_cycles + rep.total_skipped_cycles;
      skipped += rep.total_skipped_cycles;
    }
  }
  b.skipped_frac = cycles ? static_cast<double>(skipped) / cycles : 0.0;
  b.stp_gain_pct = stp_gains(b.results);
  return b;
}

namespace {

// Checks that hold for any grid result: every scenario ran, and every
// group's cycle accounting and instruction totals add up.
void check_results(const std::vector<exp::ScenarioResult>& results,
                   Report& report) {
  for (const auto& r : results) {
    report.check(r.has_reps(), "scenario " + r.name + " did not run");
    for (const auto& rep : r.reps) {
      uint64_t insns = 0, cycles = 0;
      bool accounted = true;
      for (const auto& g : rep.groups) {
        accounted = accounted && g.ticked_cycles + g.skipped_cycles == g.cycles;
        for (const uint64_t i : g.app_thread_insns) insns += i;
        cycles += g.cycles;
      }
      report.check(accounted, r.name + ": group ticked + skipped != cycles");
      report.check(
          insns == rep.total_thread_insns && cycles == rep.total_cycles,
                   r.name + ": group totals disagree with the report");
    }
  }
}

}  // namespace

void run_grid_cold(const Options& opt, Tracer& tracer, Report& report) {
  const fs::path root = fs::path(opt.work_dir) / "grid_cold";
  std::vector<exp::ScenarioSpec> specs;

  // Set-up: the scenario grid, the engine objects a cold run starts from
  // and the device of every solo run the profile stage opens with (each
  // round then builds its own, into a fresh store directory).
  fs::create_directories(root);
  std::vector<double> setups;
  for (int i = 0; i < opt.setup_reps; ++i) {
    Tracer::Span s(tracer, "bench.setup");
    specs = policy_grid(opt.seed, opt.grid_queue_length);
    profile::ProfileCache cache;
    exp::ExperimentRunner runner(cache, opt.threads);
    for (const auto& kp : gpumas::workloads::suite()) {
      gpumas::sim::Gpu gpu(specs.front().config);
      gpu.launch(kp);
      gpu.set_even_partition();
    }
    setups.push_back(s.stop());
  }
  report.set("setup_s", median(setups));

  std::vector<ColdBuild> builds;
  const std::vector<double> walls =
      measure_rounds(opt.seconds, [&](int round) {
        Tracer::Span s(tracer, "bench.round");
        profile::ProfileCache cache;
        builds.push_back(cold_build(
            cache, specs, opt.threads,
            (root / ("store-" + std::to_string(round))).string(), tracer));
        return s.stop();
      });

  const ColdBuild& first = builds.front();
  check_results(first.results, report);
  report.check(first.batch_profile_misses == 0 && first.batch_model_misses == 0,
               "the batch re-ran the profile or model stage");
  report.check(first.sim_thread_insns > 0,
               "the store accounts for no simulated instructions");
  for (const ColdBuild& b : builds) {
    report.check(b.dump == first.dump, "cold rounds disagree on the dump");
  }
  check_digest(opt, "grid_cold", digest(first.dump), report);

  // Per CPU second, not per wall second: the pool's idle time is wall_s's
  // and exp.pool_busy_frac's business, this is the simulator's throughput.
  std::vector<double> rates;
  for (const ColdBuild& b : builds) {
    rates.push_back(static_cast<double>(b.sim_thread_insns) / 1e6 / b.cpu_s);
  }
  report.set("wall_s", median(walls));
  report.set("sim_minsn_per_s", median(rates));
  set_stp_gains(report, first.stp_gain_pct);

  report.set("sim.skipped_frac", first.skipped_frac);
  report.set("profile.suite_s", median_of(builds, &ColdBuild::suite_s));
  report.set("profile.solo_sims", static_cast<double>(first.solo_sims));
  report.set("profile.scalability_sims",
             static_cast<double>(first.scalability_sims));
  report.set("interference.model_s", median_of(builds, &ColdBuild::model_s));
  report.set("interference.corun_sims", static_cast<double>(first.corun_sims));
  report.set("exp.batch_s", median_of(builds, &ColdBuild::batch_s));
  report.set("exp.pool_busy_frac",
             median_of(builds, &ColdBuild::pool_busy_frac));
  report.set("exp.tail_s", median_of(builds, &ColdBuild::tail_s));
  report.set("exp.group_sims", static_cast<double>(first.group_sims));
  const uint64_t lookups = first.group_sims + first.group_hits;
  report.set("exp.group_hit_rate",
             lookups ? static_cast<double>(first.group_hits) / lookups : 0.0);
  report.set("exp.dump_s", median_of(builds, &ColdBuild::dump_s));
  report.set("store.save_s", median_of(builds, &ColdBuild::save_s));
  report.set("store.bytes", static_cast<double>(first.store_bytes));
  zero_unset(report, {"sim.", "store.", "ilp.", "sched.", "sampled_",
                      "warm_rounds"});
  fs::remove_all(root);
}

}  // namespace perfbench
