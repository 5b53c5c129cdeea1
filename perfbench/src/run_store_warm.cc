// store_warm: warm re-render of a grid from a long-lived shared store, plus
// the store sync a worker performs.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>

#include "bench.h"
#include "common/prng.h"
#include "exp/experiment.h"
#include "ilp/pattern.h"
#include "sched/policies.h"
#include "sched/queue_gen.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/suite.h"

namespace perfbench {

namespace exp = gpumas::exp;
namespace fs = std::filesystem;
namespace profile = gpumas::profile;
namespace sched = gpumas::sched;
namespace sim = gpumas::sim;

namespace {

struct WarmRound {
  double load_s = 0, run_s = 0, dump_s = 0, merge_s = 0, save_s = 0;
  double suite_s = 0, model_s = 0, pool_busy_frac = 0, tail_s = 0;
  std::vector<double> solve_us;
  uint64_t nodes = 0;
  uint64_t group_entries = 0, evicted = 0, quarantined = 0, conflicts = 0;
  uint64_t sims = 0;  // simulations of any layer
  uint64_t group_hits = 0, group_misses = 0;
  std::string dump;
  std::vector<double> stp_gain_pct;
};

// Inserts `count` seeded synthetic group records, starting at `first`,
// through the public group_run with a simulator that returns the record;
// returns each insertion's time in microseconds.
std::vector<double> pad(profile::ProfileCache& cache,
                        const sim::GpuConfig& cfg, uint64_t seed,
                        uint64_t first, uint64_t count) {
  std::vector<double> us;
  us.reserve(count);
  for (uint64_t i = first; i < first + count; ++i) {
    const PadEntry e = pad_entry(cfg, seed, i);
    const auto t0 = Tracer::Clock::now();
    cache.group_run(cfg, e.canon,
                    [&](const sim::GpuConfig&,
                        const std::vector<sim::KernelParams>&,
                        const std::vector<int>&) { return e.record; });
    us.push_back(
        std::chrono::duration<double, std::micro>(Tracer::Clock::now() - t0)
            .count());
  }
  return us;
}

}  // namespace

void run_store_warm(const Options& opt, Tracer& tracer, Report& report) {
  const fs::path root = fs::path(opt.work_dir) / "store_warm";
  const std::string cold_dir = (root / "cold").string();
  const std::string store_dir = (root / "store").string();
  const std::string worker_dir = (root / "worker").string();
  const std::vector<exp::ScenarioSpec> specs =
      policy_grid(opt.seed, opt.warm_queue_length);
  const sim::GpuConfig& cfg = specs.front().config;

  // Set-up, once (it simulates a whole cold grid): cold-build the store,
  // pad its group layer to a long-lived store's size, save it, then add a
  // tenth more worker-only entries and save that as the worker's copy.
  ColdBuild cold;
  std::vector<double> insert_us;
  {
    Tracer::Span s(tracer, "bench.setup");
    fs::remove_all(root);
    profile::ProfileCache cache;
    cold = cold_build(cache, specs, opt.threads, cold_dir, tracer);
    {
      Tracer::Span p(tracer, "store.pad");
      insert_us = pad(cache, cfg, opt.seed, 0, opt.pad_entries);
    }
    {
      Tracer::Span p(tracer, "store.save");
      cache.save_store(store_dir);
    }
    {
      Tracer::Span p(tracer, "store.pad");
      pad(cache, cfg, opt.seed, opt.pad_entries, opt.pad_entries / 10);
    }
    {
      Tracer::Span p(tracer, "store.save");
      cache.save_store(worker_dir);
    }
    report.set("setup_s", s.stop());
  }
  const uint64_t store_bytes = directory_bytes(store_dir);
  // Bound the group layer at half its size, so every save evicts.
  const uint64_t group_limit =
      fs::file_size(fs::path(store_dir) / "groups.txt") / 2;

  const auto& suite = gpumas::workloads::suite();
  const sched::QueueDistribution dists[] = {
      sched::QueueDistribution::kEqual, sched::QueueDistribution::kMOriented,
      sched::QueueDistribution::kMCOriented,
      sched::QueueDistribution::kCOriented,
      sched::QueueDistribution::kAOriented};

  std::vector<WarmRound> rounds;
  const std::vector<double> walls = measure_rounds(opt.seconds, [&](int k) {
    Tracer::Span span(tracer, "bench.round");
    WarmRound r;
    profile::ProfileCache cache;
    cache.set_group_byte_limit(group_limit);
    {
      Tracer::Span s(tracer, "store.load");
      cache.load_store_if_exists(store_dir);
      r.load_s = s.stop();
    }
    r.group_entries = cache.group_count();
    const double cpu0 = process_cpu_seconds();
    std::vector<Tracer::Clock::time_point> done;
    exp::RunHooks hooks;
    hooks.on_result = [&](size_t, const exp::ScenarioResult&) {
      done.push_back(Tracer::Clock::now());
    };
    std::vector<exp::ScenarioResult> results;
    {
      Tracer::Span s(tracer, "exp.run");
      exp::ExperimentRunner runner(cache, opt.threads);
      results = runner.run(specs, {}, hooks);
      r.run_s = s.stop();
    }
    r.pool_busy_frac = (process_cpu_seconds() - cpu0) / (r.run_s * opt.threads);
    const auto end = Tracer::Clock::now();
    std::sort(done.begin(), done.end());
    const size_t idle = done.size() > static_cast<size_t>(opt.threads)
                            ? done.size() - static_cast<size_t>(opt.threads)
                            : 0;
    r.tail_s = std::chrono::duration<double>(end - done.at(idle)).count();
    {
      Tracer::Span s(tracer, "exp.dump");
      r.dump = dump_results(results);
      r.dump_s = s.stop();
    }
    r.stp_gain_pct = stp_gains(results);

    // ILP planning of seeded queues, with the warm profiles and model.
    std::vector<profile::AppProfile> profiles;
    {
      Tracer::Span s(tracer, "profile.suite_profiles");
      profiles = cache.suite_profiles(suite, cfg, specs.front().thresholds);
      r.suite_s = s.stop();
    }
    std::shared_ptr<const gpumas::interference::SlowdownModel> model;
    {
      Tracer::Span s(tracer, "interference.model");
      model = cache.model(cfg, suite, profiles,
                          specs.front().model_samples_per_cell, false,
                          opt.threads);
      r.model_s = s.stop();
    }
    for (size_t d = 0; d < std::size(dists); ++d) {
      const auto queue =
          sched::make_queue(suite, profiles, dists[d], opt.plan_queue_length,
                            gpumas::hash_combine(opt.seed, d));
      for (const int nc : {2, 3}) {
        gpumas::ilp::MatchingProblem problem;
        {
          Tracer::Span s(tracer, "sched.build_matching_problem");
          problem = sched::build_matching_problem(queue, nc, *model);
        }
        Tracer::Span s(tracer, "ilp.solve_matching");
        const gpumas::ilp::MatchingSolution sol =
            gpumas::ilp::solve_matching(problem);
        r.solve_us.push_back(s.stop() * 1e6);
        r.nodes += sol.nodes_explored;
        report.check(sol.feasible, "ILP plan infeasible");
      }
    }

    const fs::path out = root / ("out-" + std::to_string(k));
    {
      Tracer::Span s(tracer, "store.merge");
      r.conflicts = cache.merge_store(worker_dir);
      r.merge_s = s.stop();
    }
    {
      Tracer::Span s(tracer, "store.save");
      cache.save_store(out.string());
      r.save_s = s.stop();
    }
    r.evicted = cache.lifecycle_stats().evicted_groups;
    r.quarantined = cache.quarantine_stats().total();
    r.sims = cache.misses() + cache.model_misses() + cache.group_misses();
    r.group_hits = cache.group_hits();
    r.group_misses = cache.group_misses();
    rounds.push_back(std::move(r));
    const double wall = span.stop();
    fs::remove_all(out);
    return wall;
  });

  const WarmRound& first = rounds.front();
  for (const WarmRound& r : rounds) {
    report.check(r.sims == 0, "the warm round simulated");
    report.check(r.quarantined == 0 && r.conflicts == 0,
                 "the warm round quarantined store entries");
    report.check(r.dump == cold.dump,
                 "the warm dump differs from the cold build's");
    report.check(r.stp_gain_pct == cold.stp_gain_pct,
                 "the warm STP gains differ from the cold build's");
    report.check(r.evicted == first.evicted && r.nodes == first.nodes &&
                     r.group_entries == first.group_entries,
                 "warm rounds disagree on evictions, ILP nodes or entries");
  }
  report.check(cold.batch_profile_misses == 0 && cold.batch_model_misses == 0,
               "the cold build's batch re-ran the profile or model stage");
  check_digest(opt, "store_warm", digest(cold.dump), report);

  std::vector<double> solve_us;
  double total = 0;
  for (const WarmRound& r : rounds) {
    solve_us.insert(solve_us.end(), r.solve_us.begin(), r.solve_us.end());
  }
  for (const double w : walls) total += w;
  const double load_s = median_of(rounds, &WarmRound::load_s);

  report.set("wall_s", median(walls));
  // The rounds simulate nothing: the run's simulations are the set-up's.
  report.set("sim_minsn_per_s",
             static_cast<double>(cold.sim_thread_insns) / 1e6 / cold.cpu_s);
  report.set("warm_rounds_per_s", static_cast<double>(walls.size()) / total);
  set_stp_gains(report, first.stp_gain_pct);

  report.set("profile.suite_s", median_of(rounds, &WarmRound::suite_s));
  report.set("interference.model_s", median_of(rounds, &WarmRound::model_s));
  report.set("exp.batch_s", median_of(rounds, &WarmRound::run_s));
  report.set("exp.pool_busy_frac",
             median_of(rounds, &WarmRound::pool_busy_frac));
  report.set("exp.tail_s", median_of(rounds, &WarmRound::tail_s));
  report.set("exp.group_sims", static_cast<double>(first.group_misses));
  report.set("exp.group_hit_rate",
             static_cast<double>(first.group_hits) /
                 static_cast<double>(first.group_hits + first.group_misses));
  report.set("exp.dump_s", median_of(rounds, &WarmRound::dump_s));
  report.set("store.load_s", load_s);
  report.set("store.load_mb_per_s",
             static_cast<double>(store_bytes) / 1e6 / load_s);
  report.set("store.merge_s", median_of(rounds, &WarmRound::merge_s));
  report.set("store.save_s", median_of(rounds, &WarmRound::save_s));
  report.set("store.bytes", static_cast<double>(store_bytes));
  report.set("store.group_entries", static_cast<double>(first.group_entries));
  report.set("store.evicted_groups", static_cast<double>(first.evicted));
  report.set("store.quarantined", static_cast<double>(first.quarantined));
  report.set_tail("store.insert_us", insert_us);
  report.set_tail("ilp.solve_us", solve_us);
  report.set("ilp.nodes", static_cast<double>(first.nodes));
  report.set("sched.warm_run_ms", median_of(rounds, &WarmRound::run_s) * 1e3);
  zero_unset(report, {"sim.", "sampled_", "profile.", "interference.", "exp."});
  fs::remove_all(root);
}

}  // namespace perfbench
