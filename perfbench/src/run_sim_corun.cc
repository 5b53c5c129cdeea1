// sim_corun: the raw simulator on seeded co-run groups, detailed and
// sampled, single-threaded.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "sim/gpu.h"
#include "sim/stats.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/suite.h"

namespace perfbench {

namespace sim = gpumas::sim;

namespace {

struct SimRun {
  sim::RunResult result;
  uint64_t ticked = 0;
  uint64_t skipped = 0;
  uint64_t windows = 0;
  double seconds = 0.0;
};

sim::GpuConfig config_for(sim::SimMode mode) {
  sim::GpuConfig cfg;
  cfg.sim_mode = mode;
  return cfg;
}

// Builds the device for one group: launch every member, then split SMs.
void launch(sim::Gpu& gpu, const CorunGroup& g) {
  for (const std::string& app : g.apps) {
    gpu.launch(gpumas::workloads::benchmark(app));
  }
  gpu.set_partition_counts(g.partition);
}

SimRun simulate(const CorunGroup& g, sim::SimMode mode, Tracer& tracer) {
  SimRun out;
  Tracer::Span span(tracer, mode == sim::SimMode::kDetailed ? "sim.detailed"
                                                            : "sim.sampled");
  sim::Gpu gpu(config_for(mode));
  launch(gpu, g);
  out.result = gpu.run_to_completion();
  out.seconds = span.stop();
  out.ticked = gpu.ticked_cycles();
  out.skipped = gpu.skipped_cycles();
  out.windows = gpu.sample_windows();
  return out;
}

uint64_t kernel_warp_insns(const std::string& app) {
  const sim::KernelParams& kp = gpumas::workloads::benchmark(app);
  return static_cast<uint64_t>(kp.num_blocks) *
         static_cast<uint64_t>(kp.warps_per_block) *
         static_cast<uint64_t>(kp.insns_per_warp);
}

// The AppStats conservation invariants of one finished run.
void check_invariants(const CorunGroup& g, const SimRun& run,
                      const std::string& what, Report& report) {
  const sim::RunResult& r = run.result;
  report.check(r.cycles == run.ticked + run.skipped,
               what + ": cycles != ticked + skipped");
  bool dram = true, fills = true, complete = true;
  uint64_t expected = 0;
  for (size_t a = 0; a < r.apps.size(); ++a) {
    const sim::AppStats& s = r.apps[a];
    dram = dram && s.dram_transactions <= s.l2_accesses - s.l2_hits;
    fills = fills && s.l1_fills <= s.l1_accesses - s.l1_hits;
    complete = complete && s.done && s.finish_cycle <= r.cycles &&
               s.warp_insns == kernel_warp_insns(g.apps[a]);
    expected +=
        kernel_warp_insns(g.apps[a]) * static_cast<uint64_t>(r.warp_size);
  }
  report.check(dram, what + ": dram_transactions > l2_accesses - l2_hits");
  report.check(fills, what + ": l1_fills > L1 misses");
  report.check(complete, what + ": an app did not run its whole kernel");
  report.check(r.total_thread_insns() == expected,
               what + ": per-app instructions do not sum to the total");
}

// Every simulated statistic of a run, for the digest and the determinism
// check.
std::string render(const SimRun& run) {
  std::ostringstream os;
  os << "cycles=" << run.result.cycles << " ticked=" << run.ticked
     << " skipped=" << run.skipped << " windows=" << run.windows;
  for (const sim::AppStats& s : run.result.apps) {
    sim::for_each_app_stat(s, s, [&](const char* name, uint64_t v, uint64_t) {
      os << " " << name << "=" << v;
    });
  }
  os << "\n";
  return os.str();
}

struct Round {
  std::vector<SimRun> detailed, sampled;
  std::string rendered;
};

}  // namespace

void run_sim_corun(const Options& opt, Tracer& tracer, Report& report) {
  const int num_sms = sim::GpuConfig{}.num_sms;
  std::vector<CorunGroup> groups;

  // Set-up: draw the groups and build (construct, launch, partition) every
  // device the round will run, in both modes.
  std::vector<double> setups;
  for (int i = 0; i < opt.setup_reps; ++i) {
    Tracer::Span s(tracer, "bench.setup");
    groups = draw_corun_groups(opt.seed, num_sms);
    if (opt.corun_groups > 0 && groups.size() > opt.corun_groups) {
      groups.resize(opt.corun_groups);
    }
    for (const CorunGroup& g : groups) {
      for (const auto mode :
           {sim::SimMode::kDetailed, sim::SimMode::kSampled}) {
        sim::Gpu gpu(config_for(mode));
        launch(gpu, g);
      }
    }
    setups.push_back(s.stop());
  }
  report.set("setup_s", median(setups));
  for (const CorunGroup& g : groups) {
    report.note("group " + g.label() + " " + group_kind_name(g.kind));
  }

  std::vector<Round> rounds;
  const std::vector<double> walls =
      measure_rounds(opt.seconds, [&](int) {
        Tracer::Span s(tracer, "bench.round");
        Round r;
        for (const CorunGroup& g : groups) {
          r.detailed.push_back(simulate(g, sim::SimMode::kDetailed, tracer));
          r.sampled.push_back(simulate(g, sim::SimMode::kSampled, tracer));
          r.rendered += render(r.detailed.back()) + render(r.sampled.back());
        }
        rounds.push_back(std::move(r));
        return s.stop();
      });

  const Round& first = rounds.front();
  for (size_t i = 0; i < groups.size(); ++i) {
    check_invariants(groups[i], first.detailed[i],
                     groups[i].label() + " detailed", report);
    check_invariants(groups[i], first.sampled[i],
                     groups[i].label() + " sampled", report);
  }
  for (size_t k = 1; k < rounds.size(); ++k) {
    report.check(rounds[k].rendered == first.rendered,
                 "round " + std::to_string(k) + " simulated differently");
  }
  check_digest(opt, "sim_corun", digest(first.rendered), report);

  // Timing metrics: per-round aggregates, median over rounds.
  std::vector<double> det_rate, smp_rate, ns_insn, smp_ns_cycle, group_ms;
  std::vector<double> kind_ns[3];
  for (const Round& r : rounds) {
    double det_s = 0, smp_s = 0, kind_s[3] = {0, 0, 0};
    uint64_t insns = 0, warp_insns = 0, smp_cycles = 0;
    uint64_t kind_ticked[3] = {0, 0, 0};
    for (size_t i = 0; i < groups.size(); ++i) {
      const SimRun& d = r.detailed[i];
      const int k = static_cast<int>(groups[i].kind);
      det_s += d.seconds;
      smp_s += r.sampled[i].seconds;
      kind_s[k] += d.seconds;
      kind_ticked[k] += d.ticked;
      insns += d.result.total_thread_insns();
      for (const auto& a : d.result.apps) warp_insns += a.warp_insns;
      smp_cycles += r.sampled[i].result.cycles;
      group_ms.push_back(d.seconds * 1e3);
    }
    det_rate.push_back(static_cast<double>(insns) / 1e6 / det_s);
    smp_rate.push_back(static_cast<double>(insns) / 1e6 / smp_s);
    ns_insn.push_back(det_s * 1e9 / static_cast<double>(warp_insns));
    smp_ns_cycle.push_back(smp_s * 1e9 / static_cast<double>(smp_cycles));
    for (int k = 0; k < 3; ++k) {
      if (kind_ticked[k]) {
        kind_ns[k].push_back(kind_s[k] * 1e9 /
                             static_cast<double>(kind_ticked[k]));
      }
    }
  }
  report.set("wall_s", median(walls));
  report.set("sim_minsn_per_s", median(det_rate));
  report.set("sampled_minsn_per_s", median(smp_rate));
  report.set("sim.ns_per_cycle.mem", median(kind_ns[0]));
  report.set("sim.ns_per_cycle.compute", median(kind_ns[1]));
  report.set("sim.ns_per_cycle.mixed", median(kind_ns[2]));
  report.set("sim.ns_per_warp_insn", median(ns_insn));
  report.set_tail("sim.group_ms", group_ms);
  report.set("sim.sampled.ns_per_cycle", median(smp_ns_cycle));

  // Simulated counts: exact, from the first round.
  uint64_t cycles = 0, skipped = 0, smp_cycles = 0, smp_ticked = 0, windows = 0;
  uint64_t l1a = 0, l1h = 0, l2a = 0, l2h = 0, dram = 0, warp_insns = 0;
  double worst_err = 0.0;
  for (size_t i = 0; i < groups.size(); ++i) {
    const SimRun& d = first.detailed[i];
    const SimRun& s = first.sampled[i];
    cycles += d.result.cycles;
    skipped += d.skipped;
    smp_cycles += s.result.cycles;
    smp_ticked += s.ticked;
    windows += s.windows;
    for (size_t a = 0; a < d.result.apps.size(); ++a) {
      const sim::AppStats& st = d.result.apps[a];
      l1a += st.l1_accesses;
      l1h += st.l1_hits;
      l2a += st.l2_accesses;
      l2h += st.l2_hits;
      dram += st.dram_transactions;
      warp_insns += st.warp_insns;
      const double ipc_d = d.result.app_ipc(a);
      const double ipc_s = s.result.app_ipc(a);
      worst_err = std::max(worst_err, std::fabs(ipc_s / ipc_d - 1.0) * 100.0);
    }
  }
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  report.set("sampled_ipc_err_pct", worst_err);
  report.set("sim.skipped_frac", ratio(skipped, cycles));
  report.set("sim.sampled.ticked_frac", ratio(smp_ticked, smp_cycles));
  report.set("sim.sampled.windows", static_cast<double>(windows));
  report.set("sim.l1_hit_rate", ratio(l1h, l1a));
  report.set("sim.l2_hit_rate", ratio(l2h, l2a));
  report.set("sim.dram_tx_per_kinsn", ratio(dram * 1000, warp_insns));
  zero_unset(report, {"profile.", "interference.", "exp.", "store.", "ilp.",
                      "sched.", "stp_gain", "warm_rounds"});
}

}  // namespace perfbench
