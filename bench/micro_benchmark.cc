// The micro-benchmark gates: one binary, one registered gate per run.
//
//   micro_benchmark <gate> [flags]
//
//   sim     Simulator fast path. Each scenario runs with idle-cycle
//           skipping on and off; the two RunResults must be
//           byte-identical (cycles and every AppStats counter). Reports
//           wall time, ticked cycles/s and the skipped-cycle fraction.
//           --min-speedup gates the memory-latency-bound pair and
//           --max-compute-regression the compute-bound solo.
//   sample  Sampled-mode accuracy. Each scenario runs detailed (the
//           reference) and sampled (GpuConfig::sim_mode = kSampled). The
//           per-app IPC error must stay under --max-ipc-error percent
//           (default 2) and each pair member's slowdown error under
//           --max-slowdown-error percent (default 3). Slowdowns are
//           mode-consistent: sampled co-runs over sampled solos, so what a
//           --sim-mode sampled bench computes is what gets gated.
//           --min-speedup gates the memory-latency-bound pair.
//   exp     Warm artifact store. One policy-grid batch runs cold into a
//           fresh scratch store, then warm against it. The warm run must
//           simulate nothing at any store layer and render result records
//           byte-identical to the cold run, and the cold run may simulate
//           at most n(n+1)/2 + n groups for the n-app suite (14 for n=4;
//           with both the symmetric-matrix and the cross-policy group
//           dedupe this batch simulates 11, without them the n(n-1) = 12
//           matrix co-runs plus the un-shared queue groups exceed it —
//           losing only one dedupe may stay under it for a suite this
//           small). --store names a SCRATCH directory the gate deletes; a
//           non-empty one is refused so a real store cannot be lost.
//
// Each gate prints a table to stdout and, with --json FILE, writes
// BENCH_<gate>.json for CI artifacts. A gate accepts only the flags it
// declares in the registry below.
//
// Exit codes, the same for every gate: 0 ok; 1 a blocking gate failed
// (identity, accuracy or warm store: correctness, always a CI blocker);
// 2 usage error or an unwritable --json/--store path (a missing artifact
// must not pass silently); 3 a throughput threshold failed (informational
// in CI, where wall-clock numbers are noisy). The JSON is written before
// any gate is checked, so the artifact survives a red gate.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/atomic_file.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "exp/result_io.h"
#include "sim/gpu.h"
#include "workloads/suite.h"

namespace {

using namespace gpumas;

// ---------------------------------------------------------------- flags

// A usage error, or a --store path the exp gate cannot use: exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string json;
  std::string store;  // exp: empty = a PID-suffixed temp directory
  int reps = 1;
  int threads = 4;
  double min_speedup = 0.0;             // 0 = off
  double max_compute_regression = 0.0;  // 0 = off
  double max_ipc_error = 2.0;           // percent
  double max_slowdown_error = 3.0;      // percent
};

int int_at_least(const std::string& flag, const std::string& v, int min) {
  const auto n = bench::parse_int(v);
  if (!n || *n < min) {
    throw UsageError(flag + " wants an integer >= " + std::to_string(min) +
                     ", got " + v);
  }
  return *n;
}

double positive(const std::string& flag, const std::string& v) {
  const auto d = bench::parse_double(v);
  if (!d || !std::isfinite(*d) || *d <= 0.0) {
    throw UsageError(flag + " wants a positive finite number, got " + v);
  }
  return *d;
}

struct Flag {
  std::string name;
  std::string metavar;
  void (*set)(Options&, const std::string& flag, const std::string& value);
};

const std::vector<Flag>& flags() {
  using S = const std::string&;
  static const std::vector<Flag> kFlags = {
      {"--json", "FILE", [](Options& o, S, S v) { o.json = v; }},
      {"--reps", "N",
       [](Options& o, S f, S v) { o.reps = int_at_least(f, v, 1); }},
      {"--threads", "N",
       [](Options& o, S f, S v) { o.threads = int_at_least(f, v, 1); }},
      {"--store", "DIR", [](Options& o, S, S v) { o.store = v; }},
      {"--min-speedup", "X",
       [](Options& o, S f, S v) { o.min_speedup = positive(f, v); }},
      {"--max-compute-regression", "X",
       [](Options& o, S f, S v) {
         o.max_compute_regression = positive(f, v);
       }},
      {"--max-ipc-error", "PCT",
       [](Options& o, S f, S v) { o.max_ipc_error = positive(f, v); }},
      {"--max-slowdown-error", "PCT",
       [](Options& o, S f, S v) { o.max_slowdown_error = positive(f, v); }},
  };
  return kFlags;
}

const Flag& flag_named(const std::string& name) {
  for (const Flag& f : flags()) {
    if (f.name == name) return f;
  }
  throw std::logic_error("unregistered flag " + name);
}

// ---------------------------------------------------------------- artifact

// An ordered JSON object: fields render in insertion order, numbers fixed
// to six places, nested objects and arrays indented two spaces per level.
class Json {
 public:
  Json& count(const std::string& key, uint64_t v) {
    return scalar(key, std::to_string(v));
  }
  Json& number(const std::string& key, double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(6) << v;
    return scalar(key, os.str());
  }
  Json& flag(const std::string& key, bool v) {
    return scalar(key, v ? "true" : "false");
  }
  Json& text(const std::string& key, const std::string& v) {
    return scalar(key, "\"" + v + "\"");
  }
  Json& object(const std::string& key, Json v) {
    fields_.push_back({key, "", {std::move(v)}, false});
    return *this;
  }
  Json& array(const std::string& key, std::vector<Json> v) {
    fields_.push_back({key, "", std::move(v), true});
    return *this;
  }

  std::string render(int indent = 0) const {
    const std::string pad(static_cast<size_t>(indent) + 2, ' ');
    std::string out = "{\n";
    for (size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      out += pad + "\"" + f.key + "\": ";
      if (f.is_array) {
        out += "[\n";
        for (size_t j = 0; j < f.nested.size(); ++j) {
          out += pad + "  " + f.nested[j].render(indent + 4) +
                 (j + 1 < f.nested.size() ? ",\n" : "\n");
        }
        out += pad + "]";
      } else {
        out += f.nested.empty() ? f.scalar : f.nested[0].render(indent + 2);
      }
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    return out + std::string(static_cast<size_t>(indent), ' ') + "}";
  }

 private:
  struct Field {
    std::string key;
    std::string scalar;       // a rendered scalar, when nested is empty
    std::vector<Json> nested;  // one object, or the array's items
    bool is_array = false;
  };
  Json& scalar(const std::string& key, std::string v) {
    fields_.push_back({key, std::move(v), {}, false});
    return *this;
  }
  std::vector<Field> fields_;
};

bool write_artifact(const std::string& path, const Json& doc) {
  try {
    // Atomic replace (common/atomic_file.h): a crash mid-write leaves the
    // previous JSON intact, never a torn file for CI to parse.
    common::atomic_write_file(path, doc.render() + "\n");
  } catch (const std::exception& e) {
    std::cerr << "cannot write --json file " << path << ": " << e.what()
              << "\n";
    return false;
  }
  std::cerr << "[bench] wrote " << path << "\n";
  return true;
}

// ---------------------------------------------------------------- shared

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Timed {
  sim::RunResult result;
  double wall_ms = 0.0;
  uint64_t ticked = 0;
  uint64_t skipped = 0;
  uint64_t windows = 0;  // sampled-mode measurement windows
};

// Runs `kernels` on a fresh device `reps` times and keeps the best
// (least-disturbed) wall time. The simulation is deterministic, so every
// repetition's counters are the first one's.
Timed run_best(const sim::GpuConfig& cfg,
               const std::vector<sim::KernelParams>& kernels, int reps) {
  Timed best;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Gpu gpu(cfg);
    for (const auto& kp : kernels) gpu.launch(kp);
    sim::RunResult result;
    const double ms = time_ms([&] { result = gpu.run_to_completion(); });
    if (rep > 0) {
      best.wall_ms = std::min(best.wall_ms, ms);
      continue;
    }
    best.result = std::move(result);
    best.wall_ms = ms;
    best.ticked = gpu.ticked_cycles();
    best.skipped = gpu.skipped_cycles();
    best.windows = gpu.sample_windows();
  }
  return best;
}

// The synthetic kernels of the simulator gates. kTiled is a cache-friendly
// stream, compute-bound at mem_ratio 0.02 and bandwidth-bound at 0.3.
// kLatency is GUPS-class (divergent random access, no mlp, near-zero IPC):
// most cycles are stalls on DRAM round trips.
enum Shape { kTiled, kLatency };

sim::KernelParams micro_kernel(Shape shape, const std::string& name,
                               double mem_ratio, uint64_t seed,
                               int insns_per_warp) {
  sim::KernelParams kp;
  kp.name = name;
  kp.num_blocks = 60;
  kp.insns_per_warp = insns_per_warp;
  kp.mem_ratio = mem_ratio;
  kp.seed = seed;
  if (shape == kTiled) {
    kp.warps_per_block = 4;
    kp.pattern = sim::AccessPattern::kTiled;
    kp.footprint_bytes = 32ull << 20;
    kp.hot_fraction = 0.7;
    kp.divergence = 2;
    kp.ilp = 4;
    kp.mlp = 4;
  } else {
    kp.warps_per_block = 2;
    kp.pattern = sim::AccessPattern::kRandom;
    kp.footprint_bytes = 512ull << 20;
    kp.divergence = 1;
    kp.burst_lines = 1;
    kp.ilp = 1;
    kp.mlp = 1;
  }
  return kp;
}

struct Scenario {
  std::string name;
  std::vector<sim::KernelParams> kernels;
  bool speedup_gate = false;     // --min-speedup applies here
  bool regression_gate = false;  // --max-compute-regression applies here
};

// What a gate's check returns; main maps it to the exit code.
enum Verdict { kPass = 0, kBlocked = 1, kBelowThreshold = 3 };
using Check = std::function<Verdict()>;

// Records a --min-speedup miss on a scenario that carries the gate.
void check_speedup(const Options& o, const Scenario& s, double speedup,
                   std::vector<std::string>& misses) {
  if (o.min_speedup <= 0.0 || !s.speedup_gate || speedup >= o.min_speedup) {
    return;
  }
  std::ostringstream miss;
  miss << s.name << " speedup " << speedup << " < required " << o.min_speedup;
  misses.push_back(miss.str());
}

// Prints each threshold miss; kBelowThreshold if there was one.
Verdict threshold_verdict(const std::vector<std::string>& misses) {
  for (const std::string& m : misses) std::cerr << "threshold: " << m << "\n";
  return misses.empty() ? kPass : kBelowThreshold;
}

// ---------------------------------------------------------------- sim

// The first counter on which two RunResults differ, or "" if none does.
std::string first_difference(const sim::RunResult& a,
                             const sim::RunResult& b) {
  if (a.cycles != b.cycles) {
    return "cycles " + std::to_string(a.cycles) + " != " +
           std::to_string(b.cycles);
  }
  if (a.apps.size() != b.apps.size()) return "app count differs";
  std::string why;
  for (size_t i = 0; i < a.apps.size(); ++i) {
    sim::for_each_app_stat(
        a.apps[i], b.apps[i], [&](const char* name, uint64_t u, uint64_t v) {
          if (u == v || !why.empty()) return;
          why = "app " + std::to_string(i) + " " + name + " " +
                std::to_string(u) + " != " + std::to_string(v);
        });
  }
  return why;
}

Check run_sim(const Options& o, Json& doc) {
  const std::vector<Scenario> scenarios = {
      {"compute_bound",
       {micro_kernel(kTiled, "micro", 0.02, 3, 500)},
       false,
       true},
      {"memory_bound", {micro_kernel(kTiled, "micro", 0.3, 3, 500)}},
      // Two co-scheduled memory-latency-bound apps: most SM-cycles are
      // DRAM stalls, exactly the cycles the fast path elides and the
      // reference --no-skip loop burns scanning idle schedulers.
      {"memory_pair",
       {micro_kernel(kLatency, "lat", 0.4, 3, 1000),
        micro_kernel(kLatency, "lat2", 0.4, 11, 1000)},
       true},
      // DRAM issues nearly every cycle, so little is skippable: this bounds
      // the fast path's overhead on saturated co-runs.
      {"bandwidth_pair",
       {micro_kernel(kTiled, "micro", 0.3, 3, 500),
        micro_kernel(kTiled, "micro2", 0.3, 11, 500)}},
      {"mixed_pair",
       {micro_kernel(kTiled, "micro", 0.02, 3, 500),
        micro_kernel(kTiled, "micro2", 0.3, 11, 500)}},
      {"suite_pair_HS_GUPS",
       {workloads::benchmark("HS"), workloads::benchmark("GUPS")}},
      // BLK alone on all 60 SMs keeps every slice's L2 MSHRs saturated: the
      // case the L2 admission memo targets (each refused head is probed
      // once on the fast path, every cycle on the reference loop).
      {"suite_solo_BLK", {workloads::benchmark("BLK")}},
  };
  sim::GpuConfig skip_cfg;
  sim::GpuConfig noskip_cfg;
  noskip_cfg.skip_idle_cycles = false;

  Table table({"scenario", "cycles", "ticked", "skipped%", "skip ms",
               "no-skip ms", "speedup", "ticked cycles/s", "identical"});
  std::vector<Json> rows;
  std::vector<std::string> misses;
  bool identity_ok = true;
  for (const Scenario& s : scenarios) {
    const Timed skip = run_best(skip_cfg, s.kernels, o.reps);
    const Timed noskip = run_best(noskip_cfg, s.kernels, o.reps);
    const double skipped_fraction =
        ratio(static_cast<double>(skip.skipped),
              static_cast<double>(skip.result.cycles));
    const double speedup = ratio(noskip.wall_ms, skip.wall_ms);
    const double ticked_per_sec =
        ratio(static_cast<double>(skip.ticked) * 1000.0, skip.wall_ms);
    const std::string why = first_difference(skip.result, noskip.result);
    const bool same = why.empty();
    if (!same) {
      identity_ok = false;
      std::cerr << "BYTE-IDENTITY VIOLATION in " << s.name << ": " << why
                << "\n";
    }
    check_speedup(o, s, speedup, misses);
    if (o.max_compute_regression > 0.0 && s.regression_gate &&
        skip.wall_ms > noskip.wall_ms * o.max_compute_regression) {
      std::ostringstream miss;
      miss << s.name << " skip wall " << skip.wall_ms << " ms exceeds "
           << o.max_compute_regression << "x no-skip (" << noskip.wall_ms
           << " ms)";
      misses.push_back(miss.str());
    }

    table.begin_row()
        .cell(s.name)
        .cell(skip.result.cycles)
        .cell(skip.ticked)
        .cell(100.0 * skipped_fraction, 1)
        .cell(skip.wall_ms, 2)
        .cell(noskip.wall_ms, 2)
        .cell(speedup, 2)
        .cell(ticked_per_sec, 0)
        .cell(std::string(same ? "yes" : "NO"));
    rows.push_back(Json()
                       .text("name", s.name)
                       .count("cycles", skip.result.cycles)
                       .count("ticked_cycles", skip.ticked)
                       .count("skipped_cycles", skip.skipped)
                       .number("skipped_fraction", skipped_fraction)
                       .number("wall_ms_skip", skip.wall_ms)
                       .number("wall_ms_noskip", noskip.wall_ms)
                       .number("speedup", speedup)
                       .number("ticked_cycles_per_sec", ticked_per_sec)
                       .flag("identical", same));
  }
  table.print(std::cout);
  doc.count("reps", static_cast<uint64_t>(o.reps))
      .array("scenarios", std::move(rows));
  return [identity_ok, misses] {
    return identity_ok ? threshold_verdict(misses) : kBlocked;
  };
}

// ---------------------------------------------------------------- sample

double pct_error(double approx, double exact) {
  return exact == 0.0 ? 0.0 : 100.0 * std::abs(approx - exact) / exact;
}

Check run_sample(const Options& o, Json& doc) {
  // The tiled kernels run ~12x the sim gate's length so a run spans enough
  // sampling windows for a stable rate estimate, and the launch/drain
  // transients (which sampling cannot compress) amortize below the gates.
  const std::vector<Scenario> scenarios = {
      // Detailed mode already skips the stall cycles, so the speedup
      // measured here is sampling's own contribution on top of it.
      {"memory_pair",
       {micro_kernel(kLatency, "lat", 0.4, 3, 3000),
        micro_kernel(kLatency, "lat2", 0.4, 11, 3000)},
       true},
      {"bandwidth_pair",
       {micro_kernel(kTiled, "bw", 0.3, 3, 6000),
        micro_kernel(kTiled, "bw2", 0.3, 11, 6000)}},
      {"compute_pair",
       {micro_kernel(kTiled, "cp", 0.02, 3, 6000),
        micro_kernel(kTiled, "cp2", 0.02, 11, 6000)}},
      {"mixed_pair",
       {micro_kernel(kTiled, "cp", 0.02, 3, 6000),
        micro_kernel(kTiled, "bw2", 0.3, 11, 6000)}},
  };
  sim::GpuConfig cfg[2];  // [0] detailed, [1] sampled
  cfg[1].sim_mode = sim::SimMode::kSampled;
  // A 20k-cycle period (2k detailed + 18k skipped) instead of the 100k
  // default: these runs finish in ~100-400k cycles, and a short period
  // both gives the estimator enough windows and lets a phase change
  // (mixed_pair's compute app finishing first) be re-measured within one
  // period. The 10x duty ceiling stays above the 5x acceptance speedup.
  cfg[1].sample_detail_cycles = 2'000;
  cfg[1].sample_skip_cycles = 18'000;

  // Solo runs for the slowdown denominators, memoized per kernel and mode.
  std::map<std::string, Timed> solo[2];
  const auto solo_cycles = [&](const sim::KernelParams& kp, int mode) {
    auto it = solo[mode].find(kp.name);
    if (it == solo[mode].end()) {
      it = solo[mode].emplace(kp.name, run_best(cfg[mode], {kp}, o.reps)).first;
    }
    return static_cast<double>(it->second.result.apps[0].finish_cycle);
  };

  Table table({"scenario", "cycles (detailed)", "cycles (sampled)", "windows",
               "IPC err%", "slowdown err%", "detailed ms", "sampled ms",
               "speedup"});
  std::vector<Json> rows;
  std::vector<std::string> violations;
  std::vector<std::string> misses;
  double worst_ipc = 0.0;
  double worst_slowdown = 0.0;
  for (const Scenario& s : scenarios) {
    const Timed detailed = run_best(cfg[0], s.kernels, o.reps);
    const Timed sampled = run_best(cfg[1], s.kernels, o.reps);
    const double speedup = ratio(detailed.wall_ms, sampled.wall_ms);
    double ipc_error = 0.0;
    double slowdown_error = 0.0;
    for (size_t a = 0; a < s.kernels.size(); ++a) {
      ipc_error = std::max(ipc_error, pct_error(sampled.result.app_ipc(a),
                                                detailed.result.app_ipc(a)));
      if (s.kernels.size() < 2) continue;
      const double sd_detailed =
          static_cast<double>(detailed.result.apps[a].finish_cycle) /
          solo_cycles(s.kernels[a], 0);
      const double sd_sampled =
          static_cast<double>(sampled.result.apps[a].finish_cycle) /
          solo_cycles(s.kernels[a], 1);
      slowdown_error =
          std::max(slowdown_error, pct_error(sd_sampled, sd_detailed));
    }
    worst_ipc = std::max(worst_ipc, ipc_error);
    worst_slowdown = std::max(worst_slowdown, slowdown_error);
    std::ostringstream bad;
    if (ipc_error > o.max_ipc_error) {
      bad << "ACCURACY VIOLATION in " << s.name << ": IPC error " << ipc_error
          << "% > allowed " << o.max_ipc_error << "%\n";
    }
    if (slowdown_error > o.max_slowdown_error) {
      bad << "ACCURACY VIOLATION in " << s.name << ": slowdown error "
          << slowdown_error << "% > allowed " << o.max_slowdown_error << "%\n";
    }
    if (!bad.str().empty()) violations.push_back(bad.str());
    check_speedup(o, s, speedup, misses);

    table.begin_row()
        .cell(s.name)
        .cell(detailed.result.cycles)
        .cell(sampled.result.cycles)
        .cell(sampled.windows)
        .cell(ipc_error, 2)
        .cell(slowdown_error, 2)
        .cell(detailed.wall_ms, 2)
        .cell(sampled.wall_ms, 2)
        .cell(speedup, 2);
    rows.push_back(Json()
                       .text("name", s.name)
                       .count("cycles_detailed", detailed.result.cycles)
                       .count("cycles_sampled", sampled.result.cycles)
                       .count("sample_windows", sampled.windows)
                       .count("ticked_cycles_detailed", detailed.ticked)
                       .count("ticked_cycles_sampled", sampled.ticked)
                       .number("max_ipc_error_pct", ipc_error)
                       .number("max_slowdown_error_pct", slowdown_error)
                       .number("wall_ms_detailed", detailed.wall_ms)
                       .number("wall_ms_sampled", sampled.wall_ms)
                       .number("speedup", speedup)
                       .flag("speedup_gate", s.speedup_gate));
  }
  table.print(std::cout);
  doc.count("reps", static_cast<uint64_t>(o.reps))
      .array("scenarios", std::move(rows));
  return [=] {
    for (const std::string& v : violations) std::cerr << v;
    if (!violations.empty()) return kBlocked;
    std::cout << "sample accuracy gates passed (worst IPC error "
              << std::setprecision(2) << std::fixed << worst_ipc
              << "% <= " << o.max_ipc_error << "%, worst slowdown error "
              << worst_slowdown << "% <= " << o.max_slowdown_error << "%)\n";
    return threshold_verdict(misses);
  };
}

// ---------------------------------------------------------------- exp

// The exp_test fixture scaled for wall-clock relevance: a small device and
// a four-class synthetic suite, so the cold run measures a real 4x4 matrix
// without paying for the 14-benchmark suite.
sim::GpuConfig small_gpu() {
  sim::GpuConfig cfg;
  cfg.num_sms = 12;
  cfg.num_channels = 2;
  cfg.l2.size_bytes = 64 * 1024;
  return cfg;
}

sim::KernelParams tiny_kernel(const std::string& name, double mem_ratio,
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

std::vector<sim::KernelParams> tiny_suite() {
  return {tiny_kernel("mem", 0.3, 1), tiny_kernel("cpu", 0.02, 2),
          tiny_kernel("mid", 0.1, 3), tiny_kernel("mix", 0.05, 4)};
}

profile::ClassifierThresholds tiny_thresholds() {
  profile::ClassifierThresholds t;
  t.alpha = 36.0;
  t.beta = 32.0;
  t.gamma = 25.0;
  t.epsilon = 150.0;
  return t;
}

// Two distributions x three policies. The ILP policies force the model;
// Even only simulates queue groups.
std::vector<exp::ScenarioSpec> grid_batch() {
  std::vector<exp::ScenarioSpec> batch;
  for (const auto dist : {sched::QueueDistribution::kEqual,
                          sched::QueueDistribution::kMOriented}) {
    for (const auto policy : {sched::Policy::kEven, sched::Policy::kIlp,
                              sched::Policy::kIlpSmra}) {
      exp::ScenarioSpec spec;
      spec.name = std::string(sched::distribution_name(dist)) + "/" +
                  sched::policy_name(policy);
      spec.config = small_gpu();
      spec.thresholds = tiny_thresholds();
      spec.queue = exp::QueueSpec::Distribution(dist, 6, 17);
      spec.policy = policy;
      spec.nc = 2;
      batch.push_back(spec);
    }
  }
  return batch;
}

struct Phase {
  double wall_ms = 0.0;
  uint64_t profile_sims = 0;
  uint64_t model_sims = 0;
  uint64_t group_sims = 0;
  uint64_t group_hits = 0;
  std::string records;
};

Phase run_phase(profile::ProfileCache& cache, int threads,
                const std::vector<exp::ScenarioSpec>& batch) {
  exp::ExperimentRunner engine(cache, threads, tiny_suite());
  std::vector<exp::ScenarioResult> results;
  Phase p;
  p.wall_ms = time_ms([&] { results = engine.run(batch); });
  p.profile_sims = cache.misses();
  p.model_sims = cache.model_misses();
  p.group_sims = cache.group_misses();
  p.group_hits = cache.group_hits();
  for (size_t i = 0; i < results.size(); ++i) {
    p.records += exp::result_io::to_string(results[i], /*batch=*/0,
                                           static_cast<int>(i));
  }
  return p;
}

Check run_exp(const Options& o, Json& doc) {
  namespace fs = std::filesystem;
  // PID-suffixed so concurrent invocations (two terminals, parallel CI
  // jobs on one runner) cannot delete each other's scratch store.
  const std::string store_dir =
      !o.store.empty()
          ? o.store
          : (fs::temp_directory_path() /
             ("gpumas_micro_exp_store." + std::to_string(::getpid())))
                .string();
  // The store is SCRATCH: deleted before the cold phase (so it really is
  // cold) and after the warm one. A user-supplied directory with content
  // is refused: pointing --store at a real artifact store would destroy it.
  std::error_code ec;
  if (!o.store.empty() && fs::exists(store_dir, ec) &&
      !fs::is_empty(store_dir, ec)) {
    throw UsageError("--store " + store_dir +
                     " is not empty; this benchmark DELETES its scratch "
                     "store. Pass a fresh directory.");
  }
  fs::remove_all(store_dir);

  const auto batch = grid_batch();
  Phase cold;
  {
    profile::ProfileCache cache;
    cold = run_phase(cache, o.threads, batch);
    try {
      cache.save_store(store_dir);
    } catch (const std::exception& e) {
      throw UsageError("cannot save store to " + store_dir + ": " + e.what());
    }
  }
  // Warm: exactly what a fresh process sees — load the store, run the same
  // batch.
  Phase warm;
  {
    profile::ProfileCache cache;
    if (!cache.load_store_if_exists(store_dir)) {
      throw UsageError("store " + store_dir + " vanished between the phases");
    }
    warm = run_phase(cache, o.threads, batch);
  }
  fs::remove_all(store_dir);
  const double group_hit_rate =
      ratio(static_cast<double>(warm.group_hits),
            static_cast<double>(warm.group_hits + warm.group_sims));
  const double speedup = ratio(cold.wall_ms, warm.wall_ms);

  Table table({"phase", "wall ms", "profile sims", "model sims", "group sims",
               "group hits"});
  const auto report_phase = [&](const char* name, const Phase& p) {
    table.begin_row()
        .cell(std::string(name))
        .cell(p.wall_ms, 1)
        .cell(p.profile_sims)
        .cell(p.model_sims)
        .cell(p.group_sims)
        .cell(p.group_hits);
    return Json()
        .number("wall_ms", p.wall_ms)
        .count("profile_sims", p.profile_sims)
        .count("model_sims", p.model_sims)
        .count("group_sims", p.group_sims)
        .count("group_hits", p.group_hits);
  };
  doc.count("threads", static_cast<uint64_t>(o.threads))
      .object("cold", report_phase("cold", cold))
      .object("warm", report_phase("warm", warm)
                          .number("group_hit_rate", group_hit_rate))
      .number("speedup", speedup)
      .flag("byte_identical", cold.records == warm.records);
  table.print();
  std::cout << std::fixed << std::setprecision(2) << "warm speedup: "
            << speedup << "x, warm group hit rate: " << std::setprecision(3)
            << group_hit_rate << "\n";

  return [cold, warm] {
    // The cold budget: symmetric matrix dedupe + queue groups, most of
    // which alias matrix pairs or each other (see the header comment for
    // what it can and cannot catch at this suite size).
    const uint64_t n = tiny_suite().size();
    const uint64_t cold_budget = n * (n + 1) / 2 + n;
    if (cold.group_sims > cold_budget) {
      std::cerr << "FAIL: the cold run simulated " << cold.group_sims
                << " groups, over the n(n+1)/2 + n = " << cold_budget
                << " budget for n=" << n << " suite apps\n";
      return kBlocked;
    }
    if (warm.profile_sims != 0 || warm.model_sims != 0 ||
        warm.group_sims != 0) {
      std::cerr << "FAIL: the warm run simulated (profiles="
                << warm.profile_sims << " models=" << warm.model_sims
                << " groups=" << warm.group_sims
                << "); every artifact should have come from the store\n";
      return kBlocked;
    }
    if (cold.records != warm.records) {
      std::cerr << "FAIL: warm result records differ from the cold run\n";
      return kBlocked;
    }
    std::cout << "warm run: zero simulations, byte-identical records\n";
    return kPass;
  };
}

// ---------------------------------------------------------------- registry

struct Gate {
  std::string name;
  std::vector<std::string> flags;
  Check (*run)(const Options&, Json&);
};

const std::vector<Gate>& gates() {
  static const std::vector<Gate> kGates = {
      {"sim",
       {"--json", "--reps", "--min-speedup", "--max-compute-regression"},
       run_sim},
      {"sample",
       {"--json", "--reps", "--min-speedup", "--max-ipc-error",
        "--max-slowdown-error"},
       run_sample},
      {"exp", {"--json", "--threads", "--store"}, run_exp},
  };
  return kGates;
}

std::string usage(const char* argv0) {
  std::ostringstream os;
  os << "usage: " << argv0 << " <gate> [flags]\n";
  for (const Gate& g : gates()) {
    os << "  " << std::left << std::setw(7) << g.name;
    for (const std::string& f : g.flags) {
      os << " [" << f << " " << flag_named(f).metavar << "]";
    }
    os << "\n";
  }
  return os.str();
}

const Gate& parse_args(int argc, char** argv, Options& o) {
  if (argc < 2) throw UsageError("no gate named");
  const std::string name = argv[1];
  const auto gate =
      std::find_if(gates().begin(), gates().end(),
                   [&](const Gate& g) { return g.name == name; });
  if (gate == gates().end()) throw UsageError("unknown gate '" + name + "'");
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::find(gate->flags.begin(), gate->flags.end(), arg) ==
        gate->flags.end()) {
      throw UsageError("gate '" + name + "' takes no flag " + arg);
    }
    if (i + 1 >= argc) throw UsageError("missing value for " + arg);
    flag_named(arg).set(o, arg, argv[++i]);
  }
  return *gate;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const Gate* gate = nullptr;
  try {
    gate = &parse_args(argc, argv, opts);
  } catch (const UsageError& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n" << usage(argv[0]);
    return 2;
  }

  Json doc;
  doc.count("version", 1);
  Check check;
  try {
    check = gate->run(opts, doc);
  } catch (const UsageError& e) {
    std::cerr << argv[0] << " " << gate->name << ": " << e.what() << "\n";
    return 2;
  }
  const bool json_ok = opts.json.empty() || write_artifact(opts.json, doc);
  const Verdict verdict = check();
  if (verdict == kBlocked) return 1;
  if (!json_ok) return 2;
  return verdict;
}
