// The three benchmark workloads and what they share.
//
// Every workload is closed loop: set up, then repeat one fixed round of
// work (at least once) until the time budget is spent, and report medians
// over the rounds. Each call into a gpumas layer is wrapped in a
// Tracer::Span named after the layer, which times it and, in a traced run,
// records it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "digests.h"
#include "exp/scenario.h"
#include "profile/profile_cache.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 15.0;    // measuring budget for the rounds
  int threads = 1;          // engine workers (the machine's CPU count)
  std::string work_dir;     // scratch directory for stores; must exist
  Digests digests;

  // Workload sizes. The defaults are the benchmark; tests shrink them.
  int setup_reps = 21;           // repeated set-ups behind setup_s
  size_t corun_groups = 0;       // sim_corun: first N groups (0 = all)
  int grid_queue_length = 8;     // grid_cold queue
  int warm_queue_length = 4;     // store_warm's cold-built grid
  int plan_queue_length = 24;    // store_warm's ILP planning queues
  uint64_t pad_entries = 20000;  // store_warm group-layer padding
};

void run_sim_corun(const Options& opt, Tracer& tracer, Report& report);
void run_grid_cold(const Options& opt, Tracer& tracer, Report& report);
void run_store_warm(const Options& opt, Tracer& tracer, Report& report);

// ---------------------------------------------------------------- shared

// Runs `round` once and then until `seconds` of rounds have elapsed;
// returns each round's wall seconds.
template <typename Round>
std::vector<double> measure_rounds(double seconds, Round round) {
  std::vector<double> walls;
  double spent = 0.0;
  while (walls.empty() || spent < seconds) {
    walls.push_back(round(static_cast<int>(walls.size())));
    spent += walls.back();
  }
  return walls;
}

double process_cpu_seconds();  // user + system time of this process
double peak_rss_mb();

// Sets the metrics every run ends with: peak_rss_mb, error_rate and, when
// the tracer is enabled, the trace-derived ones (self time per layer, the
// share of the rounds the layer spans account for, the span count and the
// recording overhead).
void finish_report(const Tracer& tracer, Report& report);

// Sets every per-layer metric whose name starts with one of `prefixes` and
// is still unset to 0: the layers a workload does not exercise.
void zero_unset(Report& report, const std::vector<std::string>& prefixes);

// The figure-bench path on an empty store, as grid_cold runs it and as
// store_warm's set-up builds its store: suite profiles and the model with
// the engine's own arguments, the engine batch, the result dump and the
// store save.
struct ColdBuild {
  std::vector<gpumas::exp::ScenarioResult> results;
  std::string dump;
  double suite_s = 0, model_s = 0, batch_s = 0, dump_s = 0, save_s = 0;
  double pool_busy_frac = 0, tail_s = 0;
  uint64_t solo_sims = 0, corun_sims = 0;        // before the batch
  uint64_t scalability_sims = 0, group_sims = 0;  // during the batch
  uint64_t group_hits = 0;
  uint64_t batch_profile_misses = 0, batch_model_misses = 0;
  uint64_t sim_thread_insns = 0;  // every simulation behind the store
  double cpu_s = 0;               // process CPU time of the whole build
  uint64_t store_bytes = 0;
  double skipped_frac = 0;        // over the executed groups
  std::vector<double> stp_gain_pct;  // per non-Even policy of the grid
};
ColdBuild cold_build(gpumas::profile::ProfileCache& cache,
                     const std::vector<gpumas::exp::ScenarioSpec>& specs,
                     int threads, const std::string& store_dir,
                     Tracer& tracer);

// Result records of a batch, in declaration order (exp::result_io).
std::string dump_results(
    const std::vector<gpumas::exp::ScenarioResult>& results);

// Device-throughput gain of each non-Even grid policy over Even, in %.
std::vector<double> stp_gains(
    const std::vector<gpumas::exp::ScenarioResult>& results);
void set_stp_gains(Report& report, const std::vector<double>& gains);

uint64_t directory_bytes(const std::string& dir);

// Records the digest of a run's simulated output and checks it against the
// recorded one for (workload, seed) when there is one.
void check_digest(const Options& opt, const std::string& workload,
                  const std::string& actual, Report& report);

}  // namespace perfbench
