// Shared harness for the figure/table reproduction benches.
//
// Every bench is a scenario declaration plus a table printer; this header
// supplies the pieces between them: a small CLI, the shared artifact store
// (profile::ProfileCache — solo profiles AND slowdown models, with optional
// disk persistence so back-to-back bench runs measure each artifact exactly
// once), and the ExperimentRunner that executes scenario batches across
// worker threads. Declarations only — the implementations live in
// bench_common.cc (built once into the gpumas_bench_common static library)
// so the 10+ bench translation units stop recompiling the harness each.
//
// Flags understood by every bench:
//   --threads N           worker threads for the scenarios and the
//                         simulations nested in them (default 1)
//   --config FILE         device description in sim::config_io format
//   --profile-cache DIR   artifact store: load profiles, slowdown models
//                         and group-run records before running, save them
//                         after. A path to an existing regular file is
//                         treated as the legacy profile-only single-file
//                         cache.
//   --policy NAME         restrict evaluated policies to NAME (serial |
//                         even | profile | ilp | ilp-smra); each bench's
//                         normalization baseline is always kept
//   --shard I/N           execute only scenarios i with i % N == I; other
//                         table rows print "-". Combine with
//                         --dump-results to split a bench across
//                         processes/machines and merge the outputs.
//   --dump-results FILE   write one versioned `result v=3 ...` key=value
//                         record (exp/result_io.h) per executed scenario
//                         repetition; the sorted union of all shards'
//                         dumps equals the sorted dump of the unsharded
//                         run, and the merge-results tool rebuilds the
//                         full bench tables from them. A non-empty
//                         pre-existing FILE is refused (appending a re-run
//                         silently corrupts merges) unless --dump-append
//                         is given.
//   --dump-append         extend a non-empty --dump-results file instead
//                         of refusing (for benches dumping across several
//                         invocations on purpose)
//   --resume              resume a killed --dump-results run: reload the
//                         sidecar checkpoint journal (FILE.journal, flushed
//                         per completed scenario) and the dump itself,
//                         verify the invocation fingerprint and each
//                         record's scenario, skip completed (batch, idx,
//                         rep) entries, and produce a final dump
//                         byte-identical to an uninterrupted run
//   --faults SPEC         deterministic fault injection
//                         (common/fault_inject.h): comma-separated
//                         fail:/crash:/flaky: clauses over the
//                         open|write|fsync|rename|dispatch sites, plus
//                         seed:/retries:. Equivalent to GPUMAS_FAULTS;
//                         the flag wins when both are set
//   --reps N              repetitions per seeded-queue scenario in the
//                         policy-grid benches (distribution queues are
//                         re-drawn with seed+i); N > 1 adds a
//                         mean/stddev statistics table
//   --no-skip             disable idle-cycle fast-forwarding in the
//                         simulator (GpuConfig::skip_idle_cycles). Results
//                         are byte-identical either way; this only trades
//                         wall-clock time for a cycle-by-cycle trace when
//                         debugging the simulator core
//   --sim-mode MODE       detailed (default) | sampled: sampled simulates
//                         short detailed windows and fast-forwards between
//                         them (GpuConfig::sim_mode). Sampled results are
//                         approximate; artifacts carry an accuracy tag in
//                         their store keys so a shared --profile-cache
//                         never serves sampled data to a detailed run or
//                         vice versa
//   --store-stats         after the bench, print per-layer artifact-store
//                         statistics (entries and hit/miss counters for
//                         profiles, scalability curve points, slowdown
//                         models and group runs) in the merge-results
//                         summary style, a detailed/sampled accuracy-split
//                         sub-line per keyed layer (mixed-store audit),
//                         plus the combined lifecycle line (generation,
//                         last compaction, quarantined/evicted entries,
//                         live-vs-dead bytes per layer)
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/text.h"
#include "exp/experiment.h"
#include "exp/result_io.h"
#include "profile/profile.h"
#include "profile/profile_cache.h"
#include "sim/gpu_config.h"

namespace gpumas::bench {

// The orchestrator-facing exit-code taxonomy, shared by the benches, the
// merge-results tool and the orchestrate driver so a supervisor can tell
// "retry me" from "fix your invocation" without parsing stderr:
//   0  success — every requested unit of work completed and was written
//   1  partial failure — the inputs were valid but some work did not
//      complete or could not be written (a failed shard, an I/O error on
//      the dump/journal, an incomplete merge); retrying may help
//   2  invalid input — malformed flags, unreadable files, fingerprint or
//      schema mismatches; retrying the same invocation cannot help
// (FaultInjector::kCrashExitCode, 42, is deliberately outside the
// taxonomy: it marks an injected crash, which supervisors treat like any
// other abnormal death.)
inline constexpr int kExitOk = 0;
inline constexpr int kExitPartial = 1;
inline constexpr int kExitInvalid = 2;

// Prints the experimental setup (paper Table 4.1) so every bench's output is
// self-describing.
void print_setup(const sim::GpuConfig& cfg);

struct Options {
  int threads = 1;
  std::string config_path;
  std::string profile_cache_path;
  std::string policy;
  exp::Shard shard;
  std::string dump_path;
  bool dump_append = false;
  bool no_skip = false;
  bool store_stats = false;
  std::string sim_mode;  // "", "detailed" or "sampled"
  int reps = 1;
  bool resume = false;   // requires dump_path; excludes dump_append
  std::string faults;    // fault-injection spec (overrides GPUMAS_FAULTS)
};

// Strict decimal CLI parsing — "4x" or "1/2x" is an error instead of
// silently becoming 4 or 1/2 (std::atoi accepted any garbage suffix). The
// implementation lives in common/text.h so the benches, merge-results and
// the file-format parsers all share one strictness contract.
inline std::optional<int> parse_int(const std::string& s) {
  return text::parse_int_strict(s);
}

inline std::optional<double> parse_double(const std::string& s) {
  return text::parse_double_strict(s);
}

inline std::optional<sched::Policy> parse_policy(const std::string& name) {
  if (name == "serial") return sched::Policy::kSerial;
  if (name == "even" || name == "fcfs") return sched::Policy::kEven;
  if (name == "profile" || name == "profile-based") {
    return sched::Policy::kProfileBased;
  }
  if (name == "ilp") return sched::Policy::kIlp;
  if (name == "ilp-smra" || name == "smra") return sched::Policy::kIlpSmra;
  return std::nullopt;
}

// Parses the shared bench CLI; prints usage and exits 2 on any malformed
// flag.
Options parse_options(int argc, char** argv);

// Owns the CLI options, device config, artifact store and experiment
// engine for one bench invocation. Store persistence happens in the
// destructor so measurements taken anywhere in the bench are kept for the
// next run.
class Harness {
 public:
  Harness(int argc, char** argv);
  ~Harness();

  const Options& options() const { return opts_; }
  const sim::GpuConfig& config() const { return cfg_; }
  profile::ProfileCache& cache() { return cache_; }
  exp::ExperimentRunner& engine() { return engine_; }

  // The --store-stats summary: one row per artifact layer. "hits" are
  // lookups served from a resident (measured or loaded) entry; "misses"
  // are lookups that simulated. Scalability curve points share the profile
  // table (they are solo profiles at explicit SM counts), so their row is
  // a sub-count of the profiles row and shows no separate entry count.
  void print_store_stats(std::ostream& os = std::cout) const;

  // Runs a scenario batch on this invocation's shard and, when
  // --dump-results is set, appends one mergeable result_io record per
  // executed repetition. Benches should call this instead of
  // engine().run() so --shard/--dump-results apply uniformly.
  std::vector<exp::ScenarioResult> run(
      const std::vector<exp::ScenarioSpec>& scenarios);

  // Suite profiles on the harness config, through the shared cache.
  const std::vector<profile::AppProfile>& profiles();

  // Intersects the bench's policy list with --policy. The first element is
  // each bench's normalization baseline and is always kept so relative
  // columns stay meaningful.
  std::vector<sched::Policy> policies(std::vector<sched::Policy> wanted) const;

  // A ScenarioSpec pre-filled with the harness device config.
  exp::ScenarioSpec scenario(std::string name) const;

  void print_setup() const { bench::print_setup(cfg_); }

 private:
  // One versioned result_io record per executed repetition (see
  // exp/result_io.h for the schema). Lines are self-contained and
  // order-independent: `LC_ALL=C sort` over the concatenated dumps of all
  // shards reproduces the sorted dump of the unsharded run byte for byte,
  // and the merge-results tool rebuilds the full tables from them.
  //
  // The dump is produced twice over: as each scenario completes, its
  // records are appended + fsynced to the sidecar journal
  // (<dump>.journal, crash checkpoint, completion order); at each batch
  // end, dump_results() atomically rewrites the dump file itself with
  // every finalized batch's records in declaration order, so the on-disk
  // dump of a finished run is byte-identical whether or not the run was
  // interrupted and resumed. The journal is deleted on clean completion.
  void dump_results(const std::vector<exp::ScenarioResult>& results,
                    int batch);

  // The journal's first line: result-format version, config fingerprint
  // and the determinism-relevant flags. --resume byte-compares it, so a
  // partial dump can never silently continue under different settings.
  std::string journal_header() const;

  // --resume: reload completed records from the journal and the dump.
  void load_resume_state(const std::string& journal_path);

  // Maps this batch's reloaded records onto the declared scenarios —
  // verifying scenario name, repetition count and index range, exiting 2
  // on any mismatch — and fills the skip/loaded vectors for run().
  void prepare_resume_batch(const std::vector<exp::ScenarioSpec>& scenarios,
                            int batch, std::vector<char>* skip,
                            std::vector<std::vector<sched::RunReport>>* loaded);

  // Journal append that survives I/O failure: on error it warns, disables
  // further checkpointing and marks the run for a nonzero exit instead of
  // aborting the in-flight simulations.
  void append_journal(const std::string& data);

  Options opts_;
  sim::GpuConfig cfg_;
  profile::ProfileCache cache_;
  exp::ExperimentRunner engine_;
  std::optional<std::vector<profile::AppProfile>> profiles_;
  bool ran_ = false;   // whether any scenario batch went through run()
  int batch_ = 0;      // Harness::run() calls so far (the records' batch=)

  // --- checkpoint/resume state (inert unless --dump-results is set) ---
  // (batch, idx) -> rep -> reloaded record, from --resume.
  std::map<std::pair<int, int>, std::map<int, exp::result_io::Record>>
      resume_records_;
  std::unique_ptr<common::JournalWriter> journal_;
  bool journal_has_header_ = false;  // reloaded journal already starts with one
  std::string dump_prefix_;  // --dump-append: pre-existing bytes, verbatim
  std::string dump_text_;    // canonical records of finalized batches
  size_t resume_skipped_ = 0;  // scenarios served from the journal
  bool io_failed_ = false;     // dump/journal I/O failed -> exit status 1
};

// Runs the (distribution × policy) grid used by Figs 4.3/4.11 and prints
// device throughput normalized to the first policy (the mean STP over
// --reps repetitions; each repetition re-draws the queue with seed+i).
// Under --shard, rows whose scenarios fall in another shard print "-" and
// are excluded from the averages. Returns the per-policy averages of the
// normalized throughput, aligned with the (filtered) policy list it also
// returns.
struct PolicyGridResult {
  std::vector<sched::Policy> policies;
  std::vector<double> mean_normalized;  // per policy, averaged over dists
};

// Renders the (row × column) grid table — and, when reps > 1, the
// repetition-statistics table — from precomputed results laid out as
// results[row * cols + col]. This is the printing half of
// run_policy_grid(), split out so the merge-results tool can re-render a
// merged sharded run byte-identically to the unsharded bench. Returns the
// per-column averages of the normalized throughput.
std::vector<double> render_policy_grid(
    const std::vector<exp::ScenarioResult>& results,
    const std::vector<std::string>& row_names,
    const std::vector<std::string>& col_names, int reps,
    std::ostream& os = std::cout);

PolicyGridResult run_policy_grid(
    Harness& h, const std::vector<sched::QueueDistribution>& dists,
    const std::vector<sched::Policy>& wanted, int nc, int length,
    uint64_t seed);

// One row of the per-application table: a benchmark name and (optionally)
// its class label. The benches fill rows from their measured profiles; the
// merge-results tool fills them from the static suite order, since it must
// not simulate anything.
struct PerAppRow {
  std::string name;
  std::string cls;  // printed only when show_class is set
};

// Renders the per-benchmark IPC table — first scenario's absolute IPC plus
// each other scenario's per-benchmark ratio to it — from precomputed
// results, one scenario per policy column, using the scenario names as
// column labels. This is the printing half of run_per_app_table(), split
// out so merge-results can re-render a merged sharded run.
void render_per_app_table(const std::vector<exp::ScenarioResult>& results,
                          const std::vector<PerAppRow>& rows, bool show_class,
                          std::ostream& os = std::cout);

// Runs one queue under several policies and prints the per-benchmark IPC of
// the first policy plus each other policy's per-benchmark ratio to it (the
// Fig 4.4/4.5-4.8/4.12 table shape). Returns the reports in policy order.
std::vector<sched::RunReport> run_per_app_table(
    Harness& h, const exp::QueueSpec& queue,
    const std::vector<sched::Policy>& wanted, int nc, bool show_class);

}  // namespace gpumas::bench
