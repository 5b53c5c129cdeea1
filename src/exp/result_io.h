// Versioned (de)serialization of experiment results, and the merge that
// turns per-shard `--dump-results` files back into the full batch.
//
// A dump is a sequence of self-contained record lines, one per executed
// scenario repetition, in the key=value idiom the other artifacts use:
//
//   result v=3 batch=0 idx=3 rep=0 reps=2 name=Equal-dist/ILP policy=ILP
//     cycles=812345 insns=1234567 sim_threads=1 groups=2
//     g0.apps=GUPS,HS g0.app_cycles=4000,3500 g0.app_insns=9000,8000
//     g0.slowdowns=1.2,1.4 g0.cycles=4000 g0.serial_cycles=7000
//     g0.ticked_cycles=2500 g0.skipped_cycles=1500 g0.sample_windows=0
//     g0.smra_adjustments=3 g0.smra_reverts=1 g1....
//
// (shown wrapped; a record is one line). `batch` counts the Harness::run()
// calls of the bench, `idx` is the scenario's position in that batch — the
// pair restores declaration order after a merge. Scenario and application
// names are percent-escaped so spaces, '=' and ',' never break the format.
// Parsing is strict in the SlowdownModel::from_string spirit: unknown or
// duplicate keys, malformed numbers, trailing garbage, length-mismatched
// arrays and unsupported versions all throw std::logic_error naming the
// offence — a mangled dump must never silently merge into wrong tables.
//
// Lines are order-independent, so `LC_ALL=C sort` over the concatenated
// shard dumps still equals the sorted unsharded dump byte for byte, and
// merge_dumps() rebuilds the ScenarioResult vector that the bench table
// printers (bench_common.h) can re-render byte-identically.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "sched/runner.h"

namespace gpumas::exp::result_io {

// Thrown by merge_dumps when every record parses and the dumps agree,
// but they do not cover the whole run: a batch, scenario or repetition
// is missing. This is the *partial* case of the orchestrator exit
// taxonomy (bench/bench_common.h) — supply or re-run the missing shard
// and the merge succeeds — distinct from the plain std::logic_error of
// malformed or mutually inconsistent records, which no retry can fix.
class IncompleteDumps : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Stamped into every record line as `v=N`; bump when the schema changes.
// A reader rejects any other version rather than guessing at fields, so
// the v1/v2 layouts (without the per-group simulator-efficiency counters)
// no longer load. The run-level `sim_threads=1` token is a fixed v3 field
// kept so existing dumps stay byte-identical: the writer always emits 1,
// and the reader accepts any value >= 1 (older v3 dumps may say 4) and
// stores nothing, since it never affected a result. Nothing wall-clock
// is serialized: records of identical runs must be byte-identical across
// processes and machines so sorted shard-dump unions stay `cmp`-equal.
inline constexpr int kFormatVersion = 3;

// Percent-escaping for names embedded in record values: '%', '=', ',',
// whitespace and control bytes become %XX so a value never contains a
// token or list separator. unescape() throws on malformed escapes.
std::string escape(const std::string& s);
std::string unescape(const std::string& s);

// The per-repetition sched::RunReport as a single-line key=value fragment
// (the `policy=...` onwards portion of a record line), and its inverse.
// Doubles carry max_digits10 precision so a reload is value-exact.
std::string to_string(const sched::RunReport& report);
sched::RunReport report_from_string(const std::string& fragment);

// All record lines (one per repetition, each '\n'-terminated) for one
// executed scenario. `batch`/`index` locate the scenario in its bench run.
std::string to_string(const ScenarioResult& result, int batch, int index);

// One parsed record line.
struct Record {
  int batch = 0;
  int index = 0;
  int rep = 0;
  int reps = 1;             // total repetitions of the scenario
  std::string name;         // unescaped scenario name
  sched::RunReport report;  // this repetition's report
};
Record parse_record(const std::string& line);

// The scenarios of one Harness::run() batch, in declaration order, with
// every repetition present (ScenarioResult::has_reps() is true for all).
struct MergedBatch {
  int batch = 0;
  std::vector<ScenarioResult> results;
};

// Merges shard dumps, given as (label, content) pairs — the label (usually
// the file name) appears in diagnostics. Validates that the dumps are
// disjoint (no scenario in two dumps), free of double-run duplicates (no
// repeated (batch, idx, rep), the signature of appending a re-run onto an
// old dump), mutually consistent (one name/rep-count per scenario) and
// complete (contiguous indices, all repetitions), then returns the batches
// in order. Blank lines and '#' comments are ignored; anything else that
// fails to parse, and any validation failure, throws std::logic_error.
std::vector<MergedBatch> merge_dumps(
    const std::vector<std::pair<std::string, std::string>>& dumps);

}  // namespace gpumas::exp::result_io
