// Tests for the versioned result-record serialization and the shard-dump
// merge: field-exact round-trips (including hostile names), strict
// rejection of corrupt, duplicate and unsupported-version input, and the
// disjointness and completeness validation behind the merge-results tool.
#include "exp/result_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bench/bench_common.h"

namespace gpumas::exp::result_io {
namespace {

sched::GroupReport group(std::vector<std::string> names, uint64_t base) {
  sched::GroupReport g;
  g.names = std::move(names);
  for (size_t i = 0; i < g.names.size(); ++i) {
    g.app_cycles.push_back(base + 10 * i);
    g.app_thread_insns.push_back(3 * base + i);
    g.slowdowns.push_back(1.0 + static_cast<double>(i + 1) / 3.0);
  }
  g.cycles = base + 10 * (g.names.size() - 1);
  g.serial_cycles = 2 * base + 7;
  g.ticked_cycles = base / 2 + 5;
  g.skipped_cycles = g.cycles - g.ticked_cycles;
  g.sample_windows = base % 3;
  g.smra_adjustments = 4;
  g.smra_reverts = 1;
  return g;
}

sched::RunReport report(sched::Policy policy, uint64_t base) {
  sched::RunReport r;
  r.policy = policy;
  r.groups.push_back(group({"GUPS", "HS"}, base));
  r.groups.push_back(group({"BFS2", "LUD", "SPMV"}, base + 100));
  for (const auto& g : r.groups) {
    r.total_cycles += g.cycles;
    r.total_ticked_cycles += g.ticked_cycles;
    r.total_skipped_cycles += g.skipped_cycles;
    r.total_sample_windows += g.sample_windows;
  }
  r.total_thread_insns = 17 * base + 3;
  return r;
}

void expect_eq(const sched::RunReport& a, const sched::RunReport& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_thread_insns, b.total_thread_insns);
  EXPECT_EQ(a.total_ticked_cycles, b.total_ticked_cycles);
  EXPECT_EQ(a.total_skipped_cycles, b.total_skipped_cycles);
  EXPECT_EQ(a.total_sample_windows, b.total_sample_windows);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].names, b.groups[g].names);
    EXPECT_EQ(a.groups[g].app_cycles, b.groups[g].app_cycles);
    EXPECT_EQ(a.groups[g].app_thread_insns, b.groups[g].app_thread_insns);
    ASSERT_EQ(a.groups[g].slowdowns.size(), b.groups[g].slowdowns.size());
    for (size_t i = 0; i < a.groups[g].slowdowns.size(); ++i) {
      // max_digits10 serialization must round-trip doubles bit-exactly.
      EXPECT_EQ(a.groups[g].slowdowns[i], b.groups[g].slowdowns[i]);
    }
    EXPECT_EQ(a.groups[g].cycles, b.groups[g].cycles);
    EXPECT_EQ(a.groups[g].serial_cycles, b.groups[g].serial_cycles);
    EXPECT_EQ(a.groups[g].ticked_cycles, b.groups[g].ticked_cycles);
    EXPECT_EQ(a.groups[g].skipped_cycles, b.groups[g].skipped_cycles);
    EXPECT_EQ(a.groups[g].sample_windows, b.groups[g].sample_windows);
    EXPECT_EQ(a.groups[g].smra_adjustments, b.groups[g].smra_adjustments);
    EXPECT_EQ(a.groups[g].smra_reverts, b.groups[g].smra_reverts);
  }
}

ScenarioResult scenario(const std::string& name, sched::Policy policy,
                        int reps, uint64_t base) {
  ScenarioResult r;
  r.name = name;
  for (int i = 0; i < reps; ++i) {
    r.reps.push_back(report(policy, base + 1000 * static_cast<uint64_t>(i)));
  }
  return r;
}

TEST(ResultIoTest, ReportRoundTripsEveryField) {
  const sched::RunReport original = report(sched::Policy::kIlpSmra, 4242);
  const std::string fragment = to_string(original);
  expect_eq(original, report_from_string(fragment));
}

TEST(ResultIoTest, ScenarioRoundTripsThroughRecordLines) {
  const ScenarioResult original =
      scenario("Equal-dist/ILP", sched::Policy::kIlp, 3, 99);
  const std::string lines = to_string(original, /*batch=*/2, /*index=*/5);
  std::istringstream in(lines);
  std::string line;
  int rep = 0;
  while (std::getline(in, line)) {
    const Record rec = parse_record(line);
    EXPECT_EQ(rec.batch, 2);
    EXPECT_EQ(rec.index, 5);
    EXPECT_EQ(rec.rep, rep);
    EXPECT_EQ(rec.reps, 3);
    EXPECT_EQ(rec.name, original.name);
    expect_eq(original.reps[static_cast<size_t>(rep)], rec.report);
    ++rep;
  }
  EXPECT_EQ(rep, 3);
}

TEST(ResultIoTest, HostileNamesAreEscapedAndRoundTrip) {
  const std::string hostile = "a b=c,d%e\tf\ng/h#";
  EXPECT_EQ(unescape(escape(hostile)), hostile);
  // Escaped values must never contain format separators.
  const std::string esc = escape(hostile);
  EXPECT_EQ(esc.find(' '), std::string::npos);
  EXPECT_EQ(esc.find('='), std::string::npos);
  EXPECT_EQ(esc.find(','), std::string::npos);
  EXPECT_EQ(esc.find('\n'), std::string::npos);

  ScenarioResult original = scenario(hostile, sched::Policy::kEven, 1, 7);
  original.reps[0].groups[0].names[0] = "evil name,with=weird %chars";
  original.reps[0].groups[0].names[1] = " leading space";
  const std::string lines = to_string(original, 0, 0);
  // One record, one line, even with embedded newlines in the names.
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 1);
  const Record rec = parse_record(lines.substr(0, lines.size() - 1));
  EXPECT_EQ(rec.name, hostile);
  expect_eq(original.reps[0], rec.report);
}

TEST(ResultIoTest, MalformedEscapesAreRejected) {
  EXPECT_THROW(unescape("abc%2"), std::logic_error);
  EXPECT_THROW(unescape("abc%zz"), std::logic_error);
  EXPECT_THROW(unescape("abc%"), std::logic_error);
}

TEST(ResultIoTest, CorruptLinesAreRejected) {
  const ScenarioResult ok = scenario("s", sched::Policy::kEven, 1, 7);
  std::string line = to_string(ok, 0, 0);
  line.pop_back();  // drop the trailing newline for surgery below

  // A well-formed line parses.
  EXPECT_NO_THROW(parse_record(line));

  // Truncation (a missing group key) is rejected.
  EXPECT_THROW(parse_record(line.substr(0, line.rfind(' '))),
               std::logic_error);
  // Unknown keys are rejected.
  EXPECT_THROW(parse_record(line + " surprise=1"), std::logic_error);
  // Duplicate keys are rejected.
  EXPECT_THROW(parse_record(line + " cycles=1"), std::logic_error);
  // Trailing garbage on a number is rejected.
  {
    std::string bad = line;
    bad.replace(bad.find("rep=0"), 5, "rep=0x");
    EXPECT_THROW(parse_record(bad), std::logic_error);
  }
  // An unknown policy name is rejected.
  {
    std::string bad = line;
    bad.replace(bad.find("policy=Even"), 11, "policy=Odd");
    EXPECT_THROW(parse_record(bad), std::logic_error);
  }
  // A length-mismatched per-app array is rejected.
  {
    std::string bad = line;
    const std::string key = "g0.app_cycles=";
    const size_t at = bad.find(key) + key.size();
    bad.insert(at, "1,");
    EXPECT_THROW(parse_record(bad), std::logic_error);
  }
  // A line that is not a result record at all is rejected.
  EXPECT_THROW(parse_record("profile BFS2 cycles=3"), std::logic_error);
}

TEST(ResultIoTest, VersionHandling) {
  std::string line = to_string(scenario("s", sched::Policy::kEven, 1, 7), 0, 0);
  line.pop_back();
  ASSERT_NE(line.find("result v=3 "), std::string::npos);

  // Any version but v=3 — the retired v1/v2 layouts and a future v4
  // alike — is rejected as unsupported rather than guessed at.
  for (const char* tag : {"v=1", "v=2", "v=4"}) {
    std::string relabeled = line;
    relabeled.replace(relabeled.find("v=3"), 3, tag);
    try {
      parse_record(relabeled);
      FAIL() << tag << " must not parse";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version"),
                std::string::npos)
          << e.what();
    }
  }

  // A v3 line missing a required token of its version is rejected — the
  // run-level sim_threads and a per-group counter alike.
  for (const char* needle : {"sim_threads=", "g0.ticked_cycles="}) {
    std::string bad = line;
    const size_t at = bad.find(needle);
    ASSERT_NE(at, std::string::npos);
    const size_t start = bad.rfind(' ', at);
    bad.erase(start, bad.find(' ', at) - start);
    EXPECT_THROW(parse_record(bad), std::logic_error);
  }

  // The writer always emits sim_threads=1. Older v3 dumps may carry a
  // larger value; it still parses, is not kept, and re-serializes as 1.
  const std::string one = " sim_threads=1 ";
  const size_t at = line.find(one);
  ASSERT_NE(at, std::string::npos);
  std::string wide = line;
  wide.replace(at, one.size(), " sim_threads=4 ");
  const Record rec = parse_record(wide);
  EXPECT_EQ(rec.name, "s");
  EXPECT_EQ(to_string(ScenarioResult{rec.name, {rec.report}}, 0, 0),
            line + "\n");

  // A nonsensical sim_threads value is rejected.
  std::string bad = line;
  bad.replace(at, one.size(), " sim_threads=0 ");
  EXPECT_THROW(parse_record(bad), std::logic_error);
}

// --- merge_dumps ---

std::vector<ScenarioResult> grid_results() {
  // A 2x2 grid batch, 2 reps each, as run_policy_grid would produce it.
  return {scenario("Equal-dist/Even", sched::Policy::kEven, 2, 10),
          scenario("Equal-dist/ILP", sched::Policy::kIlp, 2, 20),
          scenario("M-oriented/Even", sched::Policy::kEven, 2, 30),
          scenario("M-oriented/ILP", sched::Policy::kIlp, 2, 40)};
}

// Serializes the shard `index % count == index_of(shard)` slice.
std::string dump_shard(const std::vector<ScenarioResult>& results, int shard,
                       int count) {
  std::string text;
  for (size_t i = 0; i < results.size(); ++i) {
    if (static_cast<int>(i) % count != shard) continue;
    text += to_string(results[i], 0, static_cast<int>(i));
  }
  return text;
}

TEST(ResultIoTest, MergeRebuildsTheBatchFromDisjointShards) {
  const auto results = grid_results();
  const auto merged =
      merge_dumps({{"s0.dump", dump_shard(results, 0, 2)},
                   {"s1.dump", dump_shard(results, 1, 2)}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].batch, 0);
  ASSERT_EQ(merged[0].results.size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(merged[0].results[i].name, results[i].name);
    ASSERT_EQ(merged[0].results[i].reps.size(), results[i].reps.size());
    for (size_t r = 0; r < results[i].reps.size(); ++r) {
      expect_eq(results[i].reps[r], merged[0].results[i].reps[r]);
    }
  }
  // Comments and blank lines are tolerated (hand-annotated dumps).
  EXPECT_NO_THROW(merge_dumps(
      {{"s.dump", "# shard 0 of 1\n\n" + dump_shard(results, 0, 1)}}));
}

TEST(ResultIoTest, MergeRejectsOverlappingShards) {
  const auto results = grid_results();
  try {
    merge_dumps({{"s0.dump", dump_shard(results, 0, 2)},
                 {"s0-again.dump", dump_shard(results, 0, 2)}});
    FAIL() << "overlapping shard dumps must be rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("disjoint"), std::string::npos);
  }
}

TEST(ResultIoTest, MergeFlagsDoubleRunDuplicates) {
  const auto results = grid_results();
  const std::string twice =
      dump_shard(results, 0, 2) + dump_shard(results, 0, 2);
  try {
    merge_dumps({{"s0.dump", twice}, {"s1.dump", dump_shard(results, 1, 2)}});
    FAIL() << "a twice-appended shard dump must be rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ResultIoTest, MergeRejectsIncompleteCoverage) {
  const auto results = grid_results();
  // Missing shard 1 entirely: scenario idx 1 is absent.
  EXPECT_THROW(merge_dumps({{"s0.dump", dump_shard(results, 0, 2)}}),
               std::logic_error);
  // Missing one repetition of one scenario.
  std::string text = dump_shard(results, 0, 1);
  const size_t cut = text.rfind("result v=3");
  EXPECT_THROW(merge_dumps({{"cut.dump", text.substr(0, cut)}}),
               std::logic_error);
  // Empty input.
  EXPECT_THROW(merge_dumps({{"empty.dump", ""}}), std::logic_error);
}

TEST(ResultIoTest, MergeRejectsConflictingRecords) {
  const auto results = grid_results();
  std::string text = dump_shard(results, 0, 1);
  // Same (batch, idx) with two different names within one dump ('/' is not
  // an escaped character, so the name appears verbatim).
  const std::string needle = "name=Equal-dist/ILP";
  const size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string mangled = text;
  mangled.replace(at, needle.size(), "name=other-name");
  EXPECT_THROW(merge_dumps({{"mangled.dump", mangled}}), std::logic_error);
}

TEST(ResultIoTest, MergeRejectsUnsupportedVersionDumps) {
  // A shard written by an older binary (a v=2 record) must fail the merge
  // with a named error locating the record — this is how merge-results
  // exits nonzero instead of merging records it cannot read.
  const std::string a =
      to_string(scenario("s", sched::Policy::kEven, 1, 7), 0, 0);
  std::string b = to_string(scenario("t", sched::Policy::kEven, 1, 8), 0, 1);
  b.replace(b.find("v=3"), 3, "v=2");
  try {
    merge_dumps({{"new.dump", a}, {"old.dump", b}});
    FAIL() << "a v=2 dump must not merge";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("old.dump:1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsupported format version v=2"), std::string::npos)
        << msg;
  }
}

TEST(ResultIoTest, MergedShardsRenderByteIdenticalTables) {
  // The load-bearing property of the pipeline: rendering the merged
  // shards reproduces the unsharded table rendering byte for byte.
  const auto results = grid_results();
  const auto merged =
      merge_dumps({{"s0.dump", dump_shard(results, 0, 2)},
                   {"s1.dump", dump_shard(results, 1, 2)}});
  const std::vector<std::string> rows{"Equal-dist", "M-oriented"};
  const std::vector<std::string> cols{"Even", "ILP"};
  std::ostringstream direct, remerged;
  const auto direct_means =
      bench::render_policy_grid(results, rows, cols, 2, direct);
  const auto merged_means =
      bench::render_policy_grid(merged[0].results, rows, cols, 2, remerged);
  EXPECT_EQ(direct.str(), remerged.str());
  EXPECT_EQ(direct_means, merged_means);

  std::ostringstream direct_app, remerged_app;
  const std::vector<bench::PerAppRow> app_rows{
      {"GUPS", ""}, {"HS", ""}, {"BFS2", ""}, {"LUD", ""}, {"SPMV", ""}};
  bench::render_per_app_table(results, app_rows, false, direct_app);
  bench::render_per_app_table(merged[0].results, app_rows, false,
                              remerged_app);
  EXPECT_EQ(direct_app.str(), remerged_app.str());
}

TEST(ResultIoTest, OffShardReportAccessIsChecked) {
  // The satellite bugfix: report() on an entry another shard executed must
  // fail loudly (it used to dereference reps.front() of an empty vector).
  ScenarioResult off_shard;
  off_shard.name = "other-shard/ILP";
  EXPECT_FALSE(off_shard.has_reps());
  try {
    (void)off_shard.report();
    FAIL() << "report() on an off-shard entry must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("other-shard/ILP"),
              std::string::npos);
  }
}

TEST(ResultIoTest, StrictCliIntegerParsing) {
  // The satellite bugfix for bench::parse_options: "--threads 4x" used to
  // std::atoi to 4; the strict parser rejects any unconsumed suffix.
  EXPECT_EQ(bench::parse_int("4"), 4);
  EXPECT_EQ(bench::parse_int("-3"), -3);
  EXPECT_FALSE(bench::parse_int("4x").has_value());
  EXPECT_FALSE(bench::parse_int("x4").has_value());
  EXPECT_FALSE(bench::parse_int(" 4").has_value());
  EXPECT_FALSE(bench::parse_int("4 ").has_value());
  EXPECT_FALSE(bench::parse_int("1/2").has_value());
  EXPECT_FALSE(bench::parse_int("").has_value());
  EXPECT_FALSE(bench::parse_int("99999999999999999999").has_value());
}

TEST(ResultIoTest, SerializingUnexecutedScenarioIsChecked) {
  ScenarioResult off_shard;
  off_shard.name = "s";
  EXPECT_THROW(to_string(off_shard, 0, 0), std::logic_error);
}

}  // namespace
}  // namespace gpumas::exp::result_io
