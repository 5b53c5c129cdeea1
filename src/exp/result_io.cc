#include "exp/result_io.h"

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <iomanip>

#include "common/check.h"
#include "common/text.h"

namespace gpumas::exp::result_io {

namespace {

// Splits a record line's `key=value` tokens and hands them out one by one,
// so that a parse consumes every key exactly once: duplicate, missing and
// unknown keys are all hard errors.
class TokenMap {
 public:
  explicit TokenMap(const std::string& text) {
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
      const size_t eq = tok.find('=');
      GPUMAS_CHECK_MSG(eq != std::string::npos && eq > 0,
                       "result record: malformed token '" << tok << "'");
      const std::string k = tok.substr(0, eq);
      const std::string v = tok.substr(eq + 1);
      GPUMAS_CHECK_MSG(!v.empty(),
                       "result record: empty value for '" << k << "'");
      GPUMAS_CHECK_MSG(kv_.emplace(k, v).second,
                       "result record: duplicate key '" << k << "'");
    }
  }

  std::string take(const std::string& k) {
    const auto it = kv_.find(k);
    GPUMAS_CHECK_MSG(it != kv_.end(),
                     "result record: missing key '" << k << "'");
    std::string v = it->second;
    kv_.erase(it);
    return v;
  }

  void expect_empty() const {
    GPUMAS_CHECK_MSG(kv_.empty(), "result record: unknown key '"
                                      << kv_.begin()->first << "'");
  }

 private:
  std::map<std::string, std::string> kv_;
};

// Strict non-negative integer parsing: leading digit (no sign, no
// whitespace) and full consumption, so "12x" or "-1" never slips through.
template <typename T>
T parse_number(const std::string& v, const char* key) {
  std::istringstream vs(v);
  T x = 0;
  GPUMAS_CHECK_MSG(!v.empty() && v[0] >= '0' && v[0] <= '9' &&
                       static_cast<bool>(vs >> x) && vs.peek() == EOF,
                   "result record: bad value for '" << key << "': '" << v
                                                    << "'");
  return x;
}

uint64_t parse_u64(const std::string& v, const char* key) {
  return parse_number<uint64_t>(v, key);
}

int parse_nonneg_int(const std::string& v, const char* key) {
  return parse_number<int>(v, key);
}

double parse_double(const std::string& v, const char* key) {
  std::istringstream vs(v);
  double x = 0.0;
  GPUMAS_CHECK_MSG(static_cast<bool>(vs >> x) && vs.peek() == EOF,
                   "result record: bad value for '" << key << "': '" << v
                                                    << "'");
  return x;
}

std::vector<std::string> split_csv(const std::string& v) {
  return split_commas(v);
}

sched::RunReport report_from_tokens(TokenMap& t) {
  sched::RunReport report;
  report.policy = sched::policy_from_name(t.take("policy"));
  report.total_cycles = parse_u64(t.take("cycles"), "cycles");
  report.total_thread_insns = parse_u64(t.take("insns"), "insns");
  // Fixed v3 field with no meaning (see result_io.h): validated, not kept.
  const int sim_threads =
      parse_nonneg_int(t.take("sim_threads"), "sim_threads");
  GPUMAS_CHECK_MSG(sim_threads >= 1, "result record: sim_threads must be >= 1");
  const int groups = parse_nonneg_int(t.take("groups"), "groups");
  for (int g = 0; g < groups; ++g) {
    const std::string p = "g" + std::to_string(g) + ".";
    sched::GroupReport grp;
    for (const std::string& app : split_csv(t.take(p + "apps"))) {
      const std::string name = unescape(app);
      GPUMAS_CHECK_MSG(!name.empty(), "result record: empty member in '"
                                          << p << "apps'");
      grp.names.push_back(name);
    }
    const auto u64_list = [&](const std::string& key,
                              std::vector<uint64_t>* out) {
      const std::string k = p + key;
      for (const std::string& v : split_csv(t.take(k))) {
        out->push_back(parse_u64(v, k.c_str()));
      }
      GPUMAS_CHECK_MSG(out->size() == grp.names.size(),
                       "result record: '" << k << "' has " << out->size()
                                          << " entries for "
                                          << grp.names.size() << " members");
    };
    u64_list("app_cycles", &grp.app_cycles);
    u64_list("app_insns", &grp.app_thread_insns);
    {
      const std::string k = p + "slowdowns";
      for (const std::string& v : split_csv(t.take(k))) {
        grp.slowdowns.push_back(parse_double(v, k.c_str()));
      }
      GPUMAS_CHECK_MSG(grp.slowdowns.size() == grp.names.size(),
                       "result record: '" << k << "' has "
                                          << grp.slowdowns.size()
                                          << " entries for "
                                          << grp.names.size() << " members");
    }
    grp.cycles = parse_u64(t.take(p + "cycles"), "group cycles");
    grp.serial_cycles =
        parse_u64(t.take(p + "serial_cycles"), "serial_cycles");
    grp.ticked_cycles = parse_u64(t.take(p + "ticked_cycles"),
                                  "ticked_cycles");
    grp.skipped_cycles = parse_u64(t.take(p + "skipped_cycles"),
                                   "skipped_cycles");
    grp.sample_windows = parse_u64(t.take(p + "sample_windows"),
                                   "sample_windows");
    grp.smra_adjustments =
        parse_u64(t.take(p + "smra_adjustments"), "smra_adjustments");
    grp.smra_reverts = parse_u64(t.take(p + "smra_reverts"), "smra_reverts");
    report.total_ticked_cycles += grp.ticked_cycles;
    report.total_skipped_cycles += grp.skipped_cycles;
    report.total_sample_windows += grp.sample_windows;
    report.groups.push_back(std::move(grp));
  }
  return report;
}

template <typename T, typename Render>
void append_csv(std::ostringstream& os, const std::vector<T>& xs,
                Render render) {
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ",";
    render(xs[i]);
  }
}

}  // namespace

std::string escape(const std::string& s) { return percent_escape(s); }

std::string unescape(const std::string& s) { return percent_unescape(s); }

std::string to_string(const sched::RunReport& report) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "policy=" << sched::policy_name(report.policy)
     << " cycles=" << report.total_cycles
     << " insns=" << report.total_thread_insns
     << " sim_threads=1"  // fixed v3 field, see result_io.h
     << " groups=" << report.groups.size();
  for (size_t g = 0; g < report.groups.size(); ++g) {
    const auto& grp = report.groups[g];
    GPUMAS_CHECK_MSG(!grp.names.empty(),
                     "cannot serialize group " << g << " with no members");
    GPUMAS_CHECK(grp.app_cycles.size() == grp.names.size());
    GPUMAS_CHECK(grp.app_thread_insns.size() == grp.names.size());
    GPUMAS_CHECK(grp.slowdowns.size() == grp.names.size());
    const std::string p = " g" + std::to_string(g) + ".";
    os << p << "apps=";
    append_csv(os, grp.names,
               [&](const std::string& n) { os << escape(n); });
    os << p << "app_cycles=";
    append_csv(os, grp.app_cycles, [&](uint64_t v) { os << v; });
    os << p << "app_insns=";
    append_csv(os, grp.app_thread_insns, [&](uint64_t v) { os << v; });
    os << p << "slowdowns=";
    append_csv(os, grp.slowdowns, [&](double v) { os << v; });
    os << p << "cycles=" << grp.cycles << p
       << "serial_cycles=" << grp.serial_cycles << p
       << "ticked_cycles=" << grp.ticked_cycles << p
       << "skipped_cycles=" << grp.skipped_cycles << p
       << "sample_windows=" << grp.sample_windows << p
       << "smra_adjustments=" << grp.smra_adjustments << p
       << "smra_reverts=" << grp.smra_reverts;
  }
  return os.str();
}

sched::RunReport report_from_string(const std::string& fragment) {
  TokenMap t(fragment);
  sched::RunReport report = report_from_tokens(t);
  t.expect_empty();
  return report;
}

std::string to_string(const ScenarioResult& result, int batch, int index) {
  GPUMAS_CHECK_MSG(result.has_reps(), "cannot serialize unexecuted scenario '"
                                          << result.name << "'");
  GPUMAS_CHECK_MSG(!result.name.empty(),
                   "cannot serialize a scenario without a name");
  GPUMAS_CHECK(batch >= 0 && index >= 0);
  std::ostringstream os;
  for (size_t rep = 0; rep < result.reps.size(); ++rep) {
    os << "result v=" << kFormatVersion << " batch=" << batch
       << " idx=" << index << " rep=" << rep << " reps=" << result.reps.size()
       << " name=" << escape(result.name) << " " << to_string(result.reps[rep])
       << "\n";
  }
  return os.str();
}

Record parse_record(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  GPUMAS_CHECK_MSG(static_cast<bool>(in >> tag) && tag == "result",
                   "result record: line does not start with 'result'");
  std::string vtok;
  GPUMAS_CHECK_MSG(static_cast<bool>(in >> vtok) && vtok.rfind("v=", 0) == 0,
                   "result record: missing version token (expected v="
                       << kFormatVersion << ")");
  const int version = parse_nonneg_int(vtok.substr(2), "v");
  GPUMAS_CHECK_MSG(version == kFormatVersion,
                   "result record: unsupported format version v="
                       << version << " (this reader understands v="
                       << kFormatVersion << ")");
  std::string rest;
  std::getline(in, rest);
  TokenMap t(rest);

  Record rec;
  rec.batch = parse_nonneg_int(t.take("batch"), "batch");
  rec.index = parse_nonneg_int(t.take("idx"), "idx");
  rec.rep = parse_nonneg_int(t.take("rep"), "rep");
  rec.reps = parse_nonneg_int(t.take("reps"), "reps");
  GPUMAS_CHECK_MSG(rec.reps >= 1 && rec.rep < rec.reps,
                   "result record: rep " << rec.rep
                                         << " out of range for reps "
                                         << rec.reps);
  rec.name = unescape(t.take("name"));
  rec.report = report_from_tokens(t);
  t.expect_empty();
  return rec;
}

std::vector<MergedBatch> merge_dumps(
    const std::vector<std::pair<std::string, std::string>>& dumps) {
  struct Slot {
    std::string name;
    int reps = 0;
    size_t owner = 0;  // index of the dump the scenario came from
    std::vector<std::optional<sched::RunReport>> rep_reports;
  };
  std::map<std::pair<int, int>, Slot> slots;  // key: (batch, idx)

  for (size_t f = 0; f < dumps.size(); ++f) {
    const std::string& label = dumps[f].first;
    std::istringstream in(dumps[f].second);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::string stripped = trim(line);
      if (stripped.empty() || stripped.front() == '#') continue;
      Record rec;
      try {
        rec = parse_record(stripped);
      } catch (const std::logic_error& e) {
        throw std::logic_error(label + ":" + std::to_string(line_no) + ": " +
                               e.what());
      }

      const auto key = std::make_pair(rec.batch, rec.index);
      auto it = slots.find(key);
      if (it == slots.end()) {
        Slot slot;
        slot.name = rec.name;
        slot.reps = rec.reps;
        slot.owner = f;
        slot.rep_reports.resize(static_cast<size_t>(rec.reps));
        it = slots.emplace(key, std::move(slot)).first;
      } else {
        const Slot& slot = it->second;
        GPUMAS_CHECK_MSG(slot.owner == f,
                         "scenario '" << rec.name << "' (batch " << rec.batch
                                      << " idx " << rec.index
                                      << ") appears in both '"
                                      << dumps[slot.owner].first << "' and '"
                                      << label
                                      << "' — shard dumps must be disjoint");
        GPUMAS_CHECK_MSG(slot.name == rec.name && slot.reps == rec.reps,
                         label << ":" << line_no
                               << ": conflicting records for batch "
                               << rec.batch << " idx " << rec.index << ": '"
                               << slot.name << "' x" << slot.reps << " vs '"
                               << rec.name << "' x" << rec.reps);
      }
      auto& cell = it->second.rep_reports[static_cast<size_t>(rec.rep)];
      GPUMAS_CHECK_MSG(!cell.has_value(),
                       label << ":" << line_no
                             << ": duplicate record for scenario '" << rec.name
                             << "' (batch " << rec.batch << " idx "
                             << rec.index << " rep " << rec.rep
                             << ") — was the bench re-run onto an existing "
                                "dump with --dump-append?");
      cell = std::move(rec.report);
    }
  }
  GPUMAS_CHECK_MSG(!slots.empty(),
                   "no result records found in the given dumps");

  // std::map iterates in (batch, idx) order; enforce contiguity so a
  // missing shard (or a truncated dump) cannot silently merge into a
  // smaller batch.
  std::vector<MergedBatch> merged;
  for (auto& [key, slot] : slots) {
    const int batch = key.first;
    const int idx = key.second;
    // Coverage failures throw IncompleteDumps — the partial-failure case
    // of the exit taxonomy, retryable by supplying the missing shard —
    // unlike the malformed-record logic_errors above.
    if (merged.empty() || merged.back().batch != batch) {
      const int expected = merged.empty() ? 0 : merged.back().batch + 1;
      if (batch != expected) {
        std::ostringstream os;
        os << "dumps are missing batch " << expected << " (found batch "
           << batch << ") — a shard dump is missing or truncated";
        throw IncompleteDumps(os.str());
      }
      merged.push_back(MergedBatch{batch, {}});
    }
    MergedBatch& mb = merged.back();
    if (idx != static_cast<int>(mb.results.size())) {
      std::ostringstream os;
      os << "batch " << batch << " is missing scenario idx "
         << mb.results.size() << " — provide every shard's dump";
      throw IncompleteDumps(os.str());
    }
    ScenarioResult result;
    result.name = slot.name;
    for (int rep = 0; rep < slot.reps; ++rep) {
      auto& cell = slot.rep_reports[static_cast<size_t>(rep)];
      if (!cell.has_value()) {
        std::ostringstream os;
        os << "scenario '" << slot.name << "' (batch " << batch << " idx "
           << idx << ") is missing repetition " << rep << " of "
           << slot.reps;
        throw IncompleteDumps(os.str());
      }
      result.reps.push_back(std::move(*cell));
    }
    mb.results.push_back(std::move(result));
  }
  return merged;
}

}  // namespace gpumas::exp::result_io
