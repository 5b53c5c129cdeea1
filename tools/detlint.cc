// detlint: the in-tree determinism & schema-drift linter.
//
//   detlint [--json FILE] [--readme FILE] PATH [PATH...]
//
// Every guarantee this repo ships — byte-identical results across
// thread counts, shard counts and warm/cold stores — is enforced
// dynamically by golden tests, which catch a violation only after it has
// shipped. The hazard classes are known and recurring, so this tool
// catches them statically, before any simulation runs, by pattern
// matching over the token stream (common/srclex.h — no full parse):
//
// Determinism rules
//   unordered-iter  range-for / .begin() iteration over an
//                   unordered_{map,set} — iteration order is
//                   nondeterministic and must never feed stats,
//                   fingerprints, store keys or result records.
//   wall-clock      std::chrono / time / rand / random_device tokens —
//                   wall-clock and unseeded randomness leak real time
//                   into results. The micro-benchmark gates
//                   (bench/micro_benchmark.cc) are exempt: measuring
//                   wall time is their purpose. Library wait paths
//                   (profile_cache.cc wait_for) carry explicit
//                   annotations instead.
//   ptr-key         a pointer type as the key of an associative
//                   container (or std::hash over a pointer) — pointer
//                   values differ run to run, so any order or hash
//                   derived from them is nondeterministic.
//
// Schema-parity rules (drift between shards = silent corruption)
//   config-parity   every key config_io.cc parses (a `key == "..."`
//                   branch or a fields() map entry) must be rendered by
//                   config_to_string.
//   result-parity   every `field=` result_io.cc writes must have a
//                   matching parse (a bare-word "field" literal) — a
//                   written-but-unparsed field makes dumps unreadable.
//   readme-flags    every `--flag` bench_common.cc's parse_options
//                   accepts must appear in README.md's flag table, and
//                   every `--flag` the table documents must be accepted.
//
// Hygiene rules
//   pod-init        a POD member of a struct without an initializer —
//                   uninitialized bytes can reach serialization and
//                   differ across runs. (Heuristic: builtin scalar and
//                   pointer members of `struct` bodies; classes
//                   initialize through constructors and are skipped.)
//   raw-ofstream    an `ofstream` token outside test TUs and
//                   atomic_file.* — writing an artifact in place is not
//                   crash-safe (a kill mid-write leaves a torn file the
//                   next run half-parses); persistent artifacts go
//                   through common::atomic_write_file / AtomicFile, and
//                   append+fsync logs through common::JournalWriter.
//
// Suppression: a comment naming the rule and a mandatory reason, e.g.
//   detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
// silences that rule on the annotation's own line and the next line. An
// unknown rule name or a missing reason is itself reported
// (bad-annotation) — an allowlist that can rot silently is no allowlist.
//
// Directories are scanned recursively for .h/.hpp/.cc/.cpp; dirs named
// detlint_fixtures (the seeded-violation lint-test corpus), build* and
// dotdirs are pruned unless named explicitly on the command line.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error. --json writes the
// findings as a machine-readable report (CI uploads it as an artifact).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/atomic_file.h"
#include "common/srclex.h"

namespace {

namespace fs = std::filesystem;
using gpumas::srclex::Kind;
using gpumas::srclex::Token;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

const std::set<std::string> kRules = {
    "unordered-iter", "wall-clock",    "ptr-key",      "pod-init",
    "raw-ofstream",   "config-parity", "result-parity", "readme-flags",
    "bad-annotation",
};

// Wall-clock tokens that must not appear outside annotated sites: the
// <chrono>/<ctime> vocabulary plus the unseeded-randomness vocabulary
// (seeded determinism lives in common/prng.h, which uses none of these).
const std::set<std::string> kWallClockIdents = {
    "chrono",        "ctime",       "steady_clock",
    "system_clock",  "high_resolution_clock",
    "time",          "clock",       "gettimeofday",
    "clock_gettime", "localtime",   "gmtime",
    "strftime",      "asctime",     "difftime",
    "timespec",      "timeval",     "rand",
    "srand",         "rand_r",      "drand48",
    "lrand48",       "random_device",
    "mt19937",       "mt19937_64",  "minstd_rand",
    "default_random_engine",
};

// Wall-clock exemptions, anchored to the repo-relative path, not the
// basename, so a stray file of the same name elsewhere gets no free pass
// (tests/detlint_fixtures/wall_clock proves exactly that):
//   - the shard orchestrator is the driver layer: it supervises worker
//     processes with real poll intervals, hang deadlines and backoff
//     sleeps, and never computes a result itself;
//   - the micro-benchmark gates time themselves by design; their wall
//     numbers go to BENCH_*.json, never into result records.
const std::vector<std::string> kWallClockExemptPaths = {
    "tools/orchestrate.cc",
    "bench/micro_benchmark.cc",
};

// True when `path` is `suffix` or ends with "/<suffix>" — a directory
// -anchored match, unlike a plain basename comparison.
bool path_anchored_match(const std::string& path, const std::string& suffix) {
  if (path == suffix) return true;
  if (path.size() <= suffix.size()) return false;
  return path[path.size() - suffix.size() - 1] == '/' &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// Bench flags that need no README table row.
const std::set<std::string> kFlagExclusions = {"--help"};

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kAssociativeContainers = {
    "map",  "multimap", "set",  "multiset", "unordered_map",
    "unordered_set", "unordered_multimap", "unordered_multiset", "hash"};

// Builtin scalar type vocabulary for the pod-init rule: a member is POD
// when its type is a run of these (qualifiers + one or more scalar
// keywords), or a pointer to anything. Class types (std::string,
// std::vector, ...) value-initialize themselves and are skipped.
const std::set<std::string> kPodQualTokens = {"std", "::", "const",
                                              "volatile", "mutable"};
const std::set<std::string> kPodScalarTokens = {
    "unsigned", "signed",  "short",    "long",     "int",      "char",
    "wchar_t",  "bool",    "float",    "double",   "size_t",
    "ptrdiff_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t",  "int32_t", "int64_t",  "uintptr_t", "intptr_t",
};

bool is_identifier_word(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

std::string trim_copy(const std::string& s) {
  size_t a = s.find_first_not_of(" \t\r\n");
  if (a == std::string::npos) return "";
  size_t b = s.find_last_not_of(" \t\r\n");
  return s.substr(a, b - a + 1);
}

// ---------------------------------------------------------------- linter

class Linter {
 public:
  explicit Linter(std::string readme_path)
      : readme_path_(std::move(readme_path)) {}

  void lint_file(const std::string& path);
  void finish();  // rules that need the whole scan (readme reverse check)

  const std::vector<Finding>& findings() const { return findings_; }
  int files_scanned() const { return files_scanned_; }
  int suppressed() const { return suppressed_; }

 private:
  // One file's worth of state.
  struct FileCtx {
    std::string path;
    std::string base;
    std::vector<Token> code;  // comment-free token stream
    std::map<std::string, std::set<int>> ok_lines;  // rule -> lines
  };

  void report(const FileCtx& f, int line, const std::string& rule,
              const std::string& message);
  void collect_annotations(FileCtx& f, const std::vector<Token>& all);

  void rule_unordered_iter(const FileCtx& f);
  void rule_wall_clock(const FileCtx& f);
  void rule_ptr_key(const FileCtx& f);
  void rule_pod_init(const FileCtx& f);
  void rule_raw_ofstream(const FileCtx& f);
  void rule_config_parity(const FileCtx& f);
  void rule_result_parity(const FileCtx& f);
  void rule_readme_flags(const FileCtx& f);

  std::string readme_path_;
  std::vector<Finding> findings_;
  int files_scanned_ = 0;
  int suppressed_ = 0;
  // parse_options flags collected across the scan, for the README
  // reverse check in finish(): flag -> first file that accepts it.
  std::map<std::string, std::string> accepted_flags_;
  bool saw_parse_options_ = false;
};

void Linter::report(const FileCtx& f, int line, const std::string& rule,
                    const std::string& message) {
  const auto it = f.ok_lines.find(rule);
  if (it != f.ok_lines.end() && it->second.count(line)) {
    ++suppressed_;
    return;
  }
  findings_.push_back(Finding{f.path, line, rule, message});
}

void Linter::collect_annotations(FileCtx& f, const std::vector<Token>& all) {
  for (const Token& tok : all) {
    if (tok.kind != Kind::kComment) continue;
    const size_t at = tok.text.find("detlint:ok(");
    if (at == std::string::npos) continue;
    const size_t open = at + std::string("detlint:ok(").size() - 1;
    const size_t close = tok.text.find(')', open);
    if (close == std::string::npos) {
      findings_.push_back(Finding{f.path, tok.line, "bad-annotation",
                                  "malformed detlint:ok annotation: missing "
                                  "')'"});
      continue;
    }
    const std::string rule = tok.text.substr(open + 1, close - open - 1);
    std::string reason = tok.text.substr(close + 1);
    if (reason.size() >= 2 && reason.compare(reason.size() - 2, 2, "*/") == 0) {
      reason.resize(reason.size() - 2);
    }
    reason = trim_copy(reason);
    if (!kRules.count(rule) || rule == "bad-annotation") {
      findings_.push_back(
          Finding{f.path, tok.line, "bad-annotation",
                  "detlint:ok names unknown rule '" + rule + "'"});
      continue;
    }
    if (reason.empty()) {
      findings_.push_back(
          Finding{f.path, tok.line, "bad-annotation",
                  "detlint:ok(" + rule +
                      ") needs a reason after the ')' — say why the "
                      "suppression is sound"});
      continue;
    }
    // The annotation covers its own line (trailing style) and the next
    // line (annotation-above style).
    f.ok_lines[rule].insert(tok.line);
    f.ok_lines[rule].insert(tok.line + 1);
  }
}

// Skips a balanced template argument list. `i` indexes the '<'; returns
// the index just past the matching '>', or std::string::npos when the
// '<' turns out to be a comparison (bails on ';', '{' or end of file).
size_t skip_template_args(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (t[i].kind != Kind::kPunct) continue;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return i + 1;
    } else if (x == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (x == ";" || x == "{") {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

void Linter::rule_unordered_iter(const FileCtx& f) {
  const std::vector<Token>& t = f.code;
  // Pass 1: names declared with an unordered container type (including
  // `using Alias = std::unordered_map<...>` and variables of alias type).
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_aliases;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const bool is_container = t[i].kind == Kind::kIdent &&
                              kUnorderedContainers.count(t[i].text) > 0;
    const bool is_alias = t[i].kind == Kind::kIdent &&
                          unordered_aliases.count(t[i].text) > 0;
    if (!is_container && !is_alias) continue;
    size_t j = i + 1;
    if (is_container) {
      if (t[j].text != "<") continue;
      j = skip_template_args(t, j);
      if (j == std::string::npos) continue;
    }
    while (j < t.size() &&
           (t[j].text == "*" || t[j].text == "&" || t[j].text == "const")) {
      ++j;
    }
    if (j >= t.size() || t[j].kind != Kind::kIdent) continue;
    // `using Alias = std::unordered_map<...>` names a type, not a var.
    if (i >= 3 && t[i - 3].text == "using" && t[i - 2].kind == Kind::kIdent &&
        t[i - 1].text == "=") {
      unordered_aliases.insert(t[i - 2].text);
    }
    unordered_vars.insert(t[j].text);
  }
  // `using Alias = unordered_map<...>` scans before the alias set is
  // populated for earlier declarations; a second pass over declarations
  // of alias type catches `Alias m;` appearing before the using. (Rare;
  // one extra pass is cheaper than order bookkeeping.)
  if (!unordered_aliases.empty()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind == Kind::kIdent && unordered_aliases.count(t[i].text) &&
          t[i + 1].kind == Kind::kIdent) {
        unordered_vars.insert(t[i + 1].text);
      }
    }
  }
  if (unordered_vars.empty()) return;

  // Pass 2a: range-for whose range expression mentions an unordered
  // variable.
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].kind == Kind::kIdent && t[i].text == "for")) continue;
    if (t[i + 1].text != "(") continue;
    int depth = 1;
    size_t colon = 0;
    for (size_t j = i + 2; j < t.size() && depth > 0; ++j) {
      const std::string& x = t[j].text;
      if (x == "(") ++depth;
      else if (x == ")") --depth;
      else if (x == ";") break;  // classic for loop
      else if (x == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0) continue;
    int depth2 = 1;
    for (size_t j = colon + 1; j < t.size() && depth2 > 0; ++j) {
      const std::string& x = t[j].text;
      if (x == "(") ++depth2;
      else if (x == ")") --depth2;
      if (depth2 > 0 && t[j].kind == Kind::kIdent &&
          unordered_vars.count(x)) {
        report(f, t[i].line, "unordered-iter",
               "range-for over unordered container '" + x +
                   "': iteration order is nondeterministic — iterate a "
                   "sorted copy, or fold through a commutative reduction "
                   "and annotate");
        break;
      }
    }
  }
  // Pass 2b: explicit iterator harvesting (X.begin() and friends).
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent || !unordered_vars.count(t[i].text)) {
      continue;
    }
    if (t[i + 1].text != "." && t[i + 1].text != "->") continue;
    const std::string& m = t[i + 2].text;
    if (m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin") {
      report(f, t[i].line, "unordered-iter",
             "iterator over unordered container '" + t[i].text +
                 "': iteration order is nondeterministic");
    }
  }
}

void Linter::rule_wall_clock(const FileCtx& f) {
  for (const std::string& exempt : kWallClockExemptPaths) {
    if (path_anchored_match(f.path, exempt)) return;
  }
  for (const Token& tok : f.code) {
    if (tok.kind != Kind::kIdent) continue;
    if (!kWallClockIdents.count(tok.text)) continue;
    report(f, tok.line, "wall-clock",
           "'" + tok.text +
               "' brings wall-clock time or unseeded randomness into a "
               "deterministic TU — results must be a pure function of the "
               "config and seeds (common/prng.h for randomness)");
  }
}

void Linter::rule_ptr_key(const FileCtx& f) {
  const std::vector<Token>& t = f.code;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent ||
        !kAssociativeContainers.count(t[i].text)) {
      continue;
    }
    if (t[i + 1].text != "<") continue;
    if (skip_template_args(t, i + 1) == std::string::npos) continue;
    // Scan the first template argument (up to a depth-1 ',' or the
    // closing '>') for a pointer declarator.
    int depth = 1;
    for (size_t j = i + 2; j < t.size() && depth > 0; ++j) {
      const std::string& x = t[j].text;
      if (t[j].kind == Kind::kPunct) {
        if (x == "<" || x == "(") ++depth;
        else if (x == ")") --depth;
        else if (x == ">") { if (--depth == 0) break; }
        else if (x == ">>") { depth -= 2; if (depth <= 0) break; }
        else if (x == "," && depth == 1) break;
        else if (x == "*") {
          report(f, t[i].line, "ptr-key",
                 "pointer-keyed " + t[i].text +
                     ": pointer values change run to run, so any order or "
                     "hash derived from them is nondeterministic — key by a "
                     "stable id or name instead");
          break;
        }
      }
    }
  }
}

void Linter::rule_pod_init(const FileCtx& f) {
  const std::vector<Token>& t = f.code;

  // Skips a balanced {...}; i indexes the '{'. Returns index past '}'.
  const auto skip_braces = [&](size_t i) {
    int depth = 0;
    for (; i < t.size(); ++i) {
      if (t[i].text == "{") ++depth;
      else if (t[i].text == "}" && --depth == 0) return i + 1;
    }
    return i;
  };

  // Analyzes one member declaration (tokens up to ';'), reporting each
  // uninitialized POD declarator.
  const auto analyze = [&](const std::vector<Token>& decl,
                           const std::string& sname, bool braced_init) {
    if (decl.empty() || braced_init) return;
    static const std::set<std::string> kSkipLead = {
        "static", "constexpr", "using", "typedef", "friend",
        "template", "operator", "inline", "virtual", "explicit"};
    if (kSkipLead.count(decl.front().text)) return;
    for (const Token& d : decl) {
      if (d.text == "=" || d.text == "(") return;  // initialized / function
    }
    // Leading qualifiers, then either a builtin scalar run or a class
    // type name that must turn out to be a pointer declarator —
    // uninitialized pointers are flagged, value-initializing class
    // members are not.
    size_t k = 0;
    while (k < decl.size() && kPodQualTokens.count(decl[k].text)) ++k;
    bool saw_scalar = false;
    while (k < decl.size() && (kPodScalarTokens.count(decl[k].text) ||
                               decl[k].text == "::" ||
                               decl[k].text == "const")) {
      saw_scalar = saw_scalar || kPodScalarTokens.count(decl[k].text) > 0;
      ++k;
    }
    if (!saw_scalar) {
      // Possible `TypeName* name;`: consume the type name, then demand
      // at least one '*' before believing this is a POD (pointer) member.
      while (k < decl.size() &&
             (decl[k].kind == Kind::kIdent || decl[k].text == "::")) {
        ++k;
      }
      if (k >= decl.size() || decl[k].text != "*") return;
    }
    // Pointer/reference declarator tokens; references cannot be
    // default-initialized at all, so leave them to the compiler.
    while (k < decl.size() &&
           (decl[k].text == "*" || decl[k].text == "const")) {
      ++k;
    }
    if (k < decl.size() && decl[k].text == "&") return;
    bool expect_name = true;
    for (; k < decl.size(); ++k) {
      const Token& d = decl[k];
      if (d.kind == Kind::kIdent && expect_name) {
        report(f, d.line, "pod-init",
               "POD member '" + d.text + "' of struct '" + sname +
                   "' has no initializer — indeterminate bytes here can "
                   "reach stats or serialized records; give it '= 0' / "
                   "'{}'");
        expect_name = false;
      } else if (d.text == ",") {
        expect_name = true;
      } else if (d.text == "[") {
        while (k < decl.size() && decl[k].text != "]") ++k;
      } else if (d.text == ":") {
        // Bitfield width: skip the constant, stay on this declarator.
        ++k;
      } else if (d.kind == Kind::kIdent) {
        return;  // unexpected shape (macro, attribute) — stay quiet
      }
    }
  };

  // Parses a struct body starting at the '{'; returns index past '}'.
  // Declared std::function-style so nested structs can recurse.
  const std::function<size_t(size_t, const std::string&)> parse_body =
      [&](size_t i, const std::string& sname) -> size_t {
    ++i;  // past '{'
    std::vector<Token> decl;
    bool braced_init = false;
    while (i < t.size()) {
      const Token& tok = t[i];
      if (tok.text == "}") return i + 1;
      if (tok.kind == Kind::kIdent &&
          (tok.text == "public" || tok.text == "private" ||
           tok.text == "protected") &&
          i + 1 < t.size() && t[i + 1].text == ":") {
        i += 2;
        continue;
      }
      if (tok.kind == Kind::kIdent && tok.text == "struct") {
        // Nested struct definition: recurse, then swallow through the
        // trailing declarator (its type isn't a builtin scalar).
        size_t j = i + 1;
        std::string nested = sname + "::<anonymous>";
        if (j < t.size() && t[j].kind == Kind::kIdent) {
          nested = t[j].text;
          ++j;
        }
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
        i = (j < t.size() && t[j].text == "{") ? parse_body(j, nested)
                                               : j + 1;
        while (i < t.size() && t[i].text != ";" && t[i].text != "}") ++i;
        if (i < t.size() && t[i].text == ";") ++i;
        decl.clear();
        continue;
      }
      if (tok.kind == Kind::kIdent &&
          (tok.text == "class" || tok.text == "union" ||
           tok.text == "enum")) {
        size_t j = i + 1;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
        i = (j < t.size() && t[j].text == "{") ? skip_braces(j) : j + 1;
        while (i < t.size() && t[i].text != ";" && t[i].text != "}") ++i;
        if (i < t.size() && t[i].text == ";") ++i;
        decl.clear();
        continue;
      }
      if (tok.text == "{") {
        bool is_function = false;
        for (const Token& d : decl) {
          if (d.text == "(" || d.text == "=") {
            is_function = d.text == "(";
            break;
          }
        }
        if (is_function) {
          i = skip_braces(i);
          decl.clear();
          continue;
        }
        braced_init = true;  // NSDMI: `int x{0};`
        i = skip_braces(i);
        continue;
      }
      if (tok.text == "(") {
        // Function declaration/definition or ctor: skip the balanced
        // parens; the '(' token stays in decl so analyze() skips it.
        int depth = 0;
        decl.push_back(tok);
        for (; i < t.size(); ++i) {
          if (t[i].text == "(") ++depth;
          else if (t[i].text == ")" && --depth == 0) { ++i; break; }
        }
        continue;
      }
      if (tok.text == "=") {
        // Initializer (or `= default`): note it, then skip balanced to
        // the ';' — lambda bodies on the right may contain ';'.
        decl.push_back(tok);
        int b = 0, p = 0;
        for (++i; i < t.size(); ++i) {
          const std::string& x = t[i].text;
          if (x == "{") ++b;
          else if (x == "}") --b;
          else if (x == "(") ++p;
          else if (x == ")") --p;
          else if (x == ";" && b == 0 && p == 0) break;
        }
        continue;
      }
      if (tok.text == ";") {
        analyze(decl, sname, braced_init);
        decl.clear();
        braced_init = false;
        ++i;
        continue;
      }
      decl.push_back(tok);
      ++i;
    }
    return i;
  };

  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].kind == Kind::kIdent && t[i].text == "struct")) continue;
    size_t j = i + 1;
    std::string name = "<anonymous>";
    if (j < t.size() && t[j].kind == Kind::kIdent) {
      name = t[j].text;
      ++j;
    }
    if (j < t.size() && t[j].text == "final") ++j;
    if (j < t.size() && t[j].text == ":") {
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    }
    if (j >= t.size() || t[j].text != "{") continue;  // fwd decl / type use
    i = parse_body(j, name) - 1;
  }
}

void Linter::rule_raw_ofstream(const FileCtx& f) {
  // Tests write corrupt fixtures on purpose, and atomic_file.* is the
  // sanctioned implementation the rule funnels everyone toward.
  if (f.base.size() >= 8 &&
      f.base.compare(f.base.size() - 8, 8, "_test.cc") == 0) {
    return;
  }
  if (f.base.rfind("atomic_file.", 0) == 0) return;
  for (const Token& tok : f.code) {
    if (tok.kind != Kind::kIdent || tok.text != "ofstream") continue;
    report(f, tok.line, "raw-ofstream",
           "raw ofstream writes an artifact in place — a crash mid-write "
           "leaves a torn file the next run half-parses; use "
           "common::atomic_write_file / AtomicFile (or JournalWriter for "
           "append+fsync logs) instead");
  }
}

void Linter::rule_config_parity(const FileCtx& f) {
  if (f.base != "config_io.cc") return;
  const std::vector<Token>& t = f.code;
  std::map<std::string, int> parsed;    // key -> line of the parse branch
  std::set<std::string> rendered;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Kind::kString) {
      const std::string s = gpumas::srclex::string_content(t[i]);
      // fields() map entry: {"key", ...} — drives both parse and render.
      if (i >= 1 && i + 1 < t.size() && t[i - 1].text == "{" &&
          t[i + 1].text == "," && is_identifier_word(s)) {
        parsed.emplace(s, t[i].line);
        rendered.insert(s);
      }
      // Rendered key: a literal spelled "key = " (the special-cased
      // non-fields() renderings in config_to_string).
      if (s.size() > 3 && s.compare(s.size() - 3, 3, " = ") == 0 &&
          is_identifier_word(s.substr(0, s.size() - 3))) {
        rendered.insert(s.substr(0, s.size() - 3));
      }
      // Parse branch: `key == "the_key"`.
      if (i >= 2 && t[i - 1].text == "==" && t[i - 2].kind == Kind::kIdent &&
          t[i - 2].text == "key" && is_identifier_word(s)) {
        parsed.emplace(s, t[i].line);
      }
    }
  }
  for (const auto& [key, line] : parsed) {
    if (rendered.count(key)) continue;
    report(f, line, "config-parity",
           "config key '" + key +
               "' is parsed but never rendered by config_to_string — "
               "fingerprints and store keys will not see it, so two "
               "configs differing only in '" + key +
               "' would share artifacts; render it");
  }
}

void Linter::rule_result_parity(const FileCtx& f) {
  if (f.base != "result_io.cc") return;
  const std::vector<Token>& t = f.code;
  std::map<std::string, int> written;  // field -> line first written
  std::set<std::string> parsed;
  for (const Token& tok : t) {
    if (tok.kind != Kind::kString) continue;
    std::string s = gpumas::srclex::string_content(tok);
    if (is_identifier_word(s)) {
      parsed.insert(s);
      continue;
    }
    if (!s.empty() && s[0] == ' ') s = s.substr(1);
    if (s.size() >= 2 && s.back() == '=' &&
        is_identifier_word(s.substr(0, s.size() - 1))) {
      written.emplace(s.substr(0, s.size() - 1), tok.line);
    }
  }
  for (const auto& [field, line] : written) {
    if (parsed.count(field)) continue;
    report(f, line, "result-parity",
           "result field '" + field +
               "=' is serialized but has no parse branch — dumps written "
               "by this binary could not be merged back; add the parse "
               "(and bump the record version if the schema changed)");
  }
}

void Linter::rule_readme_flags(const FileCtx& f) {
  // The bench flag parser plus the orchestrator's: both own README flag
  // tables, and both feed the reverse check in finish(). The orchestrator
  // match is path-anchored so only the real driver counts.
  if (f.base != "bench_common.cc" &&
      !path_anchored_match(f.path, "tools/orchestrate.cc")) {
    return;
  }
  const std::vector<Token>& t = f.code;
  std::map<std::string, int> flags;  // --flag -> line accepted
  for (size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Kind::kString || t[i - 1].text != "==") continue;
    const std::string s = gpumas::srclex::string_content(t[i]);
    if (s.rfind("--", 0) == 0 && s.size() > 2) flags.emplace(s, t[i].line);
  }
  if (flags.empty()) return;
  saw_parse_options_ = true;
  for (const auto& [flag, line] : flags) {
    accepted_flags_.emplace(flag, f.path);
  }

  std::ifstream in(readme_path_);
  if (!in.good()) {
    report(f, 0, "readme-flags",
           "cannot read '" + readme_path_ +
               "' to check the bench flag table (--readme overrides the "
               "path)");
    return;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string readme = buf.str();
  for (const auto& [flag, line] : flags) {
    if (kFlagExclusions.count(flag)) continue;
    bool documented = false;
    for (size_t pos = readme.find(flag); pos != std::string::npos;
         pos = readme.find(flag, pos + 1)) {
      const size_t end = pos + flag.size();
      const char next = end < readme.size() ? readme[end] : '\0';
      if (!std::isalnum(static_cast<unsigned char>(next)) && next != '-') {
        documented = true;
        break;
      }
    }
    if (!documented) {
      report(f, line, "readme-flags",
             "parse_options accepts '" + flag + "' but '" + readme_path_ +
                 "' never mentions it — document it in the bench flag "
                 "table");
    }
  }
}

void Linter::finish() {
  // Reverse README check: every --flag a table row documents must be
  // accepted by the scanned parse_options. Runs once, after the scan,
  // and only when a parse_options was actually seen.
  if (!saw_parse_options_) return;
  std::ifstream in(readme_path_);
  if (!in.good()) return;  // forward pass already reported this
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("| `--", 0) != 0) continue;
    // First --flag token of the row is the documented flag.
    const size_t at = line.find("--");
    size_t end = at;
    while (end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[end])) ||
            line[end] == '-')) {
      ++end;
    }
    const std::string flag = line.substr(at, end - at);
    if (!accepted_flags_.count(flag) && !kFlagExclusions.count(flag)) {
      findings_.push_back(
          Finding{readme_path_, line_no, "readme-flags",
                  "the flag table documents '" + flag +
                      "' but no scanned parse_options accepts it — stale "
                      "docs drift into wrong invocations; drop the row or "
                      "add the flag"});
    }
  }
}

void Linter::lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    findings_.push_back(
        Finding{path, 0, "bad-annotation", "cannot read file"});
    return;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::vector<Token> all = gpumas::srclex::lex(buf.str());

  FileCtx f;
  f.path = path;
  f.base = fs::path(path).filename().string();
  f.code.reserve(all.size());
  for (const Token& tok : all) {
    if (tok.kind != Kind::kComment) f.code.push_back(tok);
  }
  collect_annotations(f, all);

  rule_unordered_iter(f);
  rule_wall_clock(f);
  rule_ptr_key(f);
  rule_pod_init(f);
  rule_raw_ofstream(f);
  rule_config_parity(f);
  rule_result_parity(f);
  rule_readme_flags(f);
  ++files_scanned_;
}

// ---------------------------------------------------------------- driver

bool should_prune_dir(const std::string& name) {
  return name.empty() || name[0] == '.' || name.rfind("build", 0) == 0 ||
         name == "detlint_fixtures";
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

void collect_files(const fs::path& root, bool is_root,
                   std::vector<std::string>& out) {
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    if (!is_root && should_prune_dir(root.filename().string())) return;
    std::vector<fs::path> entries;
    for (const auto& e : fs::directory_iterator(root, ec)) {
      entries.push_back(e.path());
    }
    // directory_iterator order is unspecified; a determinism linter
    // reports in a deterministic order.
    std::sort(entries.begin(), entries.end());
    for (const auto& e : entries) collect_files(e, false, out);
    return;
  }
  if (lintable(root)) out.push_back(root.string());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int usage(const std::string& why) {
  std::cerr << "detlint: " << why << "\n"
            << "usage: detlint [--json FILE] [--readme FILE] PATH "
               "[PATH...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string readme_path = "README.md";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return usage("missing value for --json");
      json_path = argv[++i];
    } else if (arg == "--readme") {
      if (i + 1 >= argc) return usage("missing value for --readme");
      readme_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage("help");
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown flag " + arg);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage("no paths given");

  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (!fs::exists(root, ec)) return usage("no such path: " + root);
    collect_files(root, /*is_root=*/true, files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Linter linter(readme_path);
  for (const auto& file : files) linter.lint_file(file);
  linter.finish();

  std::vector<Finding> findings = linter.findings();
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cerr << "detlint: scanned " << linter.files_scanned() << " files, "
            << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << " ("
            << linter.suppressed() << " suppressed by annotations)\n";

  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"files_scanned\": " << linter.files_scanned()
        << ",\n  \"suppressed\": " << linter.suppressed()
        << ",\n  \"count\": " << findings.size() << ",\n  \"findings\": [";
    for (size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      out << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(f.file)
          << "\", \"line\": " << f.line << ", \"rule\": \""
          << json_escape(f.rule) << "\", \"message\": \""
          << json_escape(f.message) << "\"}";
    }
    out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
    try {
      gpumas::common::atomic_write_file(json_path, out.str());
    } catch (const std::exception& e) {
      return usage("cannot write --json file " + json_path + ": " +
                   e.what());
    }
  }
  return findings.empty() ? 0 : 1;
}
