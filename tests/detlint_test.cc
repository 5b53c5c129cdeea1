// Tests for the detlint linter (tools/detlint.cc) and its scanner
// (common/srclex.h). The linter half drives the real built binary
// (DETLINT_BIN, injected by CMake) over the seeded fixture corpus in
// tests/detlint_fixtures/ and over the real tree, which must lint
// clean — that last assertion is the determinism contract this repo
// ships.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/srclex.h"

namespace {

using gpumas::srclex::Kind;
using gpumas::srclex::Token;
using gpumas::srclex::lex;
using gpumas::srclex::string_content;

// ---------------------------------------------------------------- srclex

TEST(SrclexTest, TokenKindsAndLines) {
  const std::vector<Token> t = lex("int x = 42;\nfoo(\"bar\", 'c');\n");
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t[0].kind, Kind::kIdent);
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[2].kind, Kind::kPunct);
  EXPECT_EQ(t[2].text, "=");
  EXPECT_EQ(t[3].kind, Kind::kNumber);
  EXPECT_EQ(t[3].text, "42");
  EXPECT_EQ(t[5].text, "foo");
  EXPECT_EQ(t[5].line, 2);
  EXPECT_EQ(t[7].kind, Kind::kString);
  EXPECT_EQ(t[7].text, "\"bar\"");
  EXPECT_EQ(t[9].kind, Kind::kChar);
  EXPECT_EQ(t[9].text, "'c'");
}

TEST(SrclexTest, MaximalMunchPunctuators) {
  const std::vector<Token> t = lex("a::b->c<<=d; x>>y; p->*q;");
  std::vector<std::string> puncts;
  for (const Token& tok : t) {
    if (tok.kind == Kind::kPunct) puncts.push_back(tok.text);
  }
  const std::vector<std::string> want = {"::", "->", "<<=", ";", ">>",
                                         ";",  "->*", ";"};
  EXPECT_EQ(puncts, want);
}

TEST(SrclexTest, CommentsKeptWithExactLines) {
  const std::vector<Token> t =
      lex("// one\nint a;\n/* two\nlines */\nint b;\n");
  ASSERT_GE(t.size(), 2u);
  EXPECT_EQ(t[0].kind, Kind::kComment);
  EXPECT_EQ(t[0].text, "// one");
  EXPECT_EQ(t[0].line, 1);
  // The block comment starts on line 3; the token after it is on line 5.
  size_t block = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Kind::kComment && t[i].text.rfind("/*", 0) == 0) {
      block = i;
    }
  }
  EXPECT_EQ(t[block].line, 3);
  EXPECT_EQ(t[block + 1].text, "int");
  EXPECT_EQ(t[block + 1].line, 5);
}

TEST(SrclexTest, StringEscapesAndPrefixes) {
  const std::vector<Token> t = lex("u8\"a\\\"b\" L'x' R\"tag(raw \" ))tag\"");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].kind, Kind::kString);
  EXPECT_EQ(string_content(t[0]), "a\\\"b");  // escapes kept, not decoded
  EXPECT_EQ(t[1].kind, Kind::kChar);
  EXPECT_EQ(t[2].kind, Kind::kString);
  EXPECT_EQ(string_content(t[2]), "raw \" )");
}

TEST(SrclexTest, PpNumbers) {
  const std::vector<Token> t = lex("1'000'000 0x1.8p-3 3.14f .5e+10");
  ASSERT_EQ(t.size(), 4u);
  for (const Token& tok : t) EXPECT_EQ(tok.kind, Kind::kNumber);
  EXPECT_EQ(t[0].text, "1'000'000");
  EXPECT_EQ(t[1].text, "0x1.8p-3");
  EXPECT_EQ(t[3].text, ".5e+10");
}

TEST(SrclexTest, UnterminatedLiteralDoesNotThrow) {
  const std::vector<Token> t = lex("const char* s = \"never closed");
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(t.back().kind, Kind::kString);
}

// ---------------------------------------------------------------- detlint

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

LintRun run_detlint(const std::string& args) {
  const std::string cmd = std::string(DETLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintRun r;
  if (!pipe) return r;
  char buf[4096];
  while (size_t got = fread(buf, 1, sizeof buf, pipe)) {
    r.output.append(buf, got);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(GPUMAS_SOURCE_DIR) + "/tests/detlint_fixtures/" + name;
}

TEST(DetlintTest, CleanFixturePasses) {
  const LintRun r = run_detlint(fixture("clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
}

TEST(DetlintTest, UnorderedIterSeededViolationCaught) {
  const LintRun r = run_detlint(fixture("unordered_iter"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unordered-iter]"), std::string::npos) << r.output;
  // Both the range-for and the .begin() harvest fire; the annotated twin
  // stays quiet and shows up in the suppression count instead.
  EXPECT_NE(r.output.find("range-for over unordered container 'weights'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("iterator over unordered container 'weights'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 suppressed by annotations"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("suppressed.cc"), std::string::npos) << r.output;
}

TEST(DetlintTest, WallClockSeededViolationCaught) {
  const LintRun r = run_detlint(fixture("wall_clock"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'steady_clock'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'rand'"), std::string::npos) << r.output;
  // The annotated wait-path twin is suppressed, not reported.
  EXPECT_EQ(r.output.find("suppressed.cc"), std::string::npos) << r.output;
  // The exemption for the orchestrator driver is anchored to the path
  // tools/orchestrate.cc, not the basename: the fixture's impostor
  // orchestrate.cc lives in the wrong directory and must be flagged.
  EXPECT_NE(r.output.find("orchestrate.cc"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'chrono'"), std::string::npos) << r.output;
}

TEST(DetlintTest, PtrKeySeededViolationCaught) {
  const LintRun r = run_detlint(fixture("ptr_key"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[ptr-key]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("pointer-keyed map"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("pointer-keyed unordered_set"), std::string::npos)
      << r.output;
  // Pointer as mapped VALUE is fine: exactly the two key findings.
  EXPECT_NE(r.output.find("2 findings"), std::string::npos) << r.output;
}

TEST(DetlintTest, PodInitSeededViolationCaught) {
  const LintRun r = run_detlint(fixture("pod_init"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[pod-init]"), std::string::npos) << r.output;
  for (const char* member : {"'cycles'", "'ipc'", "'valid'", "'label'"}) {
    EXPECT_NE(r.output.find(member), std::string::npos)
        << member << "\n" << r.output;
  }
  // NSDMI members and class-typed members must not fire.
  EXPECT_NE(r.output.find("4 findings"), std::string::npos) << r.output;
}

TEST(DetlintTest, RawOfstreamSeededViolationCaught) {
  const LintRun r = run_detlint(fixture("raw_ofstream"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[raw-ofstream]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("atomic_write_file"), std::string::npos)
      << r.output;
  // Exactly the un-annotated write fires: the annotated twin is
  // suppressed and the *_test.cc TU is exempt by basename.
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 suppressed by annotations"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("exempt_test.cc"), std::string::npos) << r.output;
}

TEST(DetlintTest, ConfigParityCatchesPlantedKeyDrift) {
  const LintRun r = run_detlint(fixture("config_parity"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[config-parity]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'ghost_knob'"), std::string::npos) << r.output;
  // num_sms/warp_sched are rendered: exactly the planted key fires.
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
}

TEST(DetlintTest, ResultParityCatchesUnparsedField) {
  const LintRun r = run_detlint(fixture("result_parity"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[result-parity]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'extra='"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
}

TEST(DetlintTest, ReadmeFlagsCatchesBothDriftDirections) {
  const LintRun r = run_detlint(
      "--readme " + fixture("readme_flags/README.md") + " " +
      fixture("readme_flags"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[readme-flags]"), std::string::npos) << r.output;
  // Accepted but undocumented...
  EXPECT_NE(r.output.find("'--beta'"), std::string::npos) << r.output;
  // ...and documented but not accepted.
  EXPECT_NE(r.output.find("'--gamma'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("--alpha"), std::string::npos) << r.output;
}

TEST(DetlintTest, BadAnnotationsAreThemselvesFindings) {
  const LintRun r = run_detlint(fixture("bad_annotation"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown rule 'no-such-rule'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("needs a reason"), std::string::npos) << r.output;
}

TEST(DetlintTest, JsonReportMatchesTextOutput) {
  const std::string json_path =
      ::testing::TempDir() + "/detlint_report.json";
  const LintRun r = run_detlint("--json " + json_path + " " +
                                fixture("config_parity"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << json_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"config-parity\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("ghost_knob"), std::string::npos) << json;
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos) << json;
}

TEST(DetlintTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_detlint("").exit_code, 2);
  EXPECT_EQ(run_detlint("--no-such-flag x").exit_code, 2);
  EXPECT_EQ(run_detlint("/no/such/path").exit_code, 2);
}

// The determinism contract: the real tree lints clean. A regression that
// introduces unordered iteration, wall-clock leakage, schema drift or an
// uninitialized serialized member fails this test before any golden
// byte-identity test has to catch it dynamically.
TEST(DetlintTest, RealTreeIsViolationFree) {
  const std::string src = std::string(GPUMAS_SOURCE_DIR);
  const LintRun r = run_detlint("--readme " + src + "/README.md " + src +
                                "/src " + src + "/bench " + src + "/tools " +
                                src + "/tests");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
}

}  // namespace
