// ecthub_lint rule engine tests: every rule fires on its seeded fixture,
// stays silent on clean fixtures mirroring the repo's real idioms, honors the
// allowlist, and detects stale allowlist entries.  The Repo* tests at the
// bottom run the shipped configuration over the real tree, so `ctest` itself
// enforces "src/ is lint-clean and the allowlist is honest" — CI Job 5 then
// re-checks the same invariant from the command line.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using ecthub::lint::Allowlist;
using ecthub::lint::Finding;

const std::string kFixtureDir = ECTHUB_LINT_FIXTURE_DIR;
const std::string kRepoRoot = ECTHUB_REPO_ROOT;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> lint_fixture(const std::string& name) {
  const std::string path = kFixtureDir + "/" + name;
  return ecthub::lint::lint_source(path, read_file(path));
}

std::map<std::string, int> rule_counts(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

// ---------------------------------------------------------------------------
// Lexical preprocessing
// ---------------------------------------------------------------------------

TEST(LintStrip, RemovesCommentsAndLiteralContentsPreservingLines) {
  const std::string src =
      "int a; // std::rand() in a comment\n"
      "/* std::random_device\n"
      "   spans lines */ int b;\n"
      "const char* s = \"std::rand()\";\n";
  const std::string stripped = ecthub::lint::strip_comments_and_literals(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStrip, HandlesRawStringsAndDigitSeparators) {
  const std::string src =
      "const char* r = R\"(getenv inside raw)\";\n"
      "long big = 1'000'000;\n";
  const std::string stripped = ecthub::lint::strip_comments_and_literals(src);
  EXPECT_EQ(stripped.find("getenv"), std::string::npos);
  EXPECT_NE(stripped.find("1'000'000"), std::string::npos);
}

TEST(LintStrip, CommentedCodeNeverFires) {
  const auto findings = ecthub::lint::lint_source(
      "x.cpp", "// static int calls = 0; std::rand();\nint f() { return 0; }\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

TEST(LintDeterminism, RandFixtureFiresPerSite) {
  const auto counts = rule_counts(lint_fixture("determinism_rand.cpp"));
  EXPECT_EQ(counts.at("determinism/rand"), 2);            // srand + rand
  EXPECT_EQ(counts.at("determinism/random-device"), 1);
}

TEST(LintDeterminism, WallClockAndGetenvFixture) {
  const auto findings = lint_fixture("determinism_time.cpp");
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("determinism/wall-clock"), 2);      // time() + _clock::now
  EXPECT_EQ(counts.at("determinism/getenv"), 1);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintDeterminism, StaticLocalsFlaggedConstTableAllowed) {
  const auto findings = lint_fixture("determinism_static_local.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "determinism/static-local");
  EXPECT_EQ(findings[1].rule, "determinism/static-local");
  // The `static thread_local` scratch-RNG shape (PR 5's bug) is one of them.
  EXPECT_NE(findings[1].excerpt.find("thread_local"), std::string::npos);
  // `static const int kinds[4]` at the bottom of the fixture did not fire.
  for (const Finding& f : findings) {
    EXPECT_EQ(f.excerpt.find("kinds"), std::string::npos);
  }
}

TEST(LintDeterminism, NamespaceScopeStaticIsNotAFunctionLocal) {
  const auto findings = ecthub::lint::lint_source(
      "x.cpp",
      "static int file_scope_helper(int x) { return x; }\n"
      "namespace { static double weight = 0.5; }\n");
  // File-scope internal-linkage declarations are a different concern — the
  // function-local rule must not fire on them.
  EXPECT_TRUE(findings.empty());
}

/// A fixture's findings as if the file lived at `dir`/<name> in the repo.
std::vector<Finding> lint_fixture_at(const std::string& dir, const std::string& name) {
  return ecthub::lint::lint_source(dir + "/" + name, read_file(kFixtureDir + "/" + name));
}

TEST(LintDeterminism, LibmCallsFlaggedUnderNnAndRl) {
  for (const std::string dir : {"src/nn", "src/rl", "/work/ecthub/src/nn"}) {
    const auto findings = lint_fixture_at(dir, "determinism_libm.cpp");
    EXPECT_EQ(findings.size(), 10u) << dir;
    EXPECT_EQ(rule_counts(findings)["determinism/libm"], 10) << dir;
  }
}

TEST(LintDeterminism, LibmCallsFlaggedInEverySrcModuleOnly) {
  // The rule covers every module under src/ (listed from the real tree, so a
  // new module is covered too) and nothing outside it.
  std::vector<std::string> modules;
  for (const auto& entry : std::filesystem::directory_iterator(kRepoRoot + "/src")) {
    if (entry.is_directory()) modules.push_back("src/" + entry.path().filename().string());
  }
  ASSERT_GE(modules.size(), 17u);
  for (const std::string& dir : modules) {
    EXPECT_EQ(rule_counts(lint_fixture_at(dir, "determinism_libm.cpp"))["determinism/libm"], 10)
        << dir;
    const auto names = lint_fixture_at(dir, "determinism_libm_names.cpp");
    EXPECT_EQ(names.size(), 16u) << dir;
    EXPECT_EQ(rule_counts(names)["determinism/libm"], 16) << dir;
  }
  for (const std::string dir : {"tests", "tests/nn", "bench", "examples"}) {
    EXPECT_TRUE(lint_fixture_at(dir, "determinism_libm.cpp").empty()) << dir;
    EXPECT_TRUE(lint_fixture_at(dir, "determinism_libm_names.cpp").empty()) << dir;
  }
}

TEST(LintDeterminism, StdRandomFlaggedUnderSrcOnly) {
  for (const std::string dir : {"src/common", "src/weather", "/work/ecthub/src/sim"}) {
    const auto findings = lint_fixture_at(dir, "determinism_std_random.cpp");
    EXPECT_EQ(findings.size(), 9u) << dir;
    EXPECT_EQ(rule_counts(findings)["determinism/std-random"], 9) << dir;
  }
  // The differential Rng tests compare against <random>: tests/ is exempt.
  EXPECT_TRUE(lint_fixture_at("tests", "determinism_std_random.cpp").empty());
}

TEST(LintClean, ElementaryCallsAreClean) {
  EXPECT_TRUE(lint_fixture_at("src/nn", "clean_elementary.cpp").empty());
  EXPECT_TRUE(lint_fixture_at("src/rl", "clean_elementary.cpp").empty());
}

// ---------------------------------------------------------------------------
// Hot-path allocation rules
// ---------------------------------------------------------------------------

TEST(LintHotpath, AllocFixtureFiresPerClassAndColdPathIsSilent) {
  const auto findings = lint_fixture("hotpath_alloc.cpp");
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("hotpath/new"), 1);
  EXPECT_EQ(counts.at("hotpath/make-owning"), 1);
  EXPECT_EQ(counts.at("hotpath/string-construction"), 1);
  EXPECT_EQ(counts.at("hotpath/container-growth"), 3);  // push_back, reserve, resize
  // Nothing fired inside cold_path (the last function of the fixture).
  for (const Finding& f : findings) {
    EXPECT_EQ(f.excerpt.find("cold"), std::string::npos) << f.excerpt;
  }
}

TEST(LintHotpath, DecideRowsAndActRowsAreHotByName) {
  const auto src =
      "#include <vector>\n"
      "void act_rows(std::vector<int>& plan) { plan.push_back(1); }\n"
      "void decide(std::vector<int>& plan) { plan.push_back(1); }\n";
  const auto findings = ecthub::lint::lint_source("x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);  // decide() without _rows is cold
  EXPECT_EQ(findings[0].rule, "hotpath/container-growth");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintHotpath, WorkspaceAndOutputReceiversAreSanctioned) {
  const auto src =
      "#include <vector>\n"
      "struct W { std::vector<double> trunk; };\n"
      "void f_into(W& ws, std::vector<double>& out, std::vector<double>& rows) {\n"
      "  ws.trunk.resize(4);\n"
      "  out.resize(4);\n"
      "  rows.resize(4);\n"  // only this one fires: "rows" is not "ws"
      "}\n";
  const auto findings = ecthub::lint::lint_source("x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6u);
}

// ---------------------------------------------------------------------------
// Header hygiene rules
// ---------------------------------------------------------------------------

TEST(LintHeader, MissingGuardFires) {
  const auto counts = rule_counts(lint_fixture("header_no_guard.hpp"));
  EXPECT_EQ(counts.at("header/missing-guard"), 1);
}

TEST(LintHeader, UsingNamespaceAtScopeFiresButFunctionLocalIsLegal) {
  const auto findings = lint_fixture("header_using_namespace.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header/using-namespace");
  EXPECT_EQ(findings[0].line, 10u);
}

TEST(LintHeader, DocCommentBeforeGuardIsHouseStyle) {
  // The repo's headers open with a doc comment, then the guard — that must
  // not read as "code before the guard".
  const auto findings =
      ecthub::lint::lint_source("x.hpp", "// doc\n// more doc\n#pragma once\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintHeader, SourceFilesAreExemptFromHeaderRules) {
  const auto findings =
      ecthub::lint::lint_source("x.cpp", "namespace a { using namespace std; }\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Clean fixtures: the repo's real idioms are false-positive-free
// ---------------------------------------------------------------------------

TEST(LintClean, CleanModuleMirroringRepoIdiomsIsSilent) {
  const auto findings = lint_fixture("clean_module.cpp");
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s); first: "
      << (findings.empty() ? "" : findings[0].rule + " @ " + findings[0].excerpt);
}

TEST(LintClean, CleanHeaderIsSilent) {
  EXPECT_TRUE(lint_fixture("clean_header.hpp").empty());
}

TEST(LintClean, FlushLoopIdiomIsSilent) {
  // The decision-service micro-batching idiom (see
  // serve::DecisionService::flush_into): a hot-path-named flush that grows
  // only ws-named receivers, writes a fixed latency ring by index, and reads
  // time solely through an injected clock pointer.
  const auto findings = lint_fixture("clean_flush_loop.cpp");
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s); first: "
      << (findings.empty() ? "" : findings[0].rule + " @ " + findings[0].excerpt);
}

TEST(LintClean, SerializerIdiomIsSilent) {
  // The shard-file serializer idiom (byte-explicit writers, bounds-checked
  // reader, FNV-1a trailer — see src/sim/shard_io.cpp) is all cold path; the
  // linter must not mistake its buffer growth or throwing reader for hot-path
  // or determinism violations.
  const auto findings = lint_fixture("clean_serializer.cpp");
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s); first: "
      << (findings.empty() ? "" : findings[0].rule + " @ " + findings[0].excerpt);
}

// ---------------------------------------------------------------------------
// Allowlist mechanics
// ---------------------------------------------------------------------------

TEST(LintAllowlist, SuppressesMatchingFindingsAndMarksEntriesUsed) {
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(Allowlist::load(kFixtureDir + "/fixture_allowlist.txt", allow, error))
      << error;
  auto findings = lint_fixture("allowlisted.cpp");
  ASSERT_EQ(findings.size(), 1u);
  std::vector<bool> used;
  findings = ecthub::lint::apply_allowlist(std::move(findings), allow, &used);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(used.size(), 1u);
  EXPECT_TRUE(used[0]);
}

TEST(LintAllowlist, EntryWithoutJustificationIsRejected) {
  Allowlist allow;
  std::string error;
  std::istringstream missing("a.cpp | static int x |   \n");
  EXPECT_FALSE(Allowlist::parse(missing, allow, error));
  std::istringstream two_fields("a.cpp | static int x\n");
  EXPECT_FALSE(Allowlist::parse(two_fields, allow, error));
}

TEST(LintAllowlist, PathMatchRequiresComponentBoundary) {
  Allowlist allow;
  std::string error;
  std::istringstream in("ed.cpp | static int calls | bogus suffix entry\n");
  ASSERT_TRUE(Allowlist::parse(in, allow, error));
  // "allowlisted.cpp" must NOT match the entry for "ed.cpp".
  auto findings = lint_fixture("allowlisted.cpp");
  ASSERT_EQ(findings.size(), 1u);
  findings = ecthub::lint::apply_allowlist(std::move(findings), allow);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LintAllowlist, StaleEntriesDetected) {
  Allowlist allow;
  std::string error;
  std::istringstream in(
      "allowlisted.cpp | static int calls = 0; | still real\n"
      "allowlisted.cpp | this line was deleted long ago | stale\n"
      "no_such_file.cpp | anything | stale: file is gone\n");
  ASSERT_TRUE(Allowlist::parse(in, allow, error));
  const auto stale = ecthub::lint::stale_entries(allow, kFixtureDir);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].needle, "this line was deleted long ago");
  EXPECT_EQ(stale[1].file, "no_such_file.cpp");
}

// ---------------------------------------------------------------------------
// The shipped configuration over the real tree
// ---------------------------------------------------------------------------

TEST(LintRepo, SrcIsLintCleanUnderShippedAllowlist) {
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(Allowlist::load(kRepoRoot + "/tools/lint_allowlist.txt", allow, error))
      << error;
  auto findings = ecthub::lint::lint_tree(kRepoRoot + "/src");
  findings = ecthub::lint::apply_allowlist(std::move(findings), allow);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] " << f.excerpt;
  }
}

TEST(LintRepo, ShippedAllowlistIsNotStale) {
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(Allowlist::load(kRepoRoot + "/tools/lint_allowlist.txt", allow, error))
      << error;
  EXPECT_FALSE(allow.entries().empty())
      << "shipped allowlist parsed to zero entries — format drift?";
  for (const auto& e : ecthub::lint::stale_entries(allow, kRepoRoot + "/src")) {
    ADD_FAILURE() << "stale allowlist entry (line " << e.ordinal << "): " << e.file
                  << " | " << e.needle;
  }
}

}  // namespace
