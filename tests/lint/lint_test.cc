#include "tools/lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace halk::lint {
namespace {

std::vector<Diagnostic> Lint(const std::string& path,
                             const std::string& text) {
  return LintFileContent(path, text, Options{}).diagnostics;
}

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& rule,
             int line = -1) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) {
                       return d.rule == rule &&
                              (line < 0 || d.line == line);
                     });
}

// ---------------------------------------------------------------------------
// StripCommentsAndStrings
// ---------------------------------------------------------------------------

TEST(StripTest, BlanksLineAndBlockComments) {
  const std::string in = "int x;  // new Foo\n/* delete p; */int y;\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.size(), in.size());
  EXPECT_EQ(out, "int x;            \n               int y;\n");
}

TEST(StripTest, BlanksStringAndCharLiterals) {
  const std::string in = "auto s = \"new X\"; char c = 'n';\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("new"), std::string::npos);
  // The surrounding code survives.
  EXPECT_NE(out.find("auto s ="), std::string::npos);
}

TEST(StripTest, HandlesEscapesInsideStrings) {
  const std::string in = R"(auto s = "a\"new\""; int z;)";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_NE(out.find("int z;"), std::string::npos);
}

TEST(StripTest, BlanksRawStrings) {
  const std::string in = "auto q = R\"(new Foo // delete)\"; int after;";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_EQ(out.find("delete"), std::string::npos);
  EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(StripTest, PreservesNewlinesInsideComments) {
  const std::string in = "/* a\nb\nc */int x;";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

// ---------------------------------------------------------------------------
// no-using-namespace-header
// ---------------------------------------------------------------------------

TEST(UsingNamespaceTest, FiresInHeader) {
  const auto diags = Lint("src/foo/bar.h", "using namespace std;\n");
  EXPECT_TRUE(HasRule(diags, "no-using-namespace-header", 1));
}

TEST(UsingNamespaceTest, SilentInSourceFile) {
  const auto diags = Lint("src/foo/bar.cc", "using namespace std;\n");
  EXPECT_FALSE(HasRule(diags, "no-using-namespace-header"));
}

TEST(UsingNamespaceTest, SilentInCommentAndSuppressedInline) {
  EXPECT_FALSE(HasRule(Lint("a.h", "// using namespace std;\n"),
                       "no-using-namespace-header"));
  EXPECT_FALSE(HasRule(
      Lint("a.h",
           "using namespace std;  "
           "// halk_lint:allow no-using-namespace-header\n"),
      "no-using-namespace-header"));
}

// ---------------------------------------------------------------------------
// no-raw-new-delete
// ---------------------------------------------------------------------------

TEST(RawNewDeleteTest, FiresOnNewAndDelete) {
  EXPECT_TRUE(HasRule(Lint("src/a.cc", "auto* p = new Foo();\n"),
                      "no-raw-new-delete", 1));
  EXPECT_TRUE(
      HasRule(Lint("src/a.cc", "delete p;\n"), "no-raw-new-delete", 1));
  EXPECT_TRUE(
      HasRule(Lint("src/a.cc", "delete[] arr;\n"), "no-raw-new-delete", 1));
}

TEST(RawNewDeleteTest, DefaultedSpecialMembersAreNotDeletes) {
  const auto diags =
      Lint("src/a.h", "Foo(const Foo&) = delete;\nFoo& operator=(const "
                      "Foo&) = delete;\n");
  EXPECT_FALSE(HasRule(diags, "no-raw-new-delete"));
}

TEST(RawNewDeleteTest, TensorArenaIsExempt) {
  EXPECT_FALSE(HasRule(Lint("src/tensor/arena.cc", "auto* p = new float[8];\n"),
                       "no-raw-new-delete"));
}

TEST(RawNewDeleteTest, IdentifiersContainingNewDoNotFire) {
  EXPECT_FALSE(HasRule(Lint("src/a.cc", "int renew_count = new_size;\n"),
                       "no-raw-new-delete"));
}

// ---------------------------------------------------------------------------
// no-std-mutex
// ---------------------------------------------------------------------------

TEST(StdMutexTest, FiresOnStdPrimitives) {
  EXPECT_TRUE(
      HasRule(Lint("src/a.h", "std::mutex mu_;\n"), "no-std-mutex", 1));
  EXPECT_TRUE(HasRule(Lint("src/a.cc", "std::lock_guard<std::mutex> l(m);\n"),
                      "no-std-mutex", 1));
  EXPECT_TRUE(HasRule(Lint("src/a.h", "std::condition_variable cv_;\n"),
                      "no-std-mutex", 1));
}

TEST(StdMutexTest, AnnotatedWrapperIsFine) {
  const auto diags =
      Lint("src/a.h", "halk::Mutex mu_;\nint x_ HALK_GUARDED_BY(mu_);\n");
  EXPECT_FALSE(HasRule(diags, "no-std-mutex"));
}

TEST(StdMutexTest, InlineAllowSuppresses) {
  const auto diags = Lint(
      "src/a.h", "std::mutex mu_;  // halk_lint:allow no-std-mutex — why\n");
  EXPECT_FALSE(HasRule(diags, "no-std-mutex"));
}

// ---------------------------------------------------------------------------
// mutex-guarded
// ---------------------------------------------------------------------------

TEST(MutexGuardedTest, UnguardedMutexMemberFires) {
  const auto diags = Lint("src/a.h", "class C {\n  Mutex mu_;\n  int x_;\n};\n");
  EXPECT_TRUE(HasRule(diags, "mutex-guarded", 2));
}

TEST(MutexGuardedTest, GuardedMutexMemberIsFine) {
  const auto diags = Lint(
      "src/a.h",
      "class C {\n  mutable Mutex mu_;\n  int x_ HALK_GUARDED_BY(mu_);\n};\n");
  EXPECT_FALSE(HasRule(diags, "mutex-guarded"));
}

TEST(MutexGuardedTest, PtGuardedAlsoCounts) {
  const auto diags =
      Lint("src/a.h",
           "class C {\n  Mutex mu_;\n  int* p_ HALK_PT_GUARDED_BY(mu_);\n};\n");
  EXPECT_FALSE(HasRule(diags, "mutex-guarded"));
}

TEST(MutexGuardedTest, StaticAndLocalMutexesAreSkipped) {
  EXPECT_FALSE(HasRule(Lint("src/a.cc", "static Mutex g_mu;\n"),
                       "mutex-guarded"));
}

// ---------------------------------------------------------------------------
// memory-order-comment
// ---------------------------------------------------------------------------

TEST(MemoryOrderTest, UncommentedRelaxedFires) {
  const auto diags =
      Lint("src/a.cc", "n_.fetch_add(1, std::memory_order_relaxed);\n");
  EXPECT_TRUE(HasRule(diags, "memory-order-comment", 1));
}

TEST(MemoryOrderTest, SameLineOrderCommentPasses) {
  const auto diags = Lint(
      "src/a.cc",
      "n_.fetch_add(1, std::memory_order_relaxed);  // order: counter only\n");
  EXPECT_FALSE(HasRule(diags, "memory-order-comment"));
}

TEST(MemoryOrderTest, CommentWithinTenLinesPasses) {
  std::string text = "// order: seqlock write protocol\n";
  for (int i = 0; i < 9; ++i) text += "int filler" + std::to_string(i) + ";\n";
  text += "seq_.store(s, std::memory_order_release);\n";
  EXPECT_FALSE(HasRule(Lint("src/a.cc", text), "memory-order-comment"));
}

TEST(MemoryOrderTest, CommentBeyondTenLinesFires) {
  std::string text = "// order: too far away\n";
  for (int i = 0; i < 11; ++i) text += "int filler" + std::to_string(i) + ";\n";
  text += "seq_.store(s, std::memory_order_release);\n";
  EXPECT_TRUE(HasRule(Lint("src/a.cc", text), "memory-order-comment"));
}

TEST(MemoryOrderTest, SeqCstNeedsNoComment) {
  EXPECT_FALSE(HasRule(Lint("src/a.cc", "n_.store(1);\n"),
                       "memory-order-comment"));
}

// ---------------------------------------------------------------------------
// nodiscard-status
// ---------------------------------------------------------------------------

TEST(NodiscardTest, HeaderDeclWithoutAttributeFires) {
  const auto diags = Lint("src/a.h", "Status Load(const std::string& p);\n");
  EXPECT_TRUE(HasRule(diags, "nodiscard-status", 1));
}

TEST(NodiscardTest, ResultDeclWithoutAttributeFires) {
  const auto diags =
      Lint("src/a.h", "Result<std::vector<int>> Parse(std::string s);\n");
  EXPECT_TRUE(HasRule(diags, "nodiscard-status", 1));
}

TEST(NodiscardTest, AttributeOnSameOrPrecedingLinePasses) {
  EXPECT_FALSE(HasRule(
      Lint("src/a.h", "[[nodiscard]] Status Load(const std::string& p);\n"),
      "nodiscard-status"));
  EXPECT_FALSE(HasRule(
      Lint("src/a.h", "[[nodiscard]]\nStatus Load(const std::string& p);\n"),
      "nodiscard-status"));
}

TEST(NodiscardTest, ConstructorsAndSourceFilesDoNotFire) {
  // `Status()` / `Result(T)` constructors have no function name after the
  // type, and .cc definitions are the declaration's responsibility.
  EXPECT_FALSE(HasRule(Lint("src/a.h", "Status() : code_(kOk) {}\n"),
                       "nodiscard-status"));
  EXPECT_FALSE(HasRule(
      Lint("src/a.cc", "Status Load(const std::string& p) { return {}; }\n"),
      "nodiscard-status"));
}

TEST(NodiscardTest, StatusHeaderRequiresClassLevelAttribute) {
  const auto bad = Lint("src/common/status.h",
                        "class Status {};\ntemplate <typename T>\nclass "
                        "Result {};\n");
  EXPECT_TRUE(HasRule(bad, "nodiscard-status"));
  const auto good =
      Lint("src/common/status.h",
           "class [[nodiscard]] Status {};\ntemplate <typename T>\nclass "
           "[[nodiscard]] Result {};\n");
  EXPECT_FALSE(HasRule(good, "nodiscard-status"));
}

TEST(NodiscardTest, FixInsertsAttributePreservingIndent) {
  Options fix;
  fix.fix = true;
  const std::string text =
      "class C {\n  Status Load(const std::string& p);\n};\n";
  FileResult result = LintFileContent("src/a.h", text, fix);
  ASSERT_TRUE(result.changed);
  EXPECT_NE(result.fixed_text.find(
                "  [[nodiscard]] Status Load(const std::string& p);"),
            std::string::npos);
  // The fixed finding is reported but marked as repaired.
  ASSERT_TRUE(HasRule(result.diagnostics, "nodiscard-status"));
  EXPECT_EQ(result.diagnostics[0].message.rfind("[fixed] ", 0), 0u);
  // Re-linting the fixed text is clean.
  EXPECT_FALSE(HasRule(Lint("src/a.h", result.fixed_text),
                       "nodiscard-status"));
}

// ---------------------------------------------------------------------------
// gitignore-hygiene
// ---------------------------------------------------------------------------

TEST(GitignoreTest, MissingFileIsOneFinding) {
  const auto diags = LintGitignore(".gitignore", "", /*exists=*/false);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "gitignore-hygiene");
}

TEST(GitignoreTest, CompleteFileIsClean) {
  const auto diags = LintGitignore(
      ".gitignore", "build/\nbuild-*/\nBENCH_*.json\nartifacts/\n",
      /*exists=*/true);
  EXPECT_TRUE(diags.empty());
}

TEST(GitignoreTest, BuildGlobCoversBothBuildPatterns) {
  const auto diags = LintGitignore(
      ".gitignore", "build*/\nBENCH_*.json\nartifacts/\n", /*exists=*/true);
  EXPECT_TRUE(diags.empty());
}

TEST(GitignoreTest, EachMissingPatternIsItsOwnFinding) {
  const auto diags =
      LintGitignore(".gitignore", "build/\n", /*exists=*/true);
  EXPECT_EQ(diags.size(), 3u);  // build-*/, BENCH_*.json, artifacts/
  for (const auto& d : diags) EXPECT_EQ(d.rule, "gitignore-hygiene");
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

TEST(AllowlistTest, ParsesEntriesAndEnforcesJustification) {
  std::vector<Diagnostic> diags;
  const auto entries = ParseAllowlist(
      "# header comment\n"
      "no-std-mutex src/common/mutex.h  # the annotated wrapper itself\n"
      "mutex-guarded src/legacy/  \n",
      "allow.txt", &diags);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].has_justification);
  EXPECT_FALSE(entries[1].has_justification);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "allowlist-justification");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(AllowlistTest, MalformedEntryIsASyntaxFinding) {
  std::vector<Diagnostic> diags;
  const auto entries = ParseAllowlist("just-a-rule\n", "allow.txt", &diags);
  EXPECT_TRUE(entries.empty());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "allowlist-syntax");
}

TEST(AllowlistTest, AllowedMatchesRuleAndPathSubstring) {
  std::vector<Diagnostic> diags;
  const auto entries = ParseAllowlist(
      "no-std-mutex common/mutex.h  # wrapper\n"
      "* src/generated/  # machine output\n",
      "allow.txt", &diags);
  EXPECT_TRUE(Allowed(entries, "no-std-mutex", "src/common/mutex.h"));
  EXPECT_FALSE(Allowed(entries, "mutex-guarded", "src/common/mutex.h"));
  EXPECT_FALSE(Allowed(entries, "no-std-mutex", "src/serving/server.h"));
  // A `*` rule suppresses everything under the path.
  EXPECT_TRUE(Allowed(entries, "no-raw-new-delete", "src/generated/x.cc"));
}

// ---------------------------------------------------------------------------
// profile-scope-literal
// ---------------------------------------------------------------------------

TEST(ProfileScopeLiteralTest, LiteralArgumentPasses) {
  const std::string code =
      "void Step() {\n"
      "  HALK_PROFILE_SCOPE(\"train/step\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/core/trainer.cc", code),
                       "profile-scope-literal"));
}

TEST(ProfileScopeLiteralTest, DynamicArgumentFires) {
  const std::string code =
      "void Step(const std::string& name) {\n"
      "  HALK_PROFILE_SCOPE(name.c_str());\n"
      "}\n";
  EXPECT_TRUE(HasRule(Lint("src/core/trainer.cc", code),
                      "profile-scope-literal", 2));
}

TEST(ProfileScopeLiteralTest, WrappedLiteralOnNextLinePasses) {
  const std::string code =
      "void Step() {\n"
      "  HALK_PROFILE_SCOPE(\n"
      "      \"train/a_rather_long_region_name\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/core/trainer.cc", code),
                       "profile-scope-literal"));
}

TEST(ProfileScopeLiteralTest, MacroDefinitionItselfIsExempt) {
  const std::string code =
      "#define HALK_PROFILE_SCOPE(name)                       \\\n"
      "  ::halk::obs::ProfileScope scope(Profiler::Global(), (name))\n";
  EXPECT_FALSE(HasRule(Lint("src/obs/profiler.h", code),
                       "profile-scope-literal"));
}

TEST(ProfileScopeLiteralTest, InlineAllowSuppresses) {
  const std::string code =
      "void Step(const char* name) {\n"
      "  HALK_PROFILE_SCOPE(name);  // halk_lint:allow profile-scope-literal\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/core/trainer.cc", code),
                       "profile-scope-literal"));
}

// ---------------------------------------------------------------------------
// Seeded-mutant negatives: the checkers catch the exact regressions the CI
// gates exist to prevent (tree is currently clean, so these prove the
// detection path end to end).
// ---------------------------------------------------------------------------

TEST(SeededMutantTest, DroppingGuardedByAnnotationIsCaught) {
  const std::string annotated =
      "class Cache {\n"
      "  mutable Mutex mu_;\n"
      "  size_t hits_ HALK_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(HasRule(Lint("src/serving/c.h", annotated), "mutex-guarded"));
  // Mutant: someone strips the annotation.
  const std::string mutant =
      "class Cache {\n"
      "  mutable Mutex mu_;\n"
      "  size_t hits_ = 0;\n"
      "};\n";
  EXPECT_TRUE(HasRule(Lint("src/serving/c.h", mutant), "mutex-guarded", 2));
}

TEST(SeededMutantTest, RevertingToStdMutexIsCaught) {
  const std::string mutant =
      "class Cache {\n"
      "  mutable std::mutex mu_;\n"
      "  size_t hits_ HALK_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(HasRule(Lint("src/serving/c.h", mutant), "no-std-mutex", 2));
}

TEST(SeededMutantTest, DeletingOrderCommentIsCaught) {
  const std::string annotated =
      "// order: release pairs with acquire in health()\n"
      "health_.store(h, std::memory_order_release);\n";
  EXPECT_FALSE(
      HasRule(Lint("src/shard/w.cc", annotated), "memory-order-comment"));
  const std::string mutant =
      "health_.store(h, std::memory_order_release);\n";
  EXPECT_TRUE(
      HasRule(Lint("src/shard/w.cc", mutant), "memory-order-comment", 1));
}


TEST(SeededMutantTest, ProfileScopeVariableNameIsCaught) {
  const std::string literal =
      "void Eval() {\n"
      "  HALK_PROFILE_SCOPE(\"eval/score_all\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/core/evaluator.cc", literal),
                       "profile-scope-literal"));
  // Mutant: someone parameterizes the region name per query structure.
  const std::string mutant =
      "void Eval(const query::GroundedQuery& q) {\n"
      "  HALK_PROFILE_SCOPE(StructureName(q.structure));\n"
      "}\n";
  EXPECT_TRUE(HasRule(Lint("src/core/evaluator.cc", mutant),
                      "profile-scope-literal", 2));
}

// ---------------------------------------------------------------------------
// metric-name-convention
// ---------------------------------------------------------------------------

TEST(MetricNameTest, LowercaseDottedNamesPass) {
  const std::string code =
      "void Wire(serving::MetricsRegistry* r) {\n"
      "  r->GetCounter(\"serving.submitted\")->Increment();\n"
      "  r->GetGauge(\"shard.replica_health\", {{\"shard\", \"0\"}});\n"
      "  r->GetHistogram(\"slo.p99_us_fast\", {1.0});\n"
      "  (void)r->CounterValue(\"slo.alerts_fired\");\n"
      "  (void)r->GaugeChildren(\"shard.replica_health\");\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint("src/serving/wire.cc", code),
                       "metric-name-convention"));
}

TEST(MetricNameTest, NonconformingLiteralsFire) {
  EXPECT_TRUE(HasRule(
      Lint("src/a.cc", "r->GetCounter(\"Serving.Submitted\");\n"),
      "metric-name-convention", 1));
  EXPECT_TRUE(HasRule(
      Lint("src/a.cc", "r->GetGauge(\"shard-replica-health\");\n"),
      "metric-name-convention", 1));
  EXPECT_TRUE(HasRule(Lint("src/a.cc", "r->GetCounter(\"9lives\");\n"),
                      "metric-name-convention", 1));
  EXPECT_TRUE(HasRule(Lint("src/a.cc", "r->GetCounter(\"slo..burn\");\n"),
                      "metric-name-convention", 1));
  EXPECT_TRUE(HasRule(Lint("src/a.cc", "r->GetCounter(\"slo.burn.\");\n"),
                      "metric-name-convention", 1));
}

TEST(MetricNameTest, DynamicNamesAndWrappedLiteralsAreHandled) {
  // A computed name cannot be checked textually: skipped, not flagged.
  EXPECT_FALSE(HasRule(
      Lint("src/a.cc", "r->GetCounter(MetricNameFor(shard));\n"),
      "metric-name-convention"));
  // A literal wrapped onto the next line is still found...
  const std::string wrapped_good =
      "r->GetHistogram(\n"
      "    \"serving.latency_us\", bounds);\n";
  EXPECT_FALSE(HasRule(Lint("src/a.cc", wrapped_good),
                       "metric-name-convention"));
  // ...and still checked.
  const std::string wrapped_bad =
      "r->GetHistogram(\n"
      "    \"Serving.LatencyUs\", bounds);\n";
  EXPECT_TRUE(HasRule(Lint("src/a.cc", wrapped_bad),
                      "metric-name-convention", 1));
}

TEST(MetricNameTest, InlineAllowSuppresses) {
  const std::string code =
      "r->GetCounter(\"Legacy.Name\");  "
      "// halk_lint:allow metric-name-convention grandfathered dashboard\n";
  EXPECT_FALSE(HasRule(Lint("src/a.cc", code), "metric-name-convention"));
}

TEST(MetricNameTest, AnalyticsPlaneCallSitesAreCovered) {
  // The labeled per-operator form the analytics plane registers: the name
  // literal is checked even with ExponentialBounds and a labels argument
  // following it.
  const std::string good =
      "plan_node_us_[op] = metrics_.GetHistogram(\n"
      "    \"plan.node_us\", Histogram::ExponentialBounds(1.0, 2.0, 20),\n"
      "    {{\"op\", query::OpTypeName(op)}});\n"
      "plan_qerror_ = metrics_.GetHistogram(\n"
      "    \"plan.qerror\", Histogram::ExponentialBounds(1.0, 2.0, 16));\n";
  EXPECT_FALSE(HasRule(Lint("src/serving/server.cc", good),
                       "metric-name-convention"));
  // A CamelCase rename of either analytics family is caught at the call
  // site regardless of the trailing bounds/labels arguments.
  const std::string bad =
      "plan_qerror_ = metrics_.GetHistogram(\n"
      "    \"Plan.QError\", Histogram::ExponentialBounds(1.0, 2.0, 16));\n";
  EXPECT_TRUE(HasRule(Lint("src/serving/server.cc", bad),
                      "metric-name-convention", 1));
}

TEST(SeededMutantTest, CamelCaseMetricRenameIsCaught) {
  const std::string current =
      "latency_us_ = metrics->GetHistogram(\"serving.latency_us\", bounds);\n";
  EXPECT_FALSE(HasRule(Lint("src/serving/server.cc", current),
                       "metric-name-convention"));
  // Mutant: a rename to CamelCase would silently mint a second Prometheus
  // family and orphan every dashboard panel scraping the old one.
  const std::string mutant =
      "latency_us_ = metrics->GetHistogram(\"Serving.LatencyUs\", bounds);\n";
  EXPECT_TRUE(HasRule(Lint("src/serving/server.cc", mutant),
                      "metric-name-convention", 1));
}

// ---------------------------------------------------------------------------
// store-fixed-width-int
// ---------------------------------------------------------------------------

TEST(StoreFixedWidthIntTest, BareIntInStoreHeaderFires) {
  const std::string text =
      "struct ShardFileHeader {\n"
      "  unsigned version;\n"
      "  long entity_begin;\n"
      "  int dim;\n"
      "};\n";
  const std::vector<Diagnostic> diags = Lint("src/store/format.h", text);
  EXPECT_TRUE(HasRule(diags, "store-fixed-width-int", 2));
  EXPECT_TRUE(HasRule(diags, "store-fixed-width-int", 3));
  EXPECT_TRUE(HasRule(diags, "store-fixed-width-int", 4));
}

TEST(StoreFixedWidthIntTest, FixedWidthTypesAndSizeTPass) {
  const std::string text =
      "struct ShardFileHeader {\n"
      "  uint32_t version;\n"
      "  int64_t entity_begin;\n"
      "  uint64_t data_bytes;\n"
      "  size_t mapped_bytes;\n"
      "};\n";
  EXPECT_FALSE(
      HasRule(Lint("src/store/format.h", text), "store-fixed-width-int"));
}

TEST(StoreFixedWidthIntTest, ScopedToStoreHeadersOnly) {
  const std::string text = "int Count();\n";
  // Other subsystems' headers and store .cc files are out of scope.
  EXPECT_FALSE(
      HasRule(Lint("src/core/topk.h", text), "store-fixed-width-int"));
  EXPECT_FALSE(
      HasRule(Lint("src/store/store.cc", text), "store-fixed-width-int"));
  EXPECT_TRUE(
      HasRule(Lint("src/store/store.h", text), "store-fixed-width-int", 1));
}

TEST(StoreFixedWidthIntTest, CommentsAndInlineAllowAreExempt) {
  const std::string comment_only =
      "// the int widths here are prose, not code\n"
      "uint32_t dim;\n";
  EXPECT_FALSE(HasRule(Lint("src/store/format.h", comment_only),
                       "store-fixed-width-int"));
  const std::string allowed =
      "int fd;  // halk_lint:allow store-fixed-width-int host descriptor\n";
  EXPECT_FALSE(
      HasRule(Lint("src/store/shard_file.h", allowed),
              "store-fixed-width-int"));
}

// ---------------------------------------------------------------------------
// scan-kernel-no-libm
// ---------------------------------------------------------------------------

TEST(ScanKernelNoLibmTest, SeededTrigCallsInKernelAndStoreFire) {
  // Mutants of the kernel's chord line and of a store scan loop.
  const std::string kernel_mutant =
      "const float to_center =\n"
      "    two_rho * Abs(std::sin((theta[i] - k.center) / 2.0f));\n";
  EXPECT_TRUE(HasRule(Lint("src/core/scan_kernel.cc", kernel_mutant),
                      "scan-kernel-no-libm", 2));
  const std::string header_mutant = "inline float Half(float x) { return "
                                    "cosf(x * 0.5f); }\n";
  EXPECT_TRUE(HasRule(Lint("src/core/scan_kernel.h", header_mutant),
                      "scan-kernel-no-libm", 1));
  const std::string store_mutant =
      "for (int64_t i = 0; i < count; ++i) {\n"
      "  o[i] += sinf(col[i] - a_s);\n"
      "  in[i] += __builtin_cos(col[i]);\n"
      "  ::sincosf(col[i], &s, &c);\n"
      "}\n";
  const std::vector<Diagnostic> diags =
      Lint("src/store/shard_file.cc", store_mutant);
  EXPECT_TRUE(HasRule(diags, "scan-kernel-no-libm", 2));
  EXPECT_TRUE(HasRule(diags, "scan-kernel-no-libm", 3));
  EXPECT_TRUE(HasRule(diags, "scan-kernel-no-libm", 4));
  EXPECT_TRUE(HasRule(Lint("src/store/store.h", "float x = std::cos (a);\n"),
                      "scan-kernel-no-libm", 1));
}

TEST(ScanKernelNoLibmTest, KernelIdentifiersAndOtherFilesPass) {
  // Names that merely contain "sin"/"cos", tensor ops, prose and literals
  // are not libm calls.
  const std::string clean =
      "HalfAngle(theta[i], &sin_half[i], &cos_half[i]);\n"
      "const float s = Select(odd, cos_r, sin_r);\n"
      "k.sin_center = Sin(x);  // was std::sin(x)\n"
      "const char* name = \"sin(x)\";\n"
      "tensor::Sin(t);\n";
  EXPECT_FALSE(HasRule(Lint("src/core/scan_kernel.cc", clean),
                       "scan-kernel-no-libm"));
  // MakeArcConstants computes the per-query constants with libm, outside
  // the kernel TU: out of scope.
  const std::string libm = "k.sin_center = std::sin(ac / 2.0f);\n";
  EXPECT_FALSE(
      HasRule(Lint("src/core/distance.cc", libm), "scan-kernel-no-libm"));
  EXPECT_FALSE(
      HasRule(Lint("tests/core/scan_kernel_test.cc", libm),
              "scan-kernel-no-libm"));
}

TEST(ScanKernelNoLibmTest, InlineAllowSuppresses) {
  const std::string allowed =
      "float v = std::sin(x);  // halk_lint:allow scan-kernel-no-libm "
      "diagnostic only\n";
  EXPECT_FALSE(HasRule(Lint("src/store/convert.cc", allowed),
                       "scan-kernel-no-libm"));
}

}  // namespace
}  // namespace halk::lint
