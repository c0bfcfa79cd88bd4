// Tests for tools/osq_lint: every bad fixture must trigger its rule, every
// clean fixture must pass, and suppression requires a justification.
//
// The fixture directory is baked in by CMake (OSQ_LINT_FIXTURE_DIR); the
// fixtures double as documentation of what each rule accepts and rejects.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "osq_lint.h"

namespace osq {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(OSQ_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Violation> LintFixture(const std::string& name) {
  std::vector<Violation> out;
  EXPECT_TRUE(LintFile(FixturePath(name), &out)) << "unreadable: " << name;
  return out;
}

size_t CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

TEST(OsqLintFixtureTest, BadStatusNodiscard) {
  std::vector<Violation> vs = LintFixture("bad_status_nodiscard.h");
  EXPECT_EQ(CountRule(vs, "osq-status-nodiscard"), 3u);  // class + 2 decls
  EXPECT_EQ(vs.size(), 3u);
}

TEST(OsqLintFixtureTest, CleanStatusNodiscard) {
  EXPECT_TRUE(LintFixture("clean_status_nodiscard.h").empty());
}

TEST(OsqLintFixtureTest, BadRawLock) {
  std::vector<Violation> vs = LintFixture("bad_raw_lock.cc");
  EXPECT_EQ(CountRule(vs, "osq-raw-lock"), 6u);
  EXPECT_EQ(vs.size(), 6u);
}

TEST(OsqLintFixtureTest, CleanRawLock) {
  EXPECT_TRUE(LintFixture("clean_raw_lock.cc").empty());
}

TEST(OsqLintFixtureTest, BadStdout) {
  std::vector<Violation> vs = LintFixture("bad_stdout.cc");
  EXPECT_EQ(CountRule(vs, "osq-no-stdout"), 4u);
  EXPECT_EQ(vs.size(), 4u);
}

TEST(OsqLintFixtureTest, CleanStdout) {
  EXPECT_TRUE(LintFixture("clean_stdout.cc").empty());
}

TEST(OsqLintFixtureTest, BadUnorderedIter) {
  std::vector<Violation> vs = LintFixture("bad_unordered_iter_kmatch.cc");
  EXPECT_EQ(CountRule(vs, "osq-unordered-iter"), 3u);
  EXPECT_EQ(vs.size(), 3u);
}

TEST(OsqLintFixtureTest, CleanUnorderedIter) {
  EXPECT_TRUE(LintFixture("clean_unordered_iter_kmatch.cc").empty());
}

TEST(OsqLintFixtureTest, BadDeterminism) {
  std::vector<Violation> vs = LintFixture("bad_determinism.cc");
  EXPECT_GE(CountRule(vs, "osq-core-determinism"), 5u);
  EXPECT_EQ(CountRule(vs, "osq-core-determinism"), vs.size());
}

TEST(OsqLintFixtureTest, CleanDeterminism) {
  EXPECT_TRUE(LintFixture("clean_determinism.cc").empty());
}

TEST(OsqLintFixtureTest, BadGraphAdjacency) {
  std::vector<Violation> vs = LintFixture("bad_graph_adjacency.cc");
  // 3 mirrored CSR declarations (two arrays and the anchor) + 4 CSR
  // subscript uses + 2 legacy out_[v]/in_[v] subscripts.
  EXPECT_EQ(CountRule(vs, "osq-graph-adjacency"), 9u);
  EXPECT_EQ(vs.size(), 9u);
}

TEST(OsqLintFixtureTest, CleanGraphAdjacency) {
  EXPECT_TRUE(LintFixture("clean_graph_adjacency.cc").empty());
}

TEST(OsqLintFixtureTest, BadShardIsolation) {
  std::vector<Violation> vs = LintFixture("bad_shard_isolation.cc");
  // 3 engine-type mentions + 2 direct engine calls + 4 graph members.
  EXPECT_EQ(CountRule(vs, "osq-shard-isolation"), 9u);
  EXPECT_EQ(vs.size(), 9u);
}

TEST(OsqLintFixtureTest, CleanShardIsolation) {
  EXPECT_TRUE(LintFixture("clean_shard_isolation.cc").empty());
}

TEST(OsqLintFixtureTest, UnjustifiedSuppressionStillFails) {
  std::vector<Violation> vs = LintFixture("bad_nolint_unjustified.cc");
  EXPECT_EQ(CountRule(vs, "osq-no-stdout"), 2u);
  for (const Violation& v : vs) {
    EXPECT_NE(v.message.find("justification"), std::string::npos)
        << v.ToString();
  }
}

// --- classification -------------------------------------------------------

TEST(OsqLintClassifyTest, EmissionLayers) {
  EXPECT_TRUE(ClassifyPath("src/core/kmatch.cc").emission);
  EXPECT_TRUE(ClassifyPath("src/core/query_engine.cc").emission);
  EXPECT_TRUE(ClassifyPath("src/serve/query_service.cc").emission);
  EXPECT_FALSE(ClassifyPath("src/core/filtering.cc").emission);
  EXPECT_FALSE(ClassifyPath("src/graph/graph.cc").emission);
}

TEST(OsqLintClassifyTest, RngExemption) {
  EXPECT_TRUE(ClassifyPath("src/common/rng.h").rng_exempt);
  EXPECT_TRUE(ClassifyPath("src/common/rng.cc").rng_exempt);
  EXPECT_FALSE(ClassifyPath("src/gen/synthetic.cc").rng_exempt);
}

TEST(OsqLintClassifyTest, ShardCoordinator) {
  EXPECT_TRUE(
      ClassifyPath("src/shard/sharded_query_service.cc").shard_coordinator);
  EXPECT_TRUE(
      ClassifyPath("src/shard/sharded_query_service.h").shard_coordinator);
  // The adapter and the partitioner exist to own engine/graph internals.
  EXPECT_FALSE(ClassifyPath("src/shard/shard_engine.cc").shard_coordinator);
  EXPECT_FALSE(ClassifyPath("src/shard/shard_engine.h").shard_coordinator);
  EXPECT_FALSE(ClassifyPath("src/shard/partitioner.cc").shard_coordinator);
  EXPECT_FALSE(ClassifyPath("src/serve/query_service.cc").shard_coordinator);
  // The whole shard layer emits merged matches: determinism rules apply.
  EXPECT_TRUE(ClassifyPath("src/shard/sharded_query_service.cc").emission);
  EXPECT_TRUE(ClassifyPath("src/shard/shard_engine.cc").emission);
}

TEST(OsqLintContentShardTest, CoordinatorAdapterCallsAreAllowed) {
  std::vector<Violation> out;
  LintContent("src/shard/sharded_query_service.cc",
              "void f(std::vector<ShardEngine>* shards) {\n"
              "  (*shards)[0].Query(1, 2);\n"
              "}\n",
              ClassifyPath("src/shard/sharded_query_service.cc"), &out);
  EXPECT_TRUE(out.empty());
}

TEST(OsqLintClassifyTest, GraphCoreExemption) {
  EXPECT_TRUE(ClassifyPath("src/graph/graph.h").graph_core);
  EXPECT_TRUE(ClassifyPath("src/graph/graph.cc").graph_core);
  EXPECT_FALSE(ClassifyPath("src/graph/graph_io.cc").graph_core);
  EXPECT_FALSE(ClassifyPath("src/graph/graph_algorithms.cc").graph_core);
  EXPECT_FALSE(ClassifyPath("src/core/filtering.cc").graph_core);
}

// --- inline content edge cases -------------------------------------------

std::vector<Violation> LintSnippet(const std::string& path,
                                   const std::string& content) {
  std::vector<Violation> out;
  LintContent(path, content, ClassifyPath(path), &out);
  return out;
}

TEST(OsqLintContentTest, StringsAndCommentsAreInvisible) {
  EXPECT_TRUE(LintSnippet("src/x.cc",
                          "const char* s = \"std::cout << rand()\";\n"
                          "// printf(\"%d\", rand());\n"
                          "/* mu.lock(); system_clock */\n")
                  .empty());
}

TEST(OsqLintContentTest, JustifiedSuppressionSilences) {
  EXPECT_TRUE(
      LintSnippet("src/x.cc",
                  "void f() { std::cout << 1; }  "
                  "// NOLINT(osq-no-stdout): CLI-facing demo hook\n")
          .empty());
}

TEST(OsqLintContentTest, NonEmissionFileMayIterateUnordered) {
  const std::string code =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int f() { int s = 0; for (const auto& kv : m) s += kv.second; "
      "return s; }\n";
  EXPECT_TRUE(LintSnippet("src/core/filtering.cc", code).empty());
  EXPECT_EQ(LintSnippet("src/core/kmatch.cc", code).size(), 1u);
}

TEST(OsqLintContentTest, UnorderedLocalInFilterScratchIsAllowedOffLayer) {
  // The same loop is a violation only where results are emitted.
  std::vector<Violation> vs = LintSnippet(
      "src/serve/result_cache.cc",
      "#include <unordered_set>\n"
      "std::unordered_set<int> keys_;\n"
      "void f(std::vector<int>* out) {\n"
      "  for (int k : keys_) out->push_back(k);\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "osq-unordered-iter");
  EXPECT_EQ(vs[0].line, 4u);
}

TEST(OsqLintContentTest, RawLockThroughPointerAlwaysFlagged) {
  std::vector<Violation> vs = LintSnippet(
      "src/x.cc", "void f(std::mutex* m) { m->lock(); m->unlock(); }\n");
  EXPECT_EQ(CountRule(vs, "osq-raw-lock"), 2u);
}

TEST(OsqLintContentTest, GraphCoreMayTouchItsOwnArrays) {
  const std::string code =
      "size_t Graph::OutDegree(NodeId v) const {\n"
      "  return out_offsets_[v + 1] - out_offsets_[v];\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/graph/graph.cc", code).empty());
  EXPECT_EQ(LintSnippet("src/core/filtering.cc", code).size(), 2u);
}

// --- flow rules (lock annotations, DESIGN.md §15) -------------------------

TEST(OsqLintFixtureTest, BadGuardedAccess) {
  std::vector<Violation> vs = LintFixture("bad_guarded_access.cc");
  // unguarded read + unguarded write + shared-mode write + write after
  // .unlock() + an OSQ_REQUIRES breach + an OSQ_EXCLUDES breach.
  EXPECT_EQ(CountRule(vs, "osq-guarded-access"), 6u);
  EXPECT_EQ(vs.size(), 6u);
}

TEST(OsqLintFixtureTest, CleanGuardedAccess) {
  EXPECT_TRUE(LintFixture("clean_guarded_access.cc").empty());
}

TEST(OsqLintFixtureTest, BadGuardedAccessInClassTemplate) {
  std::vector<Violation> vs = LintFixture("bad_guarded_access_template.cc");
  // An unguarded read in the class body, plus a shared-mode write and an
  // unguarded read in members defined outside it (`Box<T>::Name`).
  EXPECT_EQ(CountRule(vs, "osq-guarded-access"), 3u);
  EXPECT_EQ(vs.size(), 3u);
}

TEST(OsqLintFixtureTest, CleanGuardedAccessInClassTemplate) {
  EXPECT_TRUE(LintFixture("clean_guarded_access_template.cc").empty());
}

TEST(OsqLintFixtureTest, BadLockOrder) {
  std::vector<Violation> vs = LintFixture("bad_lock_order.cc");
  // The seeded serving-tier hazard (gate taken after the snapshot lock)
  // plus a transitive a->b->c inversion.
  ASSERT_EQ(CountRule(vs, "osq-lock-order"), 2u);
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_NE(vs[0].message.find("writer_gate_"), std::string::npos)
      << vs[0].ToString();
}

TEST(OsqLintFixtureTest, CleanLockOrder) {
  EXPECT_TRUE(LintFixture("clean_lock_order.cc").empty());
}

TEST(OsqLintFixtureTest, BadLayering) {
  std::vector<Violation> core = LintFixture("bad_layering_core.cc");
  // serve + shard + concept includes
  EXPECT_EQ(CountRule(core, "osq-layering"), 3u);
  EXPECT_EQ(core.size(), 3u);
  std::vector<Violation> ingest = LintFixture("bad_layering_ingest.cc");
  EXPECT_EQ(CountRule(ingest, "osq-layering"), 1u);  // bypasses update_sink
  EXPECT_EQ(ingest.size(), 1u);
}

TEST(OsqLintFixtureTest, CleanLayeringShard) {
  EXPECT_TRUE(LintFixture("clean_layering_shard.cc").empty());
}

TEST(OsqLintFixtureTest, CleanRawStringLexing) {
  EXPECT_TRUE(LintFixture("clean_raw_string.cc").empty());
}

TEST(OsqLintFlowTest, DeferLockWithoutAcquireIsFlagged) {
  std::vector<Violation> vs = LintSnippet(
      "src/x.cc",
      "class C {\n"
      " public:\n"
      "  void F() {\n"
      "    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);\n"
      "    v_ = 1;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int v_ OSQ_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  ASSERT_EQ(CountRule(vs, "osq-guarded-access"), 1u);
  EXPECT_EQ(vs[0].line, 5u);
}

TEST(OsqLintFlowTest, AdoptLockCountsAsHeldWithoutOrderEvent) {
  // adopt_lock adopts an acquisition made elsewhere (std::lock's
  // deadlock-avoidance), so the accesses are guarded and no
  // acquisition-order event fires even though the DAG orders b_ first.
  EXPECT_TRUE(LintSnippet("src/x.cc",
                          "class C {\n"
                          " public:\n"
                          "  void F() {\n"
                          "    std::lock(a_, b_);\n"
                          "    std::scoped_lock<std::mutex, std::mutex> g("
                          "std::adopt_lock, a_, b_);\n"
                          "    va_ = 1;\n"
                          "    vb_ = 2;\n"
                          "  }\n"
                          " private:\n"
                          "  std::mutex b_ OSQ_ACQUIRED_BEFORE(a_);\n"
                          "  std::mutex a_;\n"
                          "  int va_ OSQ_GUARDED_BY(a_) = 0;\n"
                          "  int vb_ OSQ_GUARDED_BY(b_) = 0;\n"
                          "};\n")
                  .empty());
}

TEST(OsqLintFlowTest, LockStateDoesNotLeakAcrossFunctions) {
  // Returning while the guard is live (RAII releases on unwind) must not
  // leave the NEXT function's body treated as locked.
  std::vector<Violation> vs = LintSnippet(
      "src/x.cc",
      "class C {\n"
      " public:\n"
      "  int Locked() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    return v_;\n"
      "  }\n"
      "  int Unlocked() { return v_; }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int v_ OSQ_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 7u);
}

TEST(OsqLintFlowTest, GuardDiesWithItsScope) {
  std::vector<Violation> vs = LintSnippet(
      "src/x.cc",
      "class C {\n"
      " public:\n"
      "  void F() {\n"
      "    {\n"
      "      std::lock_guard<std::mutex> lock(mu_);\n"
      "      v_ = 1;\n"
      "    }\n"
      "    v_ = 2;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int v_ OSQ_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 8u);
}

TEST(OsqLintFlowTest, ConstructorAndDestructorAreExempt) {
  EXPECT_TRUE(LintSnippet("src/x.cc",
                          "class C {\n"
                          " public:\n"
                          "  C() { v_ = 1; }\n"
                          "  ~C() { v_ = 0; }\n"
                          " private:\n"
                          "  std::mutex mu_;\n"
                          "  int v_ OSQ_GUARDED_BY(mu_) = 0;\n"
                          "};\n")
                  .empty());
}

TEST(OsqLintFlowTest, OutOfLineMethodCheckedAgainstHeaderIndex) {
  // The .cc body is checked against annotations collected from the header
  // (LintTree/LintFile wiring) via the index-taking LintContent overload.
  AnnotationIndex index;
  CollectAnnotations(
      "class C {\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int v_ OSQ_GUARDED_BY(mu_) = 0;\n"
      "};\n",
      &index);
  std::vector<Violation> out;
  LintContent("src/x.cc", "int C::Get() { return v_; }\n",
              ClassifyPath("src/x.cc"), index, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "osq-guarded-access");
}

TEST(OsqLintContentTest, IdentifierEndingInRIsNotARawStringPrefix) {
  // Regression: STR_R"..." must lex as identifier + ordinary string; a
  // lexer that misreads it as a raw literal swallows the rest of the file
  // and hides the cout on the next line.
  std::vector<Violation> vs =
      LintSnippet("src/x.cc",
                  "const char* s = STR_R\"abc\";\n"
                  "void f() { std::cout << 1; }\n");
  EXPECT_EQ(CountRule(vs, "osq-no-stdout"), 1u);
}

TEST(OsqLintContentTest, EncodingPrefixedRawStringsAreBlanked) {
  EXPECT_TRUE(LintSnippet("src/x.cc",
                          "const char* a = u8R\"(std::cout << rand())\";\n"
                          "const char* b = LR\"x(printf(\"y\"))x\";\n")
                  .empty());
}

TEST(OsqLintContentTest, HeaderRuleSkipsSourceFiles) {
  // Definitions in .cc files are covered by the header declaration; the
  // nodiscard rule only fires on headers.
  EXPECT_TRUE(
      LintSnippet("src/core/index_io.cc", "Status SaveIndex(int x) {\n}\n")
          .empty());
  EXPECT_EQ(LintSnippet("src/core/index_io.h", "Status SaveIndex(int x);\n")
                .size(),
            1u);
}

}  // namespace
}  // namespace lint
}  // namespace osq
