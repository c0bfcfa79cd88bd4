// Fast tests for the deadline / cancellation primitives (common/deadline.h)
// and their plumbing through QueryEngine and QueryService: the completeness
// contract (interrupted evaluations return valid matches flagged with a
// StopReason), default deadlines, and the partial-results-never-cached
// rule.  Timing-heavy and concurrency-heavy coverage lives in
// deadline_stress_test.cc (ctest label `slow`).

#include "common/deadline.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/filtering.h"
#include "core/query_engine.h"
#include "gen/workload.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace osq {
namespace {

TEST(DeadlineTest, DefaultHasNoDeadline) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1e12);
}

TEST(DeadlineTest, NonPositiveMillisMeansNoDeadline) {
  EXPECT_FALSE(Deadline::AfterMillis(0.0).has_deadline());
  EXPECT_FALSE(Deadline::AfterMillis(-5.0).has_deadline());
}

TEST(DeadlineTest, ExpiresAfterItsBudget) {
  Deadline d = Deadline::AfterMillis(0.5);
  EXPECT_TRUE(d.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, FarDeadlineNotExpired) {
  Deadline d = Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1000.0);
}

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken t;
  EXPECT_FALSE(t.cancellable());
  EXPECT_FALSE(t.Cancelled());
  t.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(t.Cancelled());
}

TEST(CancelTokenTest, CancellableTokenFiresAndCopiesShareTheFlag) {
  CancelToken t = CancelToken::Cancellable();
  CancelToken copy = t;
  EXPECT_TRUE(t.cancellable());
  EXPECT_FALSE(t.Cancelled());
  copy.RequestCancel();
  EXPECT_TRUE(t.Cancelled());
  EXPECT_TRUE(copy.Cancelled());
}

TEST(StopReasonTest, MergePrecedenceAndNames) {
  EXPECT_EQ(MergeStopReason(StopReason::kNone, StopReason::kNone),
            StopReason::kNone);
  EXPECT_EQ(
      MergeStopReason(StopReason::kNone, StopReason::kDeadlineExceeded),
      StopReason::kDeadlineExceeded);
  EXPECT_EQ(
      MergeStopReason(StopReason::kCancelled, StopReason::kDeadlineExceeded),
      StopReason::kCancelled);
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "complete");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

TEST(ExecControlTest, CheckReportsCancelOverDeadline) {
  ExecControl exec;
  EXPECT_FALSE(exec.CanStop());
  EXPECT_EQ(exec.Check(), StopReason::kNone);

  exec.deadline = Deadline::AfterMillis(0.01);
  exec.cancel = CancelToken::Cancellable();
  EXPECT_TRUE(exec.CanStop());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(exec.Check(), StopReason::kDeadlineExceeded);
  exec.cancel.RequestCancel();
  EXPECT_EQ(exec.Check(), StopReason::kCancelled);
}

TEST(CancelCheckTest, NullOrInertControlNeverStops) {
  CancelCheck null_check(nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(null_check.Stop());

  ExecControl inert;  // no deadline, inert token
  CancelCheck inert_check(&inert);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(inert_check.Stop());
  EXPECT_FALSE(inert_check.StopNow());
  EXPECT_EQ(inert_check.reason(), StopReason::kNone);
}

TEST(CancelCheckTest, PollsAtStrideAndLatches) {
  ExecControl exec;
  exec.cancel = CancelToken::Cancellable();
  exec.cancel.RequestCancel();

  CancelCheck check(&exec, /*stride=*/4);
  // The flag is already up, but the first three calls are amortized away.
  EXPECT_FALSE(check.Stop());
  EXPECT_FALSE(check.Stop());
  EXPECT_FALSE(check.Stop());
  EXPECT_TRUE(check.Stop());  // 4th call polls the token
  EXPECT_EQ(check.reason(), StopReason::kCancelled);
  // Latched: every further call is a single branch returning true.
  EXPECT_TRUE(check.Stop());
  EXPECT_TRUE(check.StopNow());
}

TEST(CancelCheckTest, StopNowBypassesTheStride) {
  ExecControl exec;
  exec.cancel = CancelToken::Cancellable();
  exec.cancel.RequestCancel();
  CancelCheck check(&exec);
  EXPECT_TRUE(check.StopNow());
  EXPECT_EQ(check.reason(), StopReason::kCancelled);
}

// ---- engine-level completeness contract --------------------------------

// A small "explosive" instance: a complete digraph over n same-labeled
// nodes, queried with a same-labeled triangle under k = 0 ("all matches"),
// enumerates every injective node triple — enough work that the stride-256
// poll is guaranteed to fire.
struct CliqueFixture {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
  Graph query;
};

CliqueFixture MakeCliqueFixture(size_t n) {
  CliqueFixture f;
  LabelId x = f.dict.Intern("x");
  LabelId e = f.dict.Intern("e");
  f.o.AddLabel(x);
  for (size_t v = 0; v < n; ++v) f.g.AddNode(x);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a != b) f.g.AddEdge(static_cast<NodeId>(a),
                              static_cast<NodeId>(b), e);
    }
  }
  f.query.AddNode(x);
  f.query.AddNode(x);
  f.query.AddNode(x);
  f.query.AddEdge(0, 1, e);
  f.query.AddEdge(1, 2, e);
  f.query.AddEdge(2, 0, e);
  return f;
}

QueryOptions CliqueOptions() {
  QueryOptions options;
  options.theta = 0.5;
  options.k = 0;  // all matches: no top-K score pruning to cut the search
  options.semantics = MatchSemantics::kHomomorphicEdges;
  return options;
}

TEST(EngineCompletenessTest, UnconstrainedQueryIsComplete) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  QueryResult r = engine.Query(f.query, options);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.completeness, StopReason::kNone);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.verify_stats.stopped, StopReason::kNone);
}

TEST(EngineCompletenessTest, PreCancelledQueryReturnsCancelledSubset) {
  CliqueFixture f = MakeCliqueFixture(12);
  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});

  QueryOptions options = CliqueOptions();
  QueryResult full = engine.Query(f.query, options);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.matches.size(), 12u * 11u * 10u);

  options.cancel = CancelToken::Cancellable();
  options.cancel.RequestCancel();
  QueryResult partial = engine.Query(f.query, options);
  ASSERT_TRUE(partial.status.ok());
  EXPECT_EQ(partial.completeness, StopReason::kCancelled);
  EXPECT_FALSE(partial.complete());
  EXPECT_LT(partial.matches.size(), full.matches.size());

  // Every match an interrupted run returns must appear in the exact
  // answer — interruption truncates, never corrupts.
  std::set<std::vector<NodeId>> exact;
  for (const Match& m : full.matches) exact.insert(m.mapping);
  for (const Match& m : partial.matches) {
    EXPECT_TRUE(exact.count(m.mapping)) << "invalid match in partial result";
  }
}

TEST(EngineCompletenessTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  CliqueFixture f = MakeCliqueFixture(12);
  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});
  QueryOptions options = CliqueOptions();
  // An already-expired deadline: the evaluation must notice at the first
  // stride poll and unwind with whatever it has.
  options.deadline_ms = 1e-6;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  QueryResult r = engine.Query(f.query, options);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.completeness, StopReason::kDeadlineExceeded);
  EXPECT_FALSE(r.complete());
  EXPECT_LT(r.matches.size(), 12u * 11u * 10u);
}

// The Gview seed stage polls the query's stop state like the fixpoints
// do.  It has no sound partial result, so a stopped seed stage reports
// no_match flagged with the stop reason (QueryEngine turns that into a
// partial, uncached answer) after at most one poll stride of nodes (Gview
// has one seed stage).
TEST(EngineCompletenessTest, CancelledSeedStageStopsWithinOneStride) {
  gen::ScenarioParams params;
  params.scale = 16000;
  params.seed = 11;
  gen::Workload w = gen::MakeCrossDomainWorkload(params, 4);
  QueryEngine engine(std::move(w.data.graph), std::move(w.data.ontology),
                     IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  // The query whose seed stage does the most work when left alone.
  const Graph* query = nullptr;
  size_t most_visits = 0;
  for (const gen::QueryTemplate& t : w.templates) {
    for (const Graph& q : t.queries) {
      FilterResult r = GviewFilter(engine.index(), q, options);
      if (r.stats.seed_visits > most_visits) {
        most_visits = r.stats.seed_visits;
        query = &q;
      }
    }
  }
  const size_t stride = CancelCheck::kDefaultStride;
  ASSERT_NE(query, nullptr);
  ASSERT_GT(most_visits, 2 * stride);

  ExecControl exec;
  exec.cancel = CancelToken::Cancellable();
  exec.cancel.RequestCancel();
  FilterResult r = GviewFilter(engine.index(), *query, options, &exec);
  EXPECT_TRUE(r.no_match);
  EXPECT_EQ(r.stats.stopped, StopReason::kCancelled);
  EXPECT_LE(r.stats.seed_visits, stride);
}

// ---- service-level plumbing --------------------------------------------

TEST(ServiceDeadlineTest, DefaultDeadlineAppliesAndPartialIsNotCached) {
  CliqueFixture f = MakeCliqueFixture(12);
  ServeOptions serve;
  serve.default_deadline_ms = 1e-6;  // effectively pre-expired
  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}), serve);

  ServedResult first = service.Query(f.query, CliqueOptions());
  ASSERT_TRUE(first.result.status.ok());
  EXPECT_EQ(first.result.completeness, StopReason::kDeadlineExceeded);
  EXPECT_FALSE(first.cache_hit);
  // The partial result must not have been cached as a complete answer.
  EXPECT_EQ(service.cache_size(), 0u);
  ServedResult second = service.Query(f.query, CliqueOptions());
  EXPECT_FALSE(second.cache_hit);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.deadline_exceeded, 2u);
  EXPECT_EQ(stats.complete, 0u);
  EXPECT_EQ(stats.degraded_latency.count, 2u);
  EXPECT_EQ(stats.miss_latency.count, 0u);
}

TEST(ServiceDeadlineTest, PerQueryDeadlineBeatsTheDefault) {
  CliqueFixture f = MakeCliqueFixture(12);
  ServeOptions serve;
  serve.default_deadline_ms = 1e-6;
  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}), serve);

  // A generous per-query deadline overrides the tiny default: complete.
  QueryOptions options = CliqueOptions();
  options.deadline_ms = 60'000.0;
  ServedResult served = service.Query(f.query, options);
  ASSERT_TRUE(served.result.status.ok());
  EXPECT_TRUE(served.result.complete());
  EXPECT_EQ(served.result.matches.size(), 12u * 11u * 10u);
  // Complete results are cacheable as usual.
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_TRUE(service.Query(f.query, options).cache_hit);
}

TEST(ServiceDeadlineTest, CancelledServiceQueryCountsAsCancelled) {
  CliqueFixture f = MakeCliqueFixture(12);
  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}),
      ServeOptions{});
  QueryOptions options = CliqueOptions();
  options.cancel = CancelToken::Cancellable();
  options.cancel.RequestCancel();
  ServedResult served = service.Query(f.query, options);
  ASSERT_TRUE(served.result.status.ok());
  EXPECT_EQ(served.result.completeness, StopReason::kCancelled);
  EXPECT_EQ(service.cache_size(), 0u);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(service.inflight(), 0u);
}

}  // namespace
}  // namespace osq
