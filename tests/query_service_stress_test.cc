// Concurrency stress test for QueryService: 4 reader threads running
// queries against 1 writer thread toggling an update batch.  The snapshot
// protocol promises that every returned result reflects exactly one
// version — all of a batch or none of it — so each result must equal the
// pre-update reference (even versions) or the post-update reference (odd
// versions), never a blend.  The readers are CLOSED-LOOP with no pacing:
// the write-intent gate in QueryService must let the writer through a
// saturated shared lock (glibc's rwlock alone prefers readers and would
// starve it — this test hung before the gate existed).  scripts/tier1.sh
// repeats this binary under ThreadSanitizer (-DOSQ_SANITIZE=thread), where
// any engine/cache data race fails the gate.  Labeled `slow` in ctest.

#include "serve/query_service.h"

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/index_maintenance.h"
#include "test_util.h"

namespace osq {
namespace {

constexpr size_t kReaders = 4;
constexpr size_t kToggles = 60;
constexpr size_t kReaderIterations = 250;
// Cap on the toggles of a writer that keeps going until a read has
// overlapped a write (see ReadersSeePreOrPostSnapshotOnly).
constexpr size_t kMaxToggles = 20000;

TEST(QueryServiceStressTest, ReadersSeePreOrPostSnapshotOnly) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph pre_graph = f.g;
  OntologyGraph pre_onto = f.o;
  Graph query = f.query;
  NodeId ct = f.ct, hp = f.hp, rg = f.rg;
  LabelId fav = f.fav, near = f.near;

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;

  // References from independent engines: state A (fixture as built) and
  // state B (with the two extra edges of the toggled batch).
  Graph post_graph = pre_graph;
  OntologyGraph post_onto = pre_onto;
  ASSERT_TRUE(post_graph.AddEdge(ct, hp, fav));
  ASSERT_TRUE(post_graph.AddEdge(hp, rg, near));
  QueryEngine pre_engine(std::move(pre_graph), std::move(pre_onto),
                         IndexOptions{});
  QueryEngine post_engine(std::move(post_graph), std::move(post_onto),
                          IndexOptions{});
  const std::vector<Match> ref_pre = pre_engine.Query(query, options).matches;
  const std::vector<Match> ref_post =
      post_engine.Query(query, options).matches;
  ASSERT_EQ(ref_pre.size(), 1u);
  ASSERT_EQ(ref_post.size(), 2u);

  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}),
      ServeOptions{});

  const std::vector<GraphUpdate> insert_batch = {
      GraphUpdate::Insert(ct, hp, fav), GraphUpdate::Insert(hp, rg, near)};
  const std::vector<GraphUpdate> delete_batch = {
      GraphUpdate::Delete(ct, hp, fav), GraphUpdate::Delete(hp, rg, near)};

  std::atomic<bool> writer_done{false};
  size_t toggles = 0;  // written by the writer, read after the join
  // Thread 0 is the writer; threads 1..kReaders are closed-loop readers.
  RunConcurrently(kReaders + 1, [&](size_t tid) {
    if (tid == 0) {
      // Toggle in insert/delete pairs: kToggles, then on until some read
      // has overlapped a pending or active writer (a write takes
      // microseconds, so a fixed count sometimes saw no overlap), up to
      // kMaxToggles.  Whole pairs leave the graph in the pre-update state.
      while (toggles < kToggles ||
             (toggles < kMaxToggles &&
              service.Stats().burst_read_latency.count == 0)) {
        for (const std::vector<GraphUpdate>* batch :
             {&insert_batch, &delete_batch}) {
          MaintenanceStats stats = service.ApplyUpdates(*batch);
          ASSERT_EQ(stats.applied, 2u) << "toggle " << toggles;
          ++toggles;
          std::this_thread::yield();
        }
      }
      writer_done.store(true, std::memory_order_release);
      return;
    }
    size_t iterations = 0;
    // Keep reading until the writer finished AND a floor of iterations
    // ran, so reads genuinely overlap the toggles.
    while (!writer_done.load(std::memory_order_acquire) ||
           iterations < kReaderIterations) {
      ServedResult served = service.Query(query, options);
      ASSERT_TRUE(served.result.status.ok());
      // The snapshot invariant: version parity identifies the state, and
      // the result must match that state exactly.  A torn read (batch
      // half-applied) would produce 1 match at an odd version, 2 at an
      // even one, or a match set equal to neither reference.
      const std::vector<Match>& expected =
          served.version % 2 == 0 ? ref_pre : ref_post;
      ASSERT_EQ(served.result.matches, expected)
          << "reader " << tid << " iteration " << iterations << " version "
          << served.version;
      ++iterations;
    }
  });

  EXPECT_EQ(service.version(), toggles);
  EXPECT_TRUE(test::IndexMatchesRebuild(service.engine_unsynchronized()));

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.queries, stats.cache_hits + stats.cache_misses);
  EXPECT_EQ(stats.queries, stats.total_requests());  // nothing shed here
  EXPECT_EQ(stats.update_batches, toggles);
  EXPECT_EQ(stats.updates_applied, 2 * toggles);
  EXPECT_EQ(stats.nodes_added, 0u);
  EXPECT_GE(stats.queries, kReaders * kReaderIterations);
  // With only one signature in play, repeat reads at a stable version hit.
  EXPECT_GT(stats.cache_hits, 0u);
  // The writer ran until some read overlapped a pending/active writer and
  // landed in the burst latency split.
  EXPECT_GT(stats.burst_read_latency.count, 0u);
  EXPECT_LE(stats.burst_read_latency.count, stats.queries);
}

// Same protocol with the cache disabled: every read goes to the engine,
// maximizing reader/writer interleavings on the engine itself.
TEST(QueryServiceStressTest, UncachedReadsAreTornFree) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  NodeId ct = f.ct, hp = f.hp, rg = f.rg;
  LabelId fav = f.fav, near = f.near;

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;

  ServeOptions serve;
  serve.cache_capacity = 0;
  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}), serve);

  const std::vector<GraphUpdate> insert_batch = {
      GraphUpdate::Insert(ct, hp, fav), GraphUpdate::Insert(hp, rg, near)};
  const std::vector<GraphUpdate> delete_batch = {
      GraphUpdate::Delete(ct, hp, fav), GraphUpdate::Delete(hp, rg, near)};

  std::atomic<bool> writer_done{false};
  RunConcurrently(kReaders + 1, [&](size_t tid) {
    if (tid == 0) {
      for (size_t t = 0; t < kToggles; ++t) {
        // Discard the stats: this writer only generates version churn; the
        // readers assert snapshot consistency, not maintenance counts.
        (void)service.ApplyUpdates(t % 2 == 0 ? insert_batch : delete_batch);
        std::this_thread::yield();
      }
      writer_done.store(true, std::memory_order_release);
      return;
    }
    size_t iterations = 0;
    while (!writer_done.load(std::memory_order_acquire) ||
           iterations < kReaderIterations / 2) {
      ServedResult served = service.Query(query, options);
      ASSERT_TRUE(served.result.status.ok());
      size_t expected = served.version % 2 == 0 ? 1u : 2u;
      ASSERT_EQ(served.result.matches.size(), expected)
          << "version " << served.version;
      ++iterations;
    }
  });

  EXPECT_EQ(service.Stats().cache_hits, 0u);
  EXPECT_TRUE(test::IndexMatchesRebuild(service.engine_unsynchronized()));
}

}  // namespace
}  // namespace osq
