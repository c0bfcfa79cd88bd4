// Functional tests for the serving layer: cache hit/miss behavior,
// bit-identical cached results, version-based invalidation after updates
// (checked against a fresh engine built over an identically mutated
// graph), LRU eviction, and the stats counters.  Concurrency is covered
// separately by query_service_stress_test.cc.

#include "serve/query_service.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_maintenance.h"
#include "serve/result_cache.h"
#include "test_util.h"

namespace osq {
namespace {

QueryService MakeTravelService(test::TravelFixture* f,
                               ServeOptions serve = ServeOptions{}) {
  return QueryService(
      QueryEngine(std::move(f->g), std::move(f->o), IndexOptions{}), serve);
}

QueryOptions TravelOptions() {
  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  return options;
}

// Field-by-field equality of QueryResult, including the phase timings the
// cold run recorded — "bit-identical" is the cache contract.
void ExpectIdenticalResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.filter_stats.pruned_nodes, b.filter_stats.pruned_nodes);
  EXPECT_EQ(a.filter_stats.seed_visits, b.filter_stats.seed_visits);
  EXPECT_EQ(a.filter_stats.gv_nodes, b.filter_stats.gv_nodes);
  EXPECT_EQ(a.verify_stats.search_steps, b.verify_stats.search_steps);
  EXPECT_EQ(a.verify_stats.matches_found, b.verify_stats.matches_found);
  EXPECT_EQ(a.verify_stats.truncated, b.verify_stats.truncated);
  EXPECT_EQ(a.verify_stats.root_partitions, b.verify_stats.root_partitions);
  EXPECT_EQ(a.filter_ms, b.filter_ms);
  EXPECT_EQ(a.verify_ms, b.verify_ms);
}

TEST(QueryServiceTest, CacheHitReturnsBitIdenticalResult) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  QueryService service = MakeTravelService(&f);

  ServedResult cold = service.Query(query, TravelOptions());
  ASSERT_TRUE(cold.result.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.result.matches.size(), 1u);

  ServedResult hot = service.Query(query, TravelOptions());
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.version, cold.version);
  ExpectIdenticalResult(hot.result, cold.result);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.hit_latency.count, 1u);
  EXPECT_EQ(stats.miss_latency.count, 1u);
}

TEST(QueryServiceTest, UpdateInvalidatesAndMatchesFreshEngine) {
  test::TravelFixture f = test::MakeTravelFixture();
  // Keep copies so a reference engine can replay the same mutation.
  Graph g_copy = f.g;
  OntologyGraph o_copy = f.o;
  Graph query = f.query;
  NodeId ct = f.ct, hp = f.hp, rg = f.rg;
  LabelId fav = f.fav, near = f.near;

  QueryService service = MakeTravelService(&f);
  ASSERT_FALSE(service.Query(query, TravelOptions()).cache_hit);
  ASSERT_TRUE(service.Query(query, TravelOptions()).cache_hit);

  std::vector<GraphUpdate> batch = {GraphUpdate::Insert(ct, hp, fav),
                                    GraphUpdate::Insert(hp, rg, near)};
  MaintenanceStats mstats = service.ApplyUpdates(batch);
  EXPECT_EQ(mstats.applied, 2u);
  EXPECT_EQ(service.version(), 1u);  // one batch = one version step

  // The cached pre-update entry must not be served.
  ServedResult after = service.Query(query, TravelOptions());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.version, 1u);
  EXPECT_EQ(after.result.matches.size(), 2u);

  // Ground truth: a fresh engine over the same post-update graph.
  ASSERT_TRUE(g_copy.AddEdge(ct, hp, fav));
  ASSERT_TRUE(g_copy.AddEdge(hp, rg, near));
  QueryEngine fresh(std::move(g_copy), std::move(o_copy), IndexOptions{});
  QueryResult expected = fresh.Query(query, TravelOptions());
  EXPECT_EQ(after.result.matches, expected.matches);

  ServeStats stats = service.Stats();
  EXPECT_GE(stats.cache_invalidations, 1u);
}

TEST(QueryServiceTest, NoOpUpdateKeepsSnapshotAndCache) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  NodeId ct = f.ct, rg = f.rg;
  LabelId guide = f.guide;
  QueryService service = MakeTravelService(&f);
  (void)service.Query(query, TravelOptions());  // warm the cache

  // Duplicate insertion: rejected, so the snapshot must not advance.
  EXPECT_FALSE(service.ApplyUpdate(GraphUpdate::Insert(ct, rg, guide)));
  EXPECT_EQ(service.version(), 0u);
  EXPECT_TRUE(service.Query(query, TravelOptions()).cache_hit);
}

TEST(QueryServiceTest, AddNodeInvalidates) {
  test::TravelFixture f = test::MakeTravelFixture();
  LabelId starlight = f.dict.Lookup("starlight");
  Graph single;
  single.AddNode(starlight);  // valid single-node query
  QueryService service = MakeTravelService(&f);

  QueryOptions options = TravelOptions();
  options.k = 0;
  ServedResult before = service.Query(single, options);
  ASSERT_TRUE(before.result.status.ok());
  size_t matches_before = before.result.matches.size();
  ASSERT_GE(matches_before, 1u);

  service.AddNode(starlight);
  EXPECT_EQ(service.version(), 1u);
  ServedResult after = service.Query(single, options);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.result.matches.size(), matches_before + 1);
}

// Vector-stamp audit of AddNode (result_cache.h): the cache stamp is one
// scalar covering the whole snapshot and Lookup demands exact equality,
// so a node add MUST advance the version and thereby sweep every entry —
// any cached single-node query could have gained a match.  What it must
// NOT do is masquerade as an edge update in the metrics: node-adds and
// edge-churn are separate counters sharing the batch count.
TEST(QueryServiceTest, AddNodeSweepsCacheButCountsSeparately) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  NodeId ct = f.ct, hp = f.hp;
  LabelId fav = f.fav;
  LabelId starlight = f.dict.Lookup("starlight");
  QueryService service = MakeTravelService(&f);

  ServedResult cold = service.Query(query, TravelOptions());
  ASSERT_TRUE(cold.result.status.ok());
  ASSERT_EQ(service.cache_size(), 1u);

  (void)service.AddNode(starlight);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.nodes_added, 1u);
  EXPECT_EQ(stats.updates_applied, 0u);  // no edge changed
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_EQ(stats.version, 1u);
  EXPECT_EQ(service.cache_size(), 0u);  // full sweep, by design
  EXPECT_EQ(stats.cache_invalidations, 1u);

  // The swept entry re-materializes identically: the add cannot have
  // perturbed the original query's answer.
  ServedResult warm = service.Query(query, TravelOptions());
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(warm.result.matches, cold.result.matches);

  // An edge update moves the edge counter, not the node counter.
  ASSERT_TRUE(service.ApplyUpdate(GraphUpdate::Insert(ct, hp, fav)));
  stats = service.Stats();
  EXPECT_EQ(stats.nodes_added, 1u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.update_batches, 2u);
  EXPECT_EQ(stats.version, 2u);
}

TEST(QueryServiceTest, LruEvictionAtCapacity) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  ServeOptions serve;
  serve.cache_capacity = 2;
  QueryService service = MakeTravelService(&f, serve);

  // Three distinct signatures via k; the k=1 entry is the LRU victim.
  QueryOptions options = TravelOptions();
  for (size_t k : {1u, 2u, 3u}) {
    options.k = k;
    EXPECT_FALSE(service.Query(query, options).cache_hit);
  }
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(service.Stats().cache_evictions, 1u);

  options.k = 1;
  EXPECT_FALSE(service.Query(query, options).cache_hit);  // was evicted
  options.k = 3;
  EXPECT_TRUE(service.Query(query, options).cache_hit);  // still resident
}

TEST(QueryServiceTest, ZeroCapacityDisablesCache) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  ServeOptions serve;
  serve.cache_capacity = 0;
  QueryService service = MakeTravelService(&f, serve);
  EXPECT_FALSE(service.Query(query, TravelOptions()).cache_hit);
  EXPECT_FALSE(service.Query(query, TravelOptions()).cache_hit);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(QueryServiceTest, SignatureSeparatesSemanticOptionsOnly) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  QueryService service = MakeTravelService(&f);

  QueryOptions options = TravelOptions();
  (void)service.Query(query, options);  // warm the cache
  options.theta = 0.81;  // different signature: cold again
  EXPECT_FALSE(service.Query(query, options).cache_hit);

  // num_threads is execution detail, not semantics: same signature.
  options.num_threads = 4;
  EXPECT_TRUE(service.Query(query, options).cache_hit);
}

TEST(QueryServiceTest, ErrorResultsNotCachedByDefault) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryService service = MakeTravelService(&f);
  Graph empty;
  EXPECT_FALSE(service.Query(empty, TravelOptions()).result.status.ok());
  EXPECT_FALSE(service.Query(empty, TravelOptions()).cache_hit);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(ResultCacheTest, LookupTimeStaleDropsAreCounted) {
  // A stale entry found at Lookup is dropped on the spot; the drop must be
  // recorded (it was previously invisible, under-reporting invalidations).
  ResultCache cache(4);
  QueryResult result;
  cache.Insert("q1", VersionVector::Scalar(0), result);
  cache.Insert("q2", VersionVector::Scalar(0), result);
  EXPECT_EQ(cache.stale_drops(), 0u);

  QueryResult out;
  EXPECT_FALSE(cache.Lookup("q1", VersionVector::Scalar(1), &out));
  EXPECT_EQ(cache.stale_drops(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // dropped, not just skipped

  // Same-version lookups and plain misses do not count.
  EXPECT_FALSE(cache.Lookup("q1", VersionVector::Scalar(1), &out));  // miss
  EXPECT_TRUE(cache.Lookup("q2", VersionVector::Scalar(0), &out));
  EXPECT_EQ(cache.stale_drops(), 1u);

  EXPECT_FALSE(cache.Lookup("q2", VersionVector::Scalar(3), &out));
  EXPECT_EQ(cache.stale_drops(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, SingleStaleShardComponentInvalidatesEntry) {
  // Regression for the scalar-stamp latent bug: with per-shard versions a
  // cache entry is valid only if EVERY component matches — one shard
  // advancing must invalidate it even when the others (and any scalar
  // aggregate of the vector) are unchanged.
  ResultCache cache(4);
  QueryResult result;
  VersionVector at{{3, 5, 7}};
  cache.Insert("q", at, result);

  QueryResult out;
  ASSERT_TRUE(cache.Lookup("q", VersionVector{{3, 5, 7}}, &out));

  // Shard 1 applied a batch; shards 0 and 2 did not.
  VersionVector after{{3, 6, 7}};
  EXPECT_FALSE(cache.Lookup("q", after, &out));
  EXPECT_EQ(cache.stale_drops(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // The eager sweep uses the same component-wise rule.
  cache.Insert("a", VersionVector{{3, 6, 7}}, result);
  cache.Insert("b", VersionVector{{3, 6, 8}}, result);
  EXPECT_EQ(cache.Invalidate(VersionVector{{3, 6, 8}}), 1u);
  EXPECT_TRUE(cache.Lookup("b", VersionVector{{3, 6, 8}}, &out));
}

TEST(QueryServiceTest, StatsFoldStaleDropsIntoInvalidations) {
  // The eager writer sweep accounts for stale entries it removes; Stats()
  // additionally folds in lazy lookup-time drops so the two paths report
  // uniformly.  Exercise the eager path end-to-end and check the counter
  // still reconciles with the cache's own view.
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  NodeId hp = f.hp, rg = f.rg;
  LabelId near = f.near;
  QueryService service = MakeTravelService(&f);

  (void)service.Query(query, TravelOptions());  // warm the cache
  ASSERT_EQ(service.cache_size(), 1u);
  ASSERT_TRUE(service.ApplyUpdate(GraphUpdate::Insert(hp, rg, near)));
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);  // eager sweep got the entry
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(QueryServiceTest, QuerySignatureIsInsertionOrderInvariant) {
  // Two structurally identical graphs built in different edge orders.
  Graph a;
  a.AddNode(1);
  a.AddNode(2);
  a.AddNode(3);
  ASSERT_TRUE(a.AddEdge(0, 1, 5));
  ASSERT_TRUE(a.AddEdge(1, 2, 6));
  Graph b;
  b.AddNode(1);
  b.AddNode(2);
  b.AddNode(3);
  ASSERT_TRUE(b.AddEdge(1, 2, 6));
  ASSERT_TRUE(b.AddEdge(0, 1, 5));
  QueryOptions options;
  EXPECT_EQ(QuerySignature(a, options), QuerySignature(b, options));

  options.theta = 0.8;
  EXPECT_NE(QuerySignature(a, options), QuerySignature(b, QueryOptions{}));
}

}  // namespace
}  // namespace osq
