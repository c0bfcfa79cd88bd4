// ShardedQueryService behavior tests on the paper's travel fixture:
// oracle equivalence, caching with vector stamps, fault injection and
// degradation, admission, and update routing end-to-end.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "core/query_engine.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"
#include "shard/sharded_query_service.h"
#include "test_util.h"

namespace osq {
namespace {

using test::MakeTravelFixture;
using test::TravelFixture;

ShardOptions Shards(size_t n, ShardPolicy policy = ShardPolicy::kHash) {
  ShardOptions so;
  so.num_shards = n;
  so.policy = policy;
  return so;
}

TEST(ShardedQueryServiceTest, MatchesSingleEngineOracleExactly) {
  TravelFixture f = MakeTravelFixture();
  QueryEngine oracle(f.g, f.o, IndexOptions{});
  QueryOptions qo;
  QueryResult expected = oracle.Query(f.query, qo);
  ASSERT_TRUE(expected.status.ok());
  ASSERT_FALSE(expected.matches.empty());

  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    for (size_t n : {1u, 2u, 3u}) {
      ShardedQueryService service(f.g, f.o, IndexOptions{},
                                  Shards(n, policy));
      EXPECT_EQ(service.num_shards(), n);
      ShardedServedResult served = service.Query(f.query, qo);
      ASSERT_TRUE(served.result.status.ok());
      EXPECT_TRUE(served.result.complete());
      EXPECT_FALSE(served.cache_hit);
      EXPECT_EQ(served.shards_failed, 0u);
      EXPECT_EQ(served.result.matches, expected.matches)
          << "policy " << static_cast<int>(policy) << " shards " << n;
      EXPECT_EQ(served.version.v.size(), n);
    }
  }
}

TEST(ShardedQueryServiceTest, SecondQueryHitsCacheWithSameResult) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(3));
  QueryOptions qo;
  ShardedServedResult first = service.Query(f.query, qo);
  ASSERT_TRUE(first.result.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(service.cache_size(), 1u);

  ShardedServedResult second = service.Query(f.query, qo);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.matches, first.result.matches);
  EXPECT_EQ(second.version, first.version);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(ShardedQueryServiceTest, UpdateInvalidatesViaVectorStamp) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(3));
  QueryOptions qo;
  (void)service.Query(f.query, qo);
  ASSERT_EQ(service.cache_size(), 1u);

  // Deleting CT's guide edge kills the best match; only the owning
  // shard(s) bump their version component, but the vector stamp must
  // still invalidate the cached entry.
  VersionVector before = service.version();
  ASSERT_TRUE(service.ApplyUpdate(GraphUpdate::Delete(f.ct, f.rg, f.guide)));
  VersionVector after = service.version();
  EXPECT_NE(before, after);
  EXPECT_EQ(service.cache_size(), 0u);

  ShardedServedResult served = service.Query(f.query, qo);
  EXPECT_FALSE(served.cache_hit);
  // The oracle on the mutated graph agrees.
  Graph mutated = f.g;
  ASSERT_TRUE(mutated.RemoveEdge(f.ct, f.rg, f.guide));
  QueryEngine oracle(mutated, f.o, IndexOptions{});
  EXPECT_EQ(served.result.matches, oracle.Query(f.query, qo).matches);
}

TEST(ShardedQueryServiceTest, UpdateStreamTracksOracle) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2));
  Graph twin = f.g;
  QueryOptions qo;

  // Insert a second guide edge, delete a fav edge, add a node and wire
  // it in — after each batch the sharded result must track a fresh
  // oracle over the twin graph.
  std::vector<GraphUpdate> batch = {
      GraphUpdate::Insert(f.ht, f.rg, f.guide),
      GraphUpdate::Delete(f.ct, f.starlight, f.fav),
  };
  MaintenanceStats ms = service.ApplyUpdates(batch);
  EXPECT_EQ(ms.applied, 2u);
  ASSERT_TRUE(twin.AddEdge(f.ht, f.rg, f.guide));
  ASSERT_TRUE(twin.RemoveEdge(f.ct, f.starlight, f.fav));
  {
    QueryEngine oracle(twin, f.o, IndexOptions{});
    ShardedServedResult served = service.Query(f.query, qo);
    EXPECT_EQ(served.result.matches, oracle.Query(f.query, qo).matches);
  }

  // AddNode must agree on the id (both allocate densely) and route the
  // node so later edges touching it apply.
  LabelId starlight_label = f.dict.Lookup("starlight");
  NodeId fresh = service.AddNode(starlight_label);
  EXPECT_EQ(fresh, twin.AddNode(starlight_label));
  ASSERT_TRUE(service.ApplyUpdate(GraphUpdate::Insert(f.ht, fresh, f.fav)));
  ASSERT_TRUE(service.ApplyUpdate(GraphUpdate::Insert(fresh, f.rg, f.near)));
  ASSERT_TRUE(twin.AddEdge(f.ht, fresh, f.fav));
  ASSERT_TRUE(twin.AddEdge(fresh, f.rg, f.near));
  {
    QueryEngine oracle(twin, f.o, IndexOptions{});
    QueryResult expected = oracle.Query(f.query, qo);
    ShardedServedResult served = service.Query(f.query, qo);
    EXPECT_EQ(served.result.matches, expected.matches);
    // The new HT-based match must actually exist (sanity that the
    // routed node is visible to matching).
    bool uses_fresh = false;
    for (const Match& m : expected.matches) {
      for (NodeId v : m.mapping) uses_fresh |= v == fresh;
    }
    EXPECT_TRUE(uses_fresh);
  }
}

TEST(ShardedQueryServiceTest, FaultedShardDegradesAndIsNeverCached) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(3));
  service.set_fault_hook([](size_t shard) {
    if (shard == 1) return Status::Unavailable("injected");
    return Status::Ok();
  });
  QueryOptions qo;
  ShardedServedResult served = service.Query(f.query, qo);
  ASSERT_TRUE(served.result.status.ok());
  EXPECT_EQ(served.shards_failed, 1u);
  EXPECT_EQ(served.result.completeness, StopReason::kShardUnavailable);
  EXPECT_FALSE(served.result.complete());
  // Partial results must never be cached.
  EXPECT_EQ(service.cache_size(), 0u);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.shard_unavailable, 1u);
  EXPECT_EQ(stats.complete, 0u);

  // Surviving shards still contribute: the result is a subset of the
  // oracle's matches.
  QueryEngine oracle(f.g, f.o, IndexOptions{});
  QueryOptions all;
  all.k = 0;
  QueryResult full = oracle.Query(f.query, all);
  for (const Match& m : served.result.matches) {
    EXPECT_NE(std::find(full.matches.begin(), full.matches.end(), m),
              full.matches.end());
  }

  // Heal the fault: the next query is complete and cacheable.
  service.set_fault_hook(nullptr);
  served = service.Query(f.query, qo);
  EXPECT_TRUE(served.result.complete());
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST(ShardedQueryServiceTest, AllShardsFaultedReturnsUnavailable) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2));
  service.set_fault_hook(
      [](size_t) { return Status::Unavailable("injected"); });
  ShardedServedResult served = service.Query(f.query, QueryOptions{});
  EXPECT_EQ(served.result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(served.shards_failed, 2u);
  EXPECT_TRUE(served.result.matches.empty());
  EXPECT_EQ(served.result.completeness, StopReason::kShardUnavailable);
}

TEST(ShardedQueryServiceTest, StalledShardTripsDeadlineNotCached) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2));
  service.set_fault_hook([](size_t shard) {
    if (shard == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return Status::Ok();
  });
  QueryOptions qo;
  qo.deadline_ms = 5;
  ShardedServedResult served = service.Query(f.query, qo);
  ASSERT_TRUE(served.result.status.ok());
  // The stalled shard blows the deadline (its own evaluation starts
  // past the absolute deadline); completeness reports it.
  EXPECT_EQ(served.result.completeness, StopReason::kDeadlineExceeded);
  EXPECT_EQ(service.cache_size(), 0u);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

TEST(ShardedQueryServiceTest, PivotEccentricityBeyondHaloIsRejected) {
  TravelFixture f = MakeTravelFixture();
  ShardOptions so = Shards(2);
  so.halo_radius = 0;  // no replication: only single-node queries evaluable
  ShardedQueryService service(f.g, f.o, IndexOptions{}, so);
  ShardedServedResult served = service.Query(f.query, QueryOptions{});
  EXPECT_EQ(served.result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(served.result.matches.empty());
}

// The sharded path rejects theta outside (0, 1] like QueryEngine::Query
// (ValidateQueryRequest), instead of answering from per-shard errors.
TEST(ShardedQueryServiceTest, RejectsThetaOutsideUnitInterval) {
  TravelFixture f = MakeTravelFixture();
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2));
  for (double theta : {0.0, -0.5, 1.5, std::nan("")}) {
    QueryOptions qo;
    qo.theta = theta;
    ShardedServedResult served = service.Query(f.query, qo);
    EXPECT_EQ(served.result.status.code(), StatusCode::kInvalidArgument)
        << theta;
    EXPECT_TRUE(served.result.matches.empty());
  }
  QueryOptions exact;
  exact.theta = 1.0;
  EXPECT_TRUE(service.Query(f.query, exact).result.status.ok());
}

// The merged QueryResult carries the sum of the shards' filter and verify
// work counters — including pivot_restricted_nodes, which only the sharded
// tier makes non-zero.
TEST(ShardedQueryServiceTest, MergedStatsSumTheShards) {
  TravelFixture f = MakeTravelFixture();
  QueryOptions qo;
  qo.theta = 0.81;
  qo.k = 0;
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2));
  ShardedServedResult served = service.Query(f.query, qo);
  ASSERT_TRUE(served.result.status.ok());
  ASSERT_TRUE(served.result.complete());

  // The same evaluation through the shard engines directly.
  ShardPlan plan = GraphPartitioner(f.g, Shards(2)).Partition();
  std::vector<ShardEngine> shards;
  for (ShardSpec& spec : plan.shards) {
    shards.emplace_back(std::move(spec), f.o, IndexOptions{});
  }
  const NodeId pivot = ChoosePivot(f.query).pivot;
  const QuerySimTables sims = shards.front().PrepareQuery(f.query, qo);
  FilterStats filter;
  KMatchStats verify;
  for (const ShardEngine& shard : shards) {
    QueryResult r = shard.Query(f.query, pivot, qo, Deadline(), &sims);
    ASSERT_TRUE(r.status.ok());
    filter.seed_visits += r.filter_stats.seed_visits;
    filter.fixpoint_checks += r.filter_stats.fixpoint_checks;
    filter.pivot_restricted_nodes += r.filter_stats.pivot_restricted_nodes;
    filter.pruned_nodes += r.filter_stats.pruned_nodes;
    filter.sig_node_rejections += r.filter_stats.sig_node_rejections;
    filter.gv_nodes += r.filter_stats.gv_nodes;
    verify.search_steps += r.verify_stats.search_steps;
    verify.candidate_checks += r.verify_stats.candidate_checks;
    verify.matches_found += r.verify_stats.matches_found;
    verify.root_partitions += r.verify_stats.root_partitions;
  }
  const FilterStats& mf = served.result.filter_stats;
  const KMatchStats& mk = served.result.verify_stats;
  EXPECT_GT(mf.pivot_restricted_nodes, 0u);
  EXPECT_GT(mf.seed_visits, 0u);
  EXPECT_GT(mf.fixpoint_checks, 0u);
  EXPECT_EQ(mf.seed_visits, filter.seed_visits);
  EXPECT_EQ(mf.fixpoint_checks, filter.fixpoint_checks);
  EXPECT_EQ(mf.pivot_restricted_nodes, filter.pivot_restricted_nodes);
  EXPECT_EQ(mf.pruned_nodes, filter.pruned_nodes);
  EXPECT_EQ(mf.sig_node_rejections, filter.sig_node_rejections);
  EXPECT_EQ(mf.gv_nodes, filter.gv_nodes);
  EXPECT_EQ(mk.search_steps, verify.search_steps);
  EXPECT_EQ(mk.candidate_checks, verify.candidate_checks);
  EXPECT_EQ(mk.matches_found, verify.matches_found);
  EXPECT_EQ(mk.root_partitions, verify.root_partitions);
}

TEST(ShardedQueryServiceTest, AdmissionControlShedsAtCapacity) {
  TravelFixture f = MakeTravelFixture();
  ServeOptions so;
  so.max_inflight = 1;
  ShardedQueryService service(f.g, f.o, IndexOptions{}, Shards(2), so);

  // Hold the single slot hostage from inside a fault hook while a second
  // query arrives on another thread.
  std::atomic<bool> release{false};
  std::atomic<bool> inside{false};
  service.set_fault_hook([&](size_t) {
    inside.store(true);
    while (!release.load()) std::this_thread::yield();
    return Status::Ok();
  });
  std::thread t([&] { (void)service.Query(f.query, QueryOptions{}); });
  while (!inside.load()) std::this_thread::yield();

  ShardedServedResult shed = service.Query(f.query, QueryOptions{});
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.result.status.code(), StatusCode::kUnavailable);
  // Like the single-engine tier, a shed response still reports the
  // current cut.
  EXPECT_EQ(shed.version, service.version());
  EXPECT_EQ(shed.version.v.size(), 2u);
  release.store(true);
  t.join();
  EXPECT_EQ(service.Stats().shed, 1u);
  EXPECT_EQ(service.inflight(), 0u);
}

}  // namespace
}  // namespace osq
