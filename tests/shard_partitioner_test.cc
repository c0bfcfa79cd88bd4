// Unit tests for the shard partitioning layer (shard/partitioner.h):
// deterministic ownership, halo construction, pivot selection, and the
// UpdateRouter's membership-maintenance invariants.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_algorithms.h"
#include "shard/partitioner.h"

namespace osq {
namespace {

// A directed path 0 -> 1 -> 2 -> 3 -> 4, all labels 0.
Graph MakePath(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(0);
  for (NodeId v = 0; v + 1 < n; ++v) {
    EXPECT_TRUE(g.AddEdge(v, v + 1, 0));
  }
  return g;
}

TEST(GraphPartitionerTest, EveryNodeOwnedByExactlyOneShard) {
  Graph g = MakePath(20);
  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    ShardOptions so;
    so.num_shards = 3;
    so.policy = policy;
    GraphPartitioner p(g, so);
    ShardPlan plan = p.Partition();
    ASSERT_EQ(plan.shards.size(), 3u);
    std::vector<size_t> owners(g.num_nodes(), 0);
    for (size_t s = 0; s < plan.shards.size(); ++s) {
      const ShardSpec& spec = plan.shards[s];
      ASSERT_EQ(spec.sub.to_original.size(), spec.owned.size());
      for (size_t i = 0; i < spec.sub.to_original.size(); ++i) {
        if (spec.owned[i] != 0) {
          ++owners[spec.sub.to_original[i]];
          EXPECT_EQ(p.OwnerOf(spec.sub.to_original[i]), s);
        }
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(owners[v], 1u) << "node " << v;
    }
  }
}

TEST(GraphPartitionerTest, RangePolicyAssignsContiguousBlocks) {
  Graph g = MakePath(10);
  ShardOptions so;
  so.num_shards = 3;
  so.policy = ShardPolicy::kRange;
  GraphPartitioner p(g, so);
  // ceil(10/3) = 4: [0,3] -> 0, [4,7] -> 1, [8,9] -> 2.
  EXPECT_EQ(p.OwnerOf(0), 0u);
  EXPECT_EQ(p.OwnerOf(3), 0u);
  EXPECT_EQ(p.OwnerOf(4), 1u);
  EXPECT_EQ(p.OwnerOf(7), 1u);
  EXPECT_EQ(p.OwnerOf(8), 2u);
  EXPECT_EQ(p.OwnerOf(9), 2u);
}

TEST(GraphPartitionerTest, SingleShardIsIdentity) {
  Graph g = MakePath(6);
  ShardOptions so;
  so.num_shards = 1;
  ShardPlan plan = GraphPartitioner(g, so).Partition();
  ASSERT_EQ(plan.shards.size(), 1u);
  const ShardSpec& spec = plan.shards[0];
  ASSERT_EQ(spec.sub.to_original.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(spec.sub.graph.NodeLabel(v), g.NodeLabel(v));
    EXPECT_NE(spec.owned[v], 0);
    EXPECT_EQ(spec.sub.to_original[v], v);
  }
  EXPECT_EQ(spec.sub.graph.num_edges(), g.num_edges());
}

TEST(GraphPartitionerTest, HaloCoversRadiusBallAndSubgraphIsInduced) {
  Graph g = MakePath(8);
  ShardOptions so;
  so.num_shards = 4;
  so.policy = ShardPolicy::kRange;  // blocks of 2: {0,1} {2,3} {4,5} {6,7}
  so.halo_radius = 2;
  GraphPartitioner p(g, so);
  ShardPlan plan = p.Partition();

  for (size_t s = 0; s < plan.shards.size(); ++s) {
    const ShardSpec& spec = plan.shards[s];
    std::set<NodeId> members(spec.sub.to_original.begin(),
                             spec.sub.to_original.end());
    // Membership must cover every node within halo_radius undirected hops
    // of an owned node.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (p.OwnerOf(v) != s) continue;
      std::vector<uint32_t> dist = UndirectedBfsDistances(g, v);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (dist[u] <= so.halo_radius) {
          EXPECT_TRUE(members.count(u))
              << "shard " << s << " missing " << u << " (dist " << dist[u]
              << " from owned " << v << ")";
        }
      }
    }
    // The shard graph is exactly induced: every global edge between two
    // members appears, with the same label.
    std::map<NodeId, NodeId> local;
    for (NodeId i = 0; i < spec.sub.to_original.size(); ++i) {
      local[spec.sub.to_original[i]] = i;
    }
    for (const EdgeTriple& e : g.Edges()) {
      if (!members.count(e.from) || !members.count(e.to)) continue;
      EXPECT_TRUE(
          spec.sub.graph.HasEdge(local[e.from], local[e.to], e.label));
    }
  }
  // Shard 1 owns {2,3}; radius 2 on the path reaches 0..5.
  EXPECT_EQ(plan.shards[1].sub.to_original,
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(ChoosePivotTest, PicksMinimumEccentricityLowestId) {
  // Path of 5: center node 2 has eccentricity 2.
  Graph path = MakePath(5);
  PivotChoice c = ChoosePivot(path);
  EXPECT_EQ(c.pivot, 2u);
  EXPECT_EQ(c.eccentricity, 2u);

  // Star: hub 0 with 3 leaves — hub eccentricity 1, leaves 2.
  Graph star;
  star.AddNode(0);
  for (int i = 0; i < 3; ++i) star.AddNode(1);
  for (NodeId v = 1; v <= 3; ++v) ASSERT_TRUE(star.AddEdge(0, v, 0));
  c = ChoosePivot(star);
  EXPECT_EQ(c.pivot, 0u);
  EXPECT_EQ(c.eccentricity, 1u);

  // Tie (2-node path: both ecc 1): lowest id wins.
  c = ChoosePivot(MakePath(2));
  EXPECT_EQ(c.pivot, 0u);
  EXPECT_EQ(c.eccentricity, 1u);
}

TEST(UpdateRouterTest, InsertRoutesToShardsHoldingBothEndpoints) {
  Graph g = MakePath(8);
  ShardOptions so;
  so.num_shards = 4;
  so.policy = ShardPolicy::kRange;
  so.halo_radius = 1;
  ShardPlan plan = GraphPartitioner(g, so).Partition();
  UpdateRouter router(g, plan);

  // Edge 2 -> 3 is internal to shard 1 (owns {2,3}); shards 0 and 2 hold
  // both endpoints as halo.  A duplicate insert routes nowhere.
  bool applied = true;
  std::vector<ShardDelta> deltas =
      router.Route(GraphUpdate::Insert(2, 3, 0), &applied);
  EXPECT_FALSE(applied);
  for (const ShardDelta& d : deltas) EXPECT_TRUE(d.empty());

  // A fresh edge 0 -> 7 connects the path ends.  Both endpoints become
  // mutually reachable at distance 1, pulling new halo members into the
  // end shards.
  deltas = router.Route(GraphUpdate::Insert(0, 7, 0), &applied);
  EXPECT_TRUE(applied);
  ASSERT_EQ(deltas.size(), 4u);
  // Shard 0 (owns {0,1}): node 7 enters the halo with its induced edges.
  bool found7 = false;
  for (const ShardDelta::NodeAdd& add : deltas[0].node_adds) {
    if (add.global == 7) {
      found7 = true;
      EXPECT_FALSE(add.owned);
    }
  }
  EXPECT_TRUE(found7);
  EXPECT_TRUE(router.IsMember(0, 7));
  // The new member arrived with the triggering edge (0 -> 7) among its
  // induced edges — not as a duplicate top-level update.
  size_t count_0_7 = 0;
  for (const GraphUpdate& u : deltas[0].updates) {
    if (u.edge.from == 0 && u.edge.to == 7) ++count_0_7;
    EXPECT_EQ(u.kind, GraphUpdate::Kind::kInsertEdge);
  }
  EXPECT_EQ(count_0_7, 1u);
}

TEST(UpdateRouterTest, NewMemberArrivesWithAllInducedEdgesExactlyOnce) {
  // Triangle 5-6-7 far from shard 0, connected to it by a new edge.
  Graph g;
  for (int i = 0; i < 8; ++i) g.AddNode(0);
  ASSERT_TRUE(g.AddEdge(5, 6, 0));
  ASSERT_TRUE(g.AddEdge(6, 7, 0));
  ASSERT_TRUE(g.AddEdge(7, 5, 0));
  ShardOptions so;
  so.num_shards = 4;
  so.policy = ShardPolicy::kRange;  // shard 0 owns {0,1}
  so.halo_radius = 2;
  ShardPlan plan = GraphPartitioner(g, so).Partition();
  UpdateRouter router(g, plan);
  ASSERT_FALSE(router.IsMember(0, 5));

  // 0 -> 5 pulls 5 (dist 1) and 6, 7 (dist 2) into shard 0's halo.
  bool applied = false;
  std::vector<ShardDelta> deltas =
      router.Route(GraphUpdate::Insert(0, 5, 0), &applied);
  ASSERT_TRUE(applied);
  std::set<NodeId> added;
  for (const ShardDelta::NodeAdd& add : deltas[0].node_adds) {
    added.insert(add.global);
  }
  EXPECT_EQ(added, (std::set<NodeId>{5, 6, 7}));
  // Each triangle edge plus the trigger must be emitted exactly once.
  std::multiset<std::pair<NodeId, NodeId>> edges;
  for (const GraphUpdate& u : deltas[0].updates) {
    edges.insert({u.edge.from, u.edge.to});
  }
  std::multiset<std::pair<NodeId, NodeId>> expected = {
      {0, 5}, {5, 6}, {6, 7}, {7, 5}};
  EXPECT_EQ(edges, expected);
}

TEST(UpdateRouterTest, DeleteKeepsMembershipAndRoutesToHolders) {
  Graph g = MakePath(6);
  ShardOptions so;
  so.num_shards = 3;
  so.policy = ShardPolicy::kRange;
  so.halo_radius = 1;
  ShardPlan plan = GraphPartitioner(g, so).Partition();
  UpdateRouter router(g, plan);
  ASSERT_TRUE(router.IsMember(0, 2));  // halo of shard 0 (owns {0,1})

  bool applied = false;
  std::vector<ShardDelta> deltas =
      router.Route(GraphUpdate::Delete(1, 2, 0), &applied);
  EXPECT_TRUE(applied);
  // Both endpoints are members of shards 0 and 1 -> routed there.
  ASSERT_EQ(deltas[0].updates.size(), 1u);
  EXPECT_EQ(deltas[0].updates[0].kind, GraphUpdate::Kind::kDeleteEdge);
  ASSERT_EQ(deltas[1].updates.size(), 1u);
  EXPECT_TRUE(deltas[2].updates.empty());
  // Membership is a stale superset: 2 stays in shard 0's member set.
  EXPECT_TRUE(router.IsMember(0, 2));
}

TEST(UpdateRouterTest, AddNodeRoutesToOwnerOnly) {
  Graph g = MakePath(4);
  ShardOptions so;
  so.num_shards = 2;
  so.policy = ShardPolicy::kRange;
  ShardPlan plan = GraphPartitioner(g, so).Partition();
  UpdateRouter router(g, plan);

  NodeId global = kInvalidNode;
  std::vector<ShardDelta> deltas = router.RouteAddNode(7, &global);
  EXPECT_EQ(global, 4u);
  // Beyond the initial range the kRange policy hash-routes; exactly one
  // shard receives the node, owned.
  size_t receiving = 0;
  for (size_t s = 0; s < deltas.size(); ++s) {
    if (deltas[s].empty()) continue;
    ++receiving;
    ASSERT_EQ(deltas[s].node_adds.size(), 1u);
    EXPECT_EQ(deltas[s].node_adds[0].global, global);
    EXPECT_EQ(deltas[s].node_adds[0].label, 7u);
    EXPECT_TRUE(deltas[s].node_adds[0].owned);
    EXPECT_TRUE(router.IsMember(s, global));
  }
  EXPECT_EQ(receiving, 1u);
  EXPECT_EQ(router.reference().num_nodes(), 5u);
}

}  // namespace
}  // namespace osq
