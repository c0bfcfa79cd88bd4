// Differential shard-oracle suite (DESIGN.md §13): the sharded serving
// tier must be BIT-IDENTICAL to a single QueryEngine over the whole
// graph, for every shard count and both partitioning policies.  Drive
// generated queries against shardings N in {1,2,3,7} x {hash,range} and
// assert exact vector<Match> equality (mappings AND scores) versus a
// fresh oracle; then push a randomized insert/delete/add-node stream
// through every service in lockstep with a twin graph and re-assert
// against an oracle rebuilt from the twin.  A deadline-degraded pass
// checks partial results are subsets and never cached; a cache pass
// checks hits reproduce the miss result.  A hand-built case pins ties at
// the k-th score after halo growth.  Labeled `slow`.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "graph/graph.h"
#include "graph/label_dictionary.h"
#include "graph/query_graph.h"
#include "ontology/ontology_graph.h"
#include "shard/sharded_query_service.h"

namespace osq {
namespace {

std::vector<Graph> MakeWorkload(const gen::Dataset& ds, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  size_t attempts = 0;
  while (queries.size() < count && ++attempts < count * 20) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<LabelId> EdgeLabelUniverse(const Graph& g) {
  std::set<LabelId> labels;
  for (const EdgeTriple& e : g.EdgeList()) labels.insert(e.label);
  return {labels.begin(), labels.end()};
}

enum class Scenario { kCrossDomain, kCommunity };

// Every shard count / policy combination under test, all sharing the same
// halo radius (>= the max pivot eccentricity of 4-node queries).
struct ShardedFleet {
  std::vector<std::unique_ptr<ShardedQueryService>> services;
  std::vector<std::string> names;
};

ShardedFleet MakeFleet(const Graph& g, const OntologyGraph& ontology) {
  ShardedFleet fleet;
  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    for (size_t n : {1u, 2u, 3u, 7u}) {
      ShardOptions so;
      so.num_shards = n;
      so.policy = policy;
      so.halo_radius = 3;
      fleet.services.push_back(std::make_unique<ShardedQueryService>(
          g, ontology, IndexOptions{}, so));
      fleet.names.push_back(
          (policy == ShardPolicy::kHash ? "hash/" : "range/") +
          std::to_string(n));
    }
  }
  return fleet;
}

// Asserts every service answers every query exactly like a fresh single
// engine over `twin` (mappings AND bitwise scores).
void ExpectFleetMatchesOracle(const ShardedFleet& fleet, const Graph& twin,
                              const OntologyGraph& ontology,
                              const std::vector<Graph>& queries,
                              const QueryOptions& qo, const char* phase,
                              uint64_t seed) {
  QueryEngine oracle(twin, ontology, IndexOptions{});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryResult expected = oracle.Query(queries[qi], qo);
    for (size_t si = 0; si < fleet.services.size(); ++si) {
      ShardedServedResult served =
          fleet.services[si]->Query(queries[qi], qo);
      ASSERT_EQ(served.result.status.code(), expected.status.code())
          << phase << " seed " << seed << " query " << qi << " "
          << fleet.names[si];
      if (!expected.status.ok()) continue;
      ASSERT_TRUE(served.result.complete())
          << phase << " seed " << seed << " query " << qi << " "
          << fleet.names[si];
      // Match has defaulted equality: mappings and bitwise scores.
      ASSERT_EQ(served.result.matches, expected.matches)
          << phase << " seed " << seed << " query " << qi << " "
          << fleet.names[si];
    }
  }
}

void RunDifferential(uint64_t seed,
                     Scenario scenario = Scenario::kCrossDomain) {
  gen::ScenarioParams p;
  p.scale = 300;
  p.seed = seed;
  gen::Dataset ds = scenario == Scenario::kCrossDomain
                        ? gen::MakeCrossDomainLike(p)
                        : gen::MakeCommunityLike(p);
  std::vector<Graph> queries = MakeWorkload(ds, 4, seed * 31 + 1);
  ASSERT_FALSE(queries.empty());

  IndexOptions idx;
  QueryOptions qo;
  qo.theta = 0.85;
  qo.k = 8;

  ShardedFleet fleet = MakeFleet(ds.graph, ds.ontology);
  std::vector<std::unique_ptr<ShardedQueryService>>& services =
      fleet.services;
  const std::vector<std::string>& names = fleet.names;

  Graph twin = ds.graph;
  auto check_all = [&](const char* phase) {
    ExpectFleetMatchesOracle(fleet, twin, ds.ontology, queries, qo, phase,
                             seed);
  };

  check_all("initial");

  // Cache pass: the same query again must hit and reproduce the result.
  {
    ShardedServedResult miss = services[1]->Query(queries[0], qo);
    ShardedServedResult hit = services[1]->Query(queries[0], qo);
    if (miss.result.status.ok()) {
      EXPECT_TRUE(hit.cache_hit);
      EXPECT_EQ(hit.result.matches, miss.result.matches);
    }
  }

  // Deadline-degraded pass: with an (effectively expired) deadline every
  // returned match is still valid — a subset of the full answer — and
  // the partial result is never cached.
  {
    QueryOptions full = qo;
    full.k = 0;
    QueryEngine oracle(twin, ds.ontology, idx);
    QueryResult all = oracle.Query(queries[0], full);
    QueryOptions tight = qo;
    tight.deadline_ms = 1e-4;
    for (size_t si = 0; si < services.size(); ++si) {
      size_t cached_before = services[si]->cache_size();
      ShardedServedResult served = services[si]->Query(queries[0], tight);
      if (!served.result.status.ok()) continue;
      for (const Match& m : served.result.matches) {
        EXPECT_NE(std::find(all.matches.begin(), all.matches.end(), m),
                  all.matches.end())
            << "degraded result invented a match, " << names[si];
      }
      if (!served.result.complete()) {
        EXPECT_EQ(services[si]->cache_size(), cached_before)
            << "partial result cached, " << names[si];
      }
    }
  }

  // Update stream: identical mutations to the twin and every service.
  constexpr size_t kSteps = 30;
  Rng rng(seed * 977 + 5);
  std::vector<LabelId> labels = EdgeLabelUniverse(twin);
  ASSERT_FALSE(labels.empty());
  size_t applied_total = 0;
  for (size_t step = 1; step <= kSteps; ++step) {
    if (step % 11 == 0) {
      LabelId label = twin.NodeLabel(
          static_cast<NodeId>(rng.Index(twin.num_nodes())));
      NodeId twin_id = twin.AddNode(label);
      for (size_t si = 0; si < services.size(); ++si) {
        ASSERT_EQ(services[si]->AddNode(label), twin_id)
            << "step " << step << " " << names[si];
      }
      continue;
    }
    GraphUpdate update;
    if (rng.Bernoulli(0.5) && twin.num_edges() > 0) {
      std::vector<EdgeTriple> edges = twin.EdgeList();
      EdgeTriple e = edges[rng.Index(edges.size())];
      update = GraphUpdate::Delete(e.from, e.to, e.label);
    } else {
      NodeId u = static_cast<NodeId>(rng.Index(twin.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.Index(twin.num_nodes()));
      if (u == v) continue;
      update = GraphUpdate::Insert(u, v, labels[rng.Index(labels.size())]);
    }
    bool twin_applied =
        update.kind == GraphUpdate::Kind::kInsertEdge
            ? twin.AddEdge(update.edge.from, update.edge.to,
                           update.edge.label)
            : twin.RemoveEdge(update.edge.from, update.edge.to,
                              update.edge.label);
    for (size_t si = 0; si < services.size(); ++si) {
      ASSERT_EQ(services[si]->ApplyUpdate(update), twin_applied)
          << "step " << step << " " << names[si];
    }
    if (twin_applied) ++applied_total;
  }
  ASSERT_GT(applied_total, kSteps / 4);

  check_all("post-stream");
}

TEST(ShardDifferentialTest, OracleEquivalenceSeedA) { RunDifferential(11); }

TEST(ShardDifferentialTest, OracleEquivalenceSeedB) { RunDifferential(29); }

TEST(ShardDifferentialTest, OracleEquivalenceSeedC) { RunDifferential(83); }

// The locality-structured dataset the sharded benchmark partitions by
// range (thin halos, community-aligned shard boundaries) must satisfy the
// same bit-identity contract — including after the update stream breaks
// the pristine community structure.
TEST(ShardDifferentialTest, OracleEquivalenceCommunity) {
  RunDifferential(47, Scenario::kCommunity);
}

// Ties at the k-th score must break on GLOBAL ids after the update stream.
// Under range/2, node 3 is owned by shard 0 and, until the inserted edge
// 15 -> 3 pulls it into shard 1's halo, absent from shard 1; the halo
// growth appends it after every original member, so shard-local ids stop
// following global order.  Both matches (15, 12) and (15, 3) of the
// one-edge query score 2 with pivot 15 owned by shard 1; the oracle keeps
// (15, 3) at k = 1, and so must shard 1's own top-k.
TEST(ShardDifferentialTest, PostStreamKthScoreTiesBreakOnGlobalIds) {
  LabelDictionary dict;
  OntologyGraph ontology;
  ontology.AddRelation(dict.Intern("item"), dict.Intern("thing"));
  StringGraphBuilder gb(&dict);
  for (int i = 0; i < 20; ++i) gb.AddNode("n" + std::to_string(i), "item");
  gb.AddEdge("n15", "n12", "link");
  Graph g = gb.TakeGraph();
  const LabelId link = dict.Lookup("link");

  StringGraphBuilder qb(&dict);
  qb.AddNode("a", "item");
  qb.AddNode("b", "item");
  qb.AddEdge("a", "b", "link");
  const std::vector<Graph> queries = {qb.TakeGraph()};
  QueryOptions qo;
  qo.theta = 0.9;
  qo.k = 1;

  ShardedFleet fleet = MakeFleet(g, ontology);
  Graph twin = g;
  ExpectFleetMatchesOracle(fleet, twin, ontology, queries, qo, "initial", 0);

  ASSERT_TRUE(twin.AddEdge(15, 3, link));
  for (const auto& service : fleet.services) {
    ASSERT_TRUE(service->ApplyUpdate(GraphUpdate::Insert(15, 3, link)));
  }
  ExpectFleetMatchesOracle(fleet, twin, ontology, queries, qo, "post-stream",
                           0);
}

}  // namespace
}  // namespace osq
