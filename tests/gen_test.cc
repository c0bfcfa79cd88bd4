#include "gen/workload.h"

#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>
#include "concept/concept_index.h"
#include "gen/churn.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "gen/synthetic.h"
#include "graph/graph_algorithms.h"
#include "graph/query_graph.h"

namespace osq {
namespace {

TEST(SyntheticGraphTest, RespectsRequestedSizes) {
  LabelDictionary dict;
  gen::SyntheticGraphParams p;
  p.num_nodes = 500;
  p.num_edges = 1500;
  p.num_labels = 30;
  Graph g = gen::MakeRandomGraph(p, &dict);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.num_edges(), 1500u);
  EXPECT_TRUE(g.CheckConsistency());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(g.NodeLabel(v), 30u + 3u);  // labels + edge labels interned
  }
}

TEST(SyntheticGraphTest, DeterministicForSeed) {
  LabelDictionary d1;
  LabelDictionary d2;
  gen::SyntheticGraphParams p;
  p.seed = 42;
  Graph a = gen::MakeRandomGraph(p, &d1);
  Graph b = gen::MakeRandomGraph(p, &d2);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

TEST(SyntheticGraphTest, LabelSkewProducesImbalance) {
  LabelDictionary dict;
  gen::SyntheticGraphParams p;
  p.num_nodes = 2000;
  p.num_edges = 0;
  p.num_labels = 10;
  p.label_skew = 1.2;
  Graph g = gen::MakeRandomGraph(p, &dict);
  std::vector<size_t> counts(10, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ++counts[g.NodeLabel(v) - dict.Lookup("L0")];
  }
  EXPECT_GT(counts[0], counts[9] * 2);
}

TEST(SyntheticOntologyTest, ConnectedAndCoversLabels) {
  LabelDictionary dict;
  gen::SyntheticOntologyParams p;
  p.num_labels = 50;
  OntologyGraph o = gen::MakeTaxonomyOntology(p, &dict);
  EXPECT_EQ(o.num_labels(), 50u);
  EXPECT_GE(o.num_relations(), 49u);  // at least the tree backbone
  // Connected: every label reachable from label 0.
  LabelId l0 = dict.Lookup("L0");
  EXPECT_EQ(o.BallAround(l0, 1000).size(), 50u);
}

TEST(SyntheticOntologyTest, SharesLabelIdsWithGraph) {
  LabelDictionary dict;
  gen::SyntheticGraphParams gp;
  gp.num_labels = 20;
  Graph g = gen::MakeRandomGraph(gp, &dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 20;
  OntologyGraph o = gen::MakeTaxonomyOntology(op, &dict);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(o.ContainsLabel(g.NodeLabel(v)));
  }
}

TEST(QueryGenTest, ExtractedQueryIsConnectedInducedSubgraph) {
  LabelDictionary dict;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = 200;
  gp.num_edges = 800;
  gp.num_labels = 15;
  Graph g = gen::MakeRandomGraph(gp, &dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 15;
  OntologyGraph o = gen::MakeTaxonomyOntology(op, &dict);
  Rng rng(5);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.0;  // keep original labels
  for (int i = 0; i < 20; ++i) {
    Graph q = gen::ExtractQuery(g, o, qp, &rng);
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.num_nodes(), 4u);
    EXPECT_TRUE(IsWeaklyConnected(q));
  }
}

TEST(QueryGenTest, GeneralizationKeepsLabelsInOntology) {
  LabelDictionary dict;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = 200;
  gp.num_edges = 800;
  gp.num_labels = 15;
  Graph g = gen::MakeRandomGraph(gp, &dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 15;
  OntologyGraph o = gen::MakeTaxonomyOntology(op, &dict);
  Rng rng(6);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 1.0;
  qp.generalize_hops = 2;
  Graph q = gen::ExtractQuery(g, o, qp, &rng);
  ASSERT_FALSE(q.empty());
  for (NodeId u = 0; u < q.num_nodes(); ++u) {
    EXPECT_TRUE(o.ContainsLabel(q.NodeLabel(u)));
  }
}

TEST(QueryGenTest, ImpossibleSizeReturnsEmpty) {
  LabelDictionary dict;
  Graph g;
  g.AddNode(dict.Intern("a"));
  OntologyGraph o;
  Rng rng(7);
  gen::QueryGenParams qp;
  qp.num_nodes = 5;
  EXPECT_TRUE(gen::ExtractQuery(g, o, qp, &rng).empty());
}

TEST(ScenarioTest, CrossDomainLikeShape) {
  gen::ScenarioParams p;
  p.scale = 800;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  EXPECT_EQ(ds.graph.num_nodes(), 800u);
  EXPECT_GT(ds.graph.num_edges(), 2000u);
  EXPECT_GT(ds.ontology.num_labels(), 100u);
  EXPECT_TRUE(ds.graph.CheckConsistency());
  // Every data label is an ontology concept.
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    EXPECT_TRUE(ds.ontology.ContainsLabel(ds.graph.NodeLabel(v)));
  }
}

TEST(ScenarioTest, FlickrLikeShape) {
  gen::ScenarioParams p;
  p.scale = 800;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  EXPECT_GT(ds.graph.num_nodes(), 700u);
  EXPECT_GT(ds.graph.num_edges(), ds.graph.num_nodes());
  EXPECT_TRUE(ds.graph.CheckConsistency());
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    EXPECT_TRUE(ds.ontology.ContainsLabel(ds.graph.NodeLabel(v)));
  }
  // Photos dominate.
  LabelId photo = ds.dict.Lookup("photo");
  size_t photos = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.NodeLabel(v) == photo) ++photos;
  }
  EXPECT_GT(photos, ds.graph.num_nodes() / 3);
}

TEST(ScenarioTest, CatalogLikeShape) {
  gen::ScenarioParams p;
  p.scale = 800;
  gen::Dataset ds = gen::MakeCatalogLike(p);
  EXPECT_EQ(ds.graph.num_nodes(), 800u);
  EXPECT_GT(ds.graph.num_edges(), ds.graph.num_nodes());
  EXPECT_TRUE(ds.graph.CheckConsistency());
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    EXPECT_TRUE(ds.ontology.ContainsLabel(ds.graph.NodeLabel(v)));
  }
  // The scenario's purpose: hub/spoke symmetry keeps partition refinement
  // coarse (the other scenarios collapse to near-singleton blocks), so the
  // paper's concept graphs have blocks with intra-block degree variance.
  // Guard the coarseness, not an exact block count.
  ConceptIndex index =
      ConceptIndex::Build(ds.graph, ds.ontology, IndexOptions{}, {});
  ASSERT_EQ(index.num_concept_graphs(), 2u);
  EXPECT_LT(index.concept_graph(0).AliveBlocks().size(),
            ds.graph.num_nodes() / 10);
}

TEST(ScenarioTest, CommunityLikeShape) {
  gen::ScenarioParams p;
  p.scale = 800;
  gen::Dataset ds = gen::MakeCommunityLike(p);
  // Scale rounds to whole communities of 100.
  EXPECT_EQ(ds.graph.num_nodes(), 800u);
  EXPECT_GT(ds.graph.num_edges(), 2000u);
  EXPECT_TRUE(ds.graph.CheckConsistency());
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    EXPECT_TRUE(ds.ontology.ContainsLabel(ds.graph.NodeLabel(v)));
  }
  // The defining property: every edge stays inside a community or spans
  // exactly one ring-adjacent boundary — this is what keeps range-shard
  // halos thin in the sharded serving tier.
  const size_t kCommunity = 100;
  const size_t num_comm = ds.graph.num_nodes() / kCommunity;
  size_t intra = 0;
  for (const EdgeTriple& e : ds.graph.EdgeList()) {
    size_t cu = e.from / kCommunity;
    size_t cv = e.to / kCommunity;
    size_t ring_dist = cu >= cv ? cu - cv : cv - cu;
    ring_dist = std::min(ring_dist, num_comm - ring_dist);
    EXPECT_LE(ring_dist, 1u) << "edge spans non-adjacent communities";
    if (ring_dist == 0) ++intra;
  }
  // Most edges are intra-community.
  EXPECT_GT(intra, ds.graph.num_edges() * 9 / 10);
}

TEST(ScenarioTest, CommunityLikeDeterministicForSeed) {
  gen::ScenarioParams p;
  p.scale = 300;
  p.seed = 21;
  gen::Dataset a = gen::MakeCommunityLike(p);
  gen::Dataset b = gen::MakeCommunityLike(p);
  ASSERT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.graph.EdgeList(), b.graph.EdgeList());
  for (NodeId v = 0; v < a.graph.num_nodes(); ++v) {
    EXPECT_EQ(a.graph.NodeLabel(v), b.graph.NodeLabel(v));
  }
}

TEST(WorkloadTest, CommunityWorkloadPopulated) {
  gen::ScenarioParams p;
  p.scale = 600;
  gen::Workload w = gen::MakeCommunityWorkload(p, 5);
  ASSERT_EQ(w.templates.size(), 4u);
  EXPECT_EQ(w.name, "Community");
  for (const auto& t : w.templates) {
    EXPECT_GE(t.queries.size(), 1u) << t.name;
    for (const Graph& q : t.queries) {
      EXPECT_TRUE(ValidateQuery(q).ok());
    }
  }
}

TEST(WorkloadTest, CrossDomainWorkloadPopulated) {
  gen::ScenarioParams p;
  p.scale = 600;
  gen::Workload w = gen::MakeCrossDomainWorkload(p, 5);
  ASSERT_EQ(w.templates.size(), 5u);
  EXPECT_EQ(w.templates[0].name, "QT1");
  for (const auto& t : w.templates) {
    EXPECT_EQ(t.queries.size(), 5u) << t.name;
    for (const Graph& q : t.queries) {
      EXPECT_TRUE(ValidateQuery(q).ok());
      EXPECT_EQ(q.num_nodes(), t.params.num_nodes);
    }
  }
}

TEST(ChurnStreamTest, DeterministicForSeed) {
  gen::ScenarioParams p;
  p.scale = 300;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  gen::ChurnParams cp;
  cp.seed = 23;
  gen::ChurnStream a(ds.graph, cp);
  gen::ChurnStream b(ds.graph, cp);
  (void)a.Next(50);
  (void)b.Next(30);
  (void)b.Next(20);  // chunking must not change the stream
  ASSERT_EQ(a.history().size(), b.history().size());
  for (size_t i = 0; i < a.history().size(); ++i) {
    EXPECT_EQ(a.history()[i].kind, b.history()[i].kind);
    EXPECT_EQ(a.history()[i].edge.from, b.history()[i].edge.from);
    EXPECT_EQ(a.history()[i].edge.to, b.history()[i].edge.to);
    EXPECT_EQ(a.history()[i].edge.label, b.history()[i].edge.label);
  }
  EXPECT_EQ(a.live_edges(), b.live_edges());
}

// The replay property the ingest differential oracle builds on: applying
// history() in order with skip semantics over the seed graph lands on the
// stream's own live-edge bookkeeping.  Duplicates (and only duplicates)
// show up as skipped no-ops.
TEST(ChurnStreamTest, HistoryReplayMatchesLiveSet) {
  gen::ScenarioParams p;
  p.scale = 300;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  gen::ChurnParams cp;
  cp.seed = 29;
  cp.duplicate_fraction = 0.5;  // force plenty of re-deliveries
  gen::ChurnStream churn(ds.graph, cp);
  (void)churn.Next(120);

  std::set<std::tuple<NodeId, NodeId, LabelId>> live;
  for (const EdgeTriple& e : ds.graph.EdgeList()) {
    live.insert({e.from, e.to, e.label});
  }
  size_t skipped = 0;
  GraphUpdate prev = churn.history().front();
  bool have_prev = false;
  for (const GraphUpdate& u : churn.history()) {
    auto key = std::make_tuple(u.edge.from, u.edge.to, u.edge.label);
    bool changed = u.kind == GraphUpdate::Kind::kInsertEdge
                       ? live.insert(key).second
                       : live.erase(key) > 0;
    if (!changed) {
      ++skipped;
      // Only an exact re-delivery of the previous update may no-op.
      ASSERT_TRUE(have_prev);
      EXPECT_EQ(prev.kind, u.kind);
      EXPECT_EQ(std::make_tuple(prev.edge.from, prev.edge.to,
                                prev.edge.label),
                key);
    }
    prev = u;
    have_prev = true;
  }
  EXPECT_GT(skipped, 0u);  // duplicate_fraction 0.5 over 120+ updates
  EXPECT_EQ(live.size(), churn.live_edges());
}

TEST(ChurnStreamTest, PureDriftKeepsEndpointsAndMovesLabels) {
  gen::ScenarioParams p;
  p.scale = 300;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  gen::ChurnParams cp;
  cp.seed = 31;
  cp.growth_fraction = 0.0;
  cp.drift_fraction = 1.0;
  cp.duplicate_fraction = 0.0;
  gen::ChurnStream churn(ds.graph, cp);
  std::vector<GraphUpdate> updates = churn.Next(40);
  ASSERT_FALSE(updates.empty());
  size_t drift_pairs = 0;
  for (size_t i = 0; i + 1 < updates.size(); ++i) {
    if (updates[i].kind != GraphUpdate::Kind::kDeleteEdge ||
        updates[i + 1].kind != GraphUpdate::Kind::kInsertEdge) {
      continue;
    }
    if (updates[i].edge.from == updates[i + 1].edge.from &&
        updates[i].edge.to == updates[i + 1].edge.to) {
      EXPECT_NE(updates[i].edge.label, updates[i + 1].edge.label);
      ++drift_pairs;
    }
  }
  // All-drift mix: nearly every step re-types an edge in place (a step
  // degrades to decay only when the drifted triple already exists).
  EXPECT_GT(drift_pairs, 20u);
}

TEST(WorkloadTest, FlickrWorkloadPopulated) {
  gen::ScenarioParams p;
  p.scale = 600;
  gen::Workload w = gen::MakeFlickrWorkload(p, 5);
  ASSERT_EQ(w.templates.size(), 4u);
  EXPECT_EQ(w.templates[0].name, "QT6");
  for (const auto& t : w.templates) {
    EXPECT_GE(t.queries.size(), 1u) << t.name;
  }
}

}  // namespace
}  // namespace osq
