#include "core/filtering.h"

#include <set>

#include <gtest/gtest.h>
#include "baseline/subiso.h"
#include "core/query_engine.h"
#include "test_util.h"

namespace osq {
namespace {

OntologyIndex BuildTravelIndex(const test::TravelFixture& f) {
  return OntologyIndex::Build(f.g, f.o, IndexOptions{});
}

std::set<NodeId> CandidateNodes(const FilterResult& r, NodeId q) {
  std::set<NodeId> out;
  for (const Candidate& c : r.candidates[q]) {
    out.insert(c.node);
  }
  return out;
}

TEST(FilteringTest, TravelExampleCandidates) {
  // Example IV.3: after filtering, mat(moonlight) = {starlight},
  // mat(tourists) = {CT}, mat(museum) = {RG} at theta = 0.9.
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.9;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  EXPECT_EQ(CandidateNodes(r, f.q_museum), std::set<NodeId>{f.rg});
  EXPECT_EQ(CandidateNodes(r, f.q_tourists), std::set<NodeId>{f.ct});
  EXPECT_EQ(CandidateNodes(r, f.q_moonlight),
            std::set<NodeId>{f.starlight});
  // G_v is the induced subgraph over {RG, CT, starlight} (Fig. 9).
  EXPECT_EQ(r.stats.gv_nodes, 3u);
}

TEST(FilteringTest, LowerThetaKeepsMoreCandidates) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  // Disneyland (sim 0.81) now qualifies for museum; HT for tourists; HC
  // for moonlight.
  std::set<NodeId> museum = CandidateNodes(r, f.q_museum);
  EXPECT_TRUE(museum.count(f.rg));
  EXPECT_TRUE(museum.count(f.disneyland));
  EXPECT_TRUE(CandidateNodes(r, f.q_tourists).count(f.ht));
  EXPECT_TRUE(CandidateNodes(r, f.q_moonlight).count(f.hc));
}

TEST(FilteringTest, CandidateSimilaritiesExact) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  for (const Candidate& c : r.candidates[f.q_museum]) {
    if (c.node == f.rg) {
      EXPECT_DOUBLE_EQ(c.sim, 0.9);
    }
    if (c.node == f.disneyland) {
      EXPECT_DOUBLE_EQ(c.sim, 0.81);
    }
  }
  // Sorted descending.
  for (size_t i = 1; i < r.candidates[f.q_museum].size(); ++i) {
    EXPECT_GE(r.candidates[f.q_museum][i - 1].sim,
              r.candidates[f.q_museum][i].sim);
  }
}

TEST(FilteringTest, NoMatchDetectedForImpossibleQuery) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  // A query whose label has no similar data node: an isolated term.
  LabelDictionary* d = &f.dict;
  StringGraphBuilder qb(d);
  qb.AddNode("a", "museum");
  qb.AddNode("b", "museum");
  qb.AddEdge("a", "b", "guide");  // no museum guides a museum anywhere
  QueryOptions options;
  options.theta = 0.9;
  FilterResult r = GviewFilter(index, qb.graph(), options);
  EXPECT_TRUE(r.no_match);
}

TEST(FilteringTest, UnknownQueryLabelNoMatch) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("a", "submarine");
  QueryOptions options;
  options.theta = 0.9;
  FilterResult r = GviewFilter(index, qb.graph(), options);
  EXPECT_TRUE(r.no_match);
}

TEST(FilteringTest, SingleNodeQuery) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("a", "museum");
  QueryOptions options;
  options.theta = 0.9;
  FilterResult r = GviewFilter(index, qb.graph(), options);
  ASSERT_FALSE(r.no_match);
  EXPECT_EQ(CandidateNodes(r, 0), std::set<NodeId>{f.rg});
}

// Prop. 4.2 soundness: every identical-label match of a random query
// survives filtering (candidate sets contain the matched nodes).
TEST(FilteringTest, FilteringNeverLosesIdenticalMatches) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  // Query: culture_tours -guide-> royal_gallery (exists verbatim in G).
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("t", "culture_tours");
  qb.AddNode("m", "royal_gallery");
  qb.AddEdge("t", "m", "guide");
  QueryOptions options;
  options.theta = 1.0;
  FilterResult r = GviewFilter(index, qb.graph(), options);
  ASSERT_FALSE(r.no_match);
  EXPECT_TRUE(CandidateNodes(r, 0).count(f.ct));
  EXPECT_TRUE(CandidateNodes(r, 1).count(f.rg));
}

// Expansion must follow the query edge's label from every candidate, not
// from one stand-in per group.  x and y carry the same label and both point
// at a Q node (bx, by), but under different edge labels; the query edge
// carries y's label.  In a label-unaware concept graph x and y share a
// block, so an expansion that read only the block's representative x would
// lose by and with it the match (y, by).  Both id orders are built, so x
// and y each come first.
TEST(FilteringTest, ExpansionFollowsEveryRepresentativeEdge) {
  for (bool x_first : {true, false}) {
    LabelDictionary dict;
    OntologyGraph o;
    o.AddRelation(dict.Intern("P"), dict.Intern("thing"));
    o.AddRelation(dict.Intern("Q"), dict.Intern("thing"));
    StringGraphBuilder gb(&dict);
    gb.AddNode(x_first ? "x" : "y", "P");
    gb.AddNode(x_first ? "y" : "x", "P");
    gb.AddNode("bx", "Q");
    gb.AddNode("by", "Q");
    gb.AddNode("lone", "Q");  // a second Q block: seeding Q costs more
    gb.AddEdge("x", "bx", "l1");
    gb.AddEdge("y", "by", "l2");
    NodeId y = gb.NodeIdOf("y");
    NodeId by = gb.NodeIdOf("by");
    QueryEngine engine(gb.TakeGraph(), std::move(o), IndexOptions{});

    StringGraphBuilder qb(&dict);
    qb.AddNode("a", "P");
    qb.AddNode("b", "Q");
    qb.AddEdge("a", "b", "l2");
    QueryOptions options;
    options.theta = 1.0;
    FilterResult filter = GviewFilter(engine.index(), qb.graph(), options);
    ASSERT_FALSE(filter.no_match) << "x_first=" << x_first;
    EXPECT_TRUE(CandidateNodes(filter, 0).count(y));
    EXPECT_TRUE(CandidateNodes(filter, 1).count(by));

    QueryResult result = engine.Query(qb.graph(), options);
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.matches.size(), 1u) << "x_first=" << x_first;
    EXPECT_EQ(result.matches[0].mapping, (std::vector<NodeId>{y, by}))
        << "x_first=" << x_first;
  }
}

TEST(FilteringTest, GvMappingsConsistent) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  // G_v keeps the data graph's ids: the result points at the index's
  // graph, and gv_nodes counts the distinct candidates.
  EXPECT_EQ(r.graph, &index.data_graph());
  std::set<NodeId> gv;
  for (const std::vector<Candidate>& list : r.candidates) {
    for (const Candidate& c : list) {
      ASSERT_LT(c.node, f.g.num_nodes());
      gv.insert(c.node);
    }
  }
  EXPECT_EQ(r.stats.gv_nodes, gv.size());
}

}  // namespace
}  // namespace osq
