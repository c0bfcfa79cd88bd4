#include "core/filtering.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "baseline/subiso.h"
#include "core/query_engine.h"
#include "test_util.h"

namespace osq {
namespace {

OntologyIndex BuildTravelIndex(const test::TravelFixture& f,
                               size_t num_graphs = 2) {
  IndexOptions options;
  options.beta = 0.81;
  options.num_concept_graphs = num_graphs;
  return OntologyIndex::Build(f.g, f.o, options);
}

std::set<NodeId> CandidateOriginals(const FilterResult& r, NodeId q) {
  std::set<NodeId> out;
  for (const Candidate& c : r.candidates[q]) {
    out.insert(r.gv.to_original[c.node]);
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
  EXPECT_EQ(CandidateOriginals(r, f.q_museum), std::set<NodeId>{f.rg});
  EXPECT_EQ(CandidateOriginals(r, f.q_tourists), std::set<NodeId>{f.ct});
  EXPECT_EQ(CandidateOriginals(r, f.q_moonlight),
            std::set<NodeId>{f.starlight});
  // G_v is the induced subgraph over {RG, CT, starlight} (Fig. 9).
  EXPECT_EQ(r.stats.gv_nodes, 3u);
  EXPECT_EQ(r.stats.gv_edges, 3u);
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
  std::set<NodeId> museum = CandidateOriginals(r, f.q_museum);
  EXPECT_TRUE(museum.count(f.rg));
  EXPECT_TRUE(museum.count(f.disneyland));
  EXPECT_TRUE(CandidateOriginals(r, f.q_tourists).count(f.ht));
  EXPECT_TRUE(CandidateOriginals(r, f.q_moonlight).count(f.hc));
}

TEST(FilteringTest, CandidateSimilaritiesExact) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  for (const Candidate& c : r.candidates[f.q_museum]) {
    NodeId orig = r.gv.to_original[c.node];
    if (orig == f.rg) {
      EXPECT_DOUBLE_EQ(c.sim, 0.9);
    }
    if (orig == f.disneyland) {
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
  EXPECT_EQ(CandidateOriginals(r, 0), std::set<NodeId>{f.rg});
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
  EXPECT_TRUE(CandidateOriginals(r, 0).count(f.ct));
  EXPECT_TRUE(CandidateOriginals(r, 1).count(f.rg));
}

TEST(FilteringTest, LazyAndExactCandidatesAgreeOnGv) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  // Without the signature index: it replaces both seeding strategies.
  QueryOptions lazy;
  lazy.theta = 0.81;
  lazy.use_candidate_index = false;
  lazy.lazy_candidates = true;
  QueryOptions exact = lazy;
  exact.lazy_candidates = false;
  FilterResult rl = GviewFilter(index, f.query, lazy);
  FilterResult re = GviewFilter(index, f.query, exact);
  ASSERT_FALSE(rl.no_match);
  ASSERT_FALSE(re.no_match);
  for (NodeId q = 0; q < f.query.num_nodes(); ++q) {
    EXPECT_EQ(CandidateOriginals(rl, q), CandidateOriginals(re, q)) << q;
  }
}

TEST(FilteringTest, MoreConceptGraphsNeverEnlargeCandidates) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex one = BuildTravelIndex(f, 1);
  OntologyIndex four = BuildTravelIndex(f, 4);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r1 = GviewFilter(one, f.query, options);
  FilterResult r4 = GviewFilter(four, f.query, options);
  ASSERT_FALSE(r1.no_match);
  ASSERT_FALSE(r4.no_match);
  for (NodeId q = 0; q < f.query.num_nodes(); ++q) {
    std::set<NodeId> c1 = CandidateOriginals(r1, q);
    std::set<NodeId> c4 = CandidateOriginals(r4, q);
    EXPECT_TRUE(std::includes(c1.begin(), c1.end(), c4.begin(), c4.end()));
  }
}

// Seed expansion on a label-UNAWARE index must follow every edge of a
// block's representative.  x and y share a block (same label, both point
// into block B = {bx, by}) but under different edge labels; the query edge
// carries y's label.  When x is the representative, its only edge into B
// has the other label, so an expansion that filtered the representative's
// edges by the query edge label would lose B and with it the match
// (y, by).  Both id orders are built, so x and y each get to be the
// representative.
TEST(FilteringTest, ExpansionFollowsEveryRepresentativeEdge) {
  bool x_was_representative = false;
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
    NodeId x = gb.NodeIdOf("x");
    NodeId y = gb.NodeIdOf("y");
    NodeId bx = gb.NodeIdOf("bx");
    NodeId by = gb.NodeIdOf("by");
    IndexOptions index_options;
    index_options.num_concept_graphs = 1;
    QueryEngine engine(gb.TakeGraph(), std::move(o), index_options);
    const ConceptGraph& cg = engine.index().concept_graph(0);
    ASSERT_EQ(cg.BlockOf(x), cg.BlockOf(y));
    ASSERT_EQ(cg.BlockOf(bx), cg.BlockOf(by));
    x_was_representative |= cg.Members(cg.BlockOf(x))[0] == x;

    StringGraphBuilder qb(&dict);
    qb.AddNode("a", "P");
    qb.AddNode("b", "Q");
    qb.AddEdge("a", "b", "l2");
    QueryOptions options;
    options.theta = 1.0;
    FilterResult filter = GviewFilter(engine.index(), qb.graph(), options);
    ASSERT_FALSE(filter.no_match) << "x_first=" << x_first;
    EXPECT_TRUE(CandidateOriginals(filter, 0).count(y));
    EXPECT_TRUE(CandidateOriginals(filter, 1).count(by));

    QueryResult with_index = engine.Query(qb.graph(), options);
    options.use_candidate_index = false;
    QueryResult without_index = engine.Query(qb.graph(), options);
    ASSERT_TRUE(with_index.status.ok());
    ASSERT_EQ(without_index.matches.size(), 1u);
    EXPECT_EQ(without_index.matches[0].mapping, (std::vector<NodeId>{y, by}));
    EXPECT_EQ(with_index.matches, without_index.matches)
        << "x_first=" << x_first;
  }
  EXPECT_TRUE(x_was_representative);
}

TEST(FilteringTest, GvMappingsConsistent) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  FilterResult r = GviewFilter(index, f.query, options);
  ASSERT_FALSE(r.no_match);
  for (NodeId v = 0; v < r.gv.graph.num_nodes(); ++v) {
    NodeId orig = r.gv.to_original[v];
    EXPECT_EQ(r.gv.LocalId(orig), v);
    EXPECT_EQ(r.gv.graph.NodeLabel(v), f.g.NodeLabel(orig));
  }
}

}  // namespace
}  // namespace osq
