// End-to-end scenarios from the paper, exercised through the public API:
// the running travel example (Examples I.1, I.2, II.2, IV.3), the color
// concept-graph example (IV.1/IV.2) driven through the full engine, and
// the dynamic-update example (VI.1).

#include <set>
#include <utility>

#include <gtest/gtest.h>
#include "baseline/rewriting.h"
#include "baseline/simmatrix.h"
#include "baseline/subiso.h"
#include "core/query_engine.h"
#include "gen/scenarios.h"
#include "gen/query_gen.h"
#include "test_util.h"

namespace osq {
namespace {

// Example I.1: identical-label matching finds nothing, ontology-based
// querying finds the intended interpretation.
TEST(IntegrationTest, OntologyQueryingBeatsIdenticalMatching) {
  test::TravelFixture f = test::MakeTravelFixture();
  EXPECT_TRUE(SubIso(f.query, f.g, MatchSemantics::kInduced).empty());

  Graph query = f.query;
  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  QueryResult r = engine.Query(query, options);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_DOUBLE_EQ(r.matches[0].score, 2.7);  // Example II.2
}

// All three ontology-aware algorithms agree on the travel example.
TEST(IntegrationTest, AllAlgorithmsAgreeOnTravelExample) {
  test::TravelFixture f = test::MakeTravelFixture();
  SimilarityFunction sim(0.9);
  QueryOptions options;
  options.theta = 0.81;
  options.k = 0;

  std::vector<Match> rewrite =
      SubIsoRewrite(f.query, f.g, f.o, sim, options);
  SimMatrix m = BuildSimMatrix(f.query, f.g, f.o, sim, options.theta);
  std::vector<Match> vf2 = SimMatrixMatch(f.query, f.g, m, options);

  Graph query = f.query;
  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});
  std::vector<Match> kmatch = engine.Query(query, options).matches;

  ASSERT_EQ(kmatch.size(), 2u);
  ASSERT_EQ(rewrite.size(), 2u);
  ASSERT_EQ(vf2.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(kmatch[i].mapping, rewrite[i].mapping);
    EXPECT_EQ(kmatch[i].mapping, vf2[i].mapping);
    EXPECT_DOUBLE_EQ(kmatch[i].score, rewrite[i].score);
    EXPECT_DOUBLE_EQ(kmatch[i].score, vf2[i].score);
  }
}

// Example VI.1-style dynamics through the engine facade: updates keep the
// index valid and immediately affect query results.
TEST(IntegrationTest, DynamicGraphScenario) {
  test::ColorFixture f = test::MakeColorFixture();
  LabelId sim_rel = f.dict.Lookup("sim");
  NodeId rose = f.rose;
  NodeId violet = f.violet;
  NodeId olive = f.olive;

  // Query: a red-ish node pointing at a blue-ish node.
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("r", "red");
  qb.AddNode("b", "blue");
  qb.AddEdge("r", "b", "sim");
  Graph query = qb.TakeGraph();

  QueryEngine engine(std::move(f.g), std::move(f.o), IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  options.k = 0;
  // rose->blue, pink->sky, flame->violet all match (sim 0.9 + 0.9).
  EXPECT_EQ(engine.Query(query, options).matches.size(), 3u);

  // Delete rose->blue: one fewer match; index repaired incrementally.
  ASSERT_TRUE(engine.ApplyUpdate(
      GraphUpdate::Delete(rose, f.blue, sim_rel)));
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));
  EXPECT_EQ(engine.Query(query, options).matches.size(), 2u);

  // Delete olive->violet (the Example VI.1 edge): still 2 matches, blocks
  // re-coarsen.
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Delete(olive, violet, sim_rel)));
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));
  EXPECT_EQ(engine.Query(query, options).matches.size(), 2u);
}

// The engine evaluates a generated workload end-to-end without violating
// any invariants, and never returns a match below theta.
TEST(IntegrationTest, GeneratedScenarioSmoke) {
  gen::ScenarioParams p;
  p.scale = 400;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Rng rng(3);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.6;

  std::vector<Graph> queries;
  for (int i = 0; i < 10; ++i) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }
  ASSERT_FALSE(queries.empty());

  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));

  QueryOptions options;
  options.theta = 0.81;
  options.k = 10;
  for (const Graph& q : queries) {
    QueryResult r = engine.Query(q, options);
    ASSERT_TRUE(r.status.ok());
    for (const Match& m : r.matches) {
      EXPECT_GE(m.score,
                options.theta * static_cast<double>(q.num_nodes()) - 1e-9);
      // Mapping is a bijection onto distinct data nodes.
      std::set<NodeId> distinct(m.mapping.begin(), m.mapping.end());
      EXPECT_EQ(distinct.size(), q.num_nodes());
    }
    // Matches sorted best-first.
    for (size_t i = 1; i < r.matches.size(); ++i) {
      EXPECT_GE(r.matches[i - 1].score, r.matches[i].score - 1e-12);
    }
  }
}

}  // namespace
}  // namespace osq
