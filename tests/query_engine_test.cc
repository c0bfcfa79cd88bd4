#include "core/query_engine.h"

#include <cmath>
#include <memory>
#include <utility>

#include <gtest/gtest.h>
#include "test_util.h"

namespace osq {
namespace {

QueryEngine MakeTravelEngine(test::TravelFixture* f,
                             IndexOptions options = IndexOptions{}) {
  return QueryEngine(std::move(f->g), std::move(f->o), options);
}

TEST(QueryEngineTest, EndToEndTravelExample) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(&f);
  QueryOptions options;
  options.theta = 0.9;
  options.k = 5;
  QueryResult r = engine.Query(f.query, options);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_DOUBLE_EQ(r.matches[0].score, 2.7);
  EXPECT_EQ(r.matches[0].mapping[f.q_museum], f.rg);
  EXPECT_GE(r.filter_ms, 0.0);
  EXPECT_GE(r.verify_ms, 0.0);
  EXPECT_GT(r.filter_stats.gv_nodes, 0u);
}

TEST(QueryEngineTest, RejectsEmptyQuery) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(&f);
  QueryResult r = engine.Query(Graph(), QueryOptions{});
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.matches.empty());
}

// GviewFilter's precondition is theta in (0, 1]; the engine checks it.
TEST(QueryEngineTest, RejectsThetaOutsideUnitInterval) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  QueryEngine engine = MakeTravelEngine(&f);
  for (double theta : {0.0, -0.5, 1.5, std::nan("")}) {
    QueryOptions options;
    options.theta = theta;
    QueryResult r = engine.Query(query, options);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << theta;
    EXPECT_TRUE(r.matches.empty());
  }
  QueryOptions exact;
  exact.theta = 1.0;
  EXPECT_TRUE(engine.Query(query, exact).status.ok());
}

TEST(QueryEngineTest, RejectsDisconnectedQuery) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(&f);
  Graph q;
  q.AddNodes(2, f.dict.Lookup("museum"));
  QueryResult r = engine.Query(q, QueryOptions{});
  EXPECT_FALSE(r.status.ok());
}

TEST(QueryEngineTest, BuildStatsPopulated) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(&f, IndexOptions{});
  // The engine's index builds no concept graph (OntologyIndex::Build).
  EXPECT_TRUE(engine.build_stats().per_graph.empty());
  EXPECT_EQ(engine.build_stats().total_blocks, 0u);
  EXPECT_GE(engine.index_build_ms(), 0.0);
  EXPECT_EQ(engine.index().num_concept_graphs(), 0u);
  EXPECT_EQ(engine.index().candidate_index().num_nodes(),
            engine.graph().num_nodes());
}

TEST(QueryEngineTest, EngineIsMovable) {
  test::TravelFixture f = test::MakeTravelFixture();
  // Heap-allocate the source and destroy it *before* the moved-to engine is
  // used: any state left behind in the source would dangle into freed
  // memory here rather than merely point at a still-alive moved-from
  // shell.
  auto engine = std::make_unique<QueryEngine>(MakeTravelEngine(&f));
  QueryEngine moved = std::move(*engine);
  engine.reset();

  // The engine's graphs are the ones its index owns.
  EXPECT_EQ(&moved.index().data_graph(), &moved.graph());
  EXPECT_EQ(&moved.index().ontology(), &moved.ontology());

  QueryOptions options;
  options.theta = 0.9;
  QueryResult r = moved.Query(f.query, options);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.matches.size(), 1u);
}

// Regression: move-*assignment* destroys the target's old graphs and
// adopts the source's.  The engine must serve the graphs that moved in —
// and the maintenance path (which mutates graph and index together) must
// keep working afterwards.
TEST(QueryEngineTest, MoveAssignedEngineQueriesAndUpdates) {
  test::TravelFixture f1 = test::MakeTravelFixture();
  Graph query = f1.query;
  NodeId ct = f1.ct, hp = f1.hp, rg = f1.rg;
  LabelId fav = f1.fav, near = f1.near;
  QueryEngine source = MakeTravelEngine(&f1);

  // The target starts as a different engine whose graphs die on assign.
  test::ColorFixture f2 = test::MakeColorFixture();
  QueryEngine target(std::move(f2.g), std::move(f2.o), IndexOptions{});

  target = std::move(source);
  EXPECT_EQ(&target.index().data_graph(), &target.graph());
  EXPECT_EQ(&target.index().ontology(), &target.ontology());

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  QueryResult r = target.Query(query, options);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_DOUBLE_EQ(r.matches[0].score, 2.7);

  // Mutations go through graph AND index; a dangling pointer on either
  // side would corrupt or crash here.
  ASSERT_TRUE(target.ApplyUpdate(GraphUpdate::Insert(ct, hp, fav)));
  ASSERT_TRUE(target.ApplyUpdate(GraphUpdate::Insert(hp, rg, near)));
  EXPECT_EQ(target.Query(query, options).matches.size(), 2u);
  EXPECT_TRUE(test::IndexMatchesRebuild(target));
  EXPECT_EQ(target.version(), 2u);
}

TEST(QueryEngineTest, VersionCountsMutatingBatches) {
  test::TravelFixture f = test::MakeTravelFixture();
  NodeId ct = f.ct, rg = f.rg, hp = f.hp;
  LabelId guide = f.guide, near = f.near;
  QueryEngine engine = MakeTravelEngine(&f);
  EXPECT_EQ(engine.version(), 0u);

  // No-op: duplicate edge, version unchanged.
  EXPECT_FALSE(engine.ApplyUpdate(GraphUpdate::Insert(ct, rg, guide)));
  EXPECT_EQ(engine.version(), 0u);

  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Insert(hp, rg, near)));
  EXPECT_EQ(engine.version(), 1u);

  // A batch counts once regardless of its size.
  MaintenanceStats stats = engine.ApplyUpdates(
      {GraphUpdate::Delete(hp, rg, near),
       GraphUpdate::Insert(ct, hp, near)});
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(engine.version(), 2u);

  // An all-skipped batch does not count.
  engine.ApplyUpdates({GraphUpdate::Insert(ct, hp, near)});
  EXPECT_EQ(engine.version(), 2u);

  engine.AddNode(guide);
  EXPECT_EQ(engine.version(), 3u);
}

TEST(QueryEngineTest, DynamicUpdateChangesResults) {
  test::TravelFixture f = test::MakeTravelFixture();
  NodeId hp = f.hp;
  NodeId rg = f.rg;
  NodeId ct = f.ct;
  LabelId fav = f.fav;
  LabelId near = f.near;
  Graph query = f.query;  // keep a copy before moving the fixture graphs
  QueryEngine engine = MakeTravelEngine(&f);

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  ASSERT_EQ(engine.Query(query, options).matches.size(), 1u);

  // New intelligence: CT also favors Holiday Plaza, which is near RG.
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Insert(ct, hp, fav)));
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Insert(hp, rg, near)));
  QueryResult r = engine.Query(query, options);
  ASSERT_EQ(r.matches.size(), 2u);
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));

  // Retract one edge: back to a single match.
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Delete(hp, rg, near)));
  EXPECT_EQ(engine.Query(query, options).matches.size(), 1u);
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));
}

TEST(QueryEngineTest, AddNodeThenConnect) {
  test::TravelFixture f = test::MakeTravelFixture();
  NodeId ct = f.ct;
  NodeId rg = f.rg;
  LabelId fav = f.fav;
  LabelId near = f.near;
  LabelId starlight_label = f.dict.Lookup("starlight");
  Graph query = f.query;
  QueryEngine engine = MakeTravelEngine(&f);

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;

  // A second starlight-branded restaurant opens near RG and CT favors it.
  NodeId v = engine.AddNode(starlight_label);
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Insert(ct, v, fav)));
  ASSERT_TRUE(engine.ApplyUpdate(GraphUpdate::Insert(v, rg, near)));
  QueryResult r = engine.Query(query, options);
  EXPECT_EQ(r.matches.size(), 2u);
  EXPECT_TRUE(test::IndexMatchesRebuild(engine));
}

TEST(QueryEngineTest, ThetaSweepMonotoneMatchCounts) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  QueryEngine engine = MakeTravelEngine(&f);
  size_t prev = 0;
  for (double theta : {1.0, 0.9, 0.81, 0.7}) {
    QueryOptions options;
    options.theta = theta;
    options.k = 0;
    size_t n = engine.Query(query, options).matches.size();
    EXPECT_GE(n, prev) << theta;
    prev = n;
  }
}


TEST(QueryEngineTest, QueryPatternConvenience) {
  test::TravelFixture f = test::MakeTravelFixture();
  LabelDictionary dict = f.dict;  // engine does not own the dictionary
  QueryEngine engine = MakeTravelEngine(&f);
  QueryOptions options;
  options.theta = 0.9;
  QueryResult r = engine.QueryPattern(
      "(t:tourists)-[guide]->(m:museum), (t)-[fav]->(r:moonlight), "
      "(r)-[near]->(m)",
      &dict, options);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_DOUBLE_EQ(r.matches[0].score, 2.7);
}

TEST(QueryEngineTest, QueryPatternParseErrorSurfaces) {
  test::TravelFixture f = test::MakeTravelFixture();
  LabelDictionary dict = f.dict;
  QueryEngine engine = MakeTravelEngine(&f);
  QueryResult r = engine.QueryPattern("(((broken", &dict, QueryOptions{});
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.matches.empty());
}

TEST(QueryEngineTest, QueryPatternDisconnectedRejected) {
  test::TravelFixture f = test::MakeTravelFixture();
  LabelDictionary dict = f.dict;
  QueryEngine engine = MakeTravelEngine(&f);
  QueryResult r = engine.QueryPattern("(a:museum), (b:tourists)", &dict,
                                      QueryOptions{});
  EXPECT_FALSE(r.status.ok());
}

}  // namespace
}  // namespace osq
