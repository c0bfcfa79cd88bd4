#include "core/explain.h"

#include <gtest/gtest.h>
#include "graph/query_graph.h"
#include "test_util.h"

namespace osq {
namespace {

TEST(ExplainTest, ReportsMatchesForTravelExample) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  QueryOptions qopts;
  qopts.theta = 0.9;
  qopts.k = 5;
  std::string report = ExplainQuery(index, f.query, qopts, f.dict);
  // Candidate labels section.
  EXPECT_NE(report.find(":museum"), std::string::npos);
  EXPECT_NE(report.find("royal_gallery"), std::string::npos);
  // Filtering section with a non-empty G_v.
  EXPECT_NE(report.find("G_v: 3 nodes"), std::string::npos);
  // The top match with the paper's score.
  EXPECT_NE(report.find("score=2.7"), std::string::npos);
  EXPECT_NE(report.find("culture_tours"), std::string::npos);
}

// The verification line reports KMatch's Consistent calls.  At theta 0.81
// every query node has two candidates and two matches exist; the anchor
// edge leaves one candidate per deeper node, so each root's subtree makes
// two checks: 2 roots + 2 * 2 = 6.
TEST(ExplainTest, ReportsCandidateChecks) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  QueryOptions qopts;
  qopts.theta = 0.81;
  qopts.k = 0;
  std::string report = ExplainQuery(index, f.query, qopts, f.dict);
  EXPECT_NE(report.find("6 candidate checks, 2 matches found"),
            std::string::npos)
      << report;
}

TEST(ExplainTest, ReportsEmptinessProof) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("a", "museum");
  qb.AddNode("b", "museum");
  qb.AddEdge("a", "b", "guide");
  QueryOptions qopts;
  qopts.theta = 0.9;
  std::string report = ExplainQuery(index, qb.graph(), qopts, f.dict);
  EXPECT_NE(report.find("no match possible"), std::string::npos);
}

TEST(ExplainTest, ListsAreCappedByMaxListed) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  QueryOptions qopts;
  qopts.theta = 0.81;
  qopts.k = 0;
  ExplainOptions eopts;
  eopts.max_listed = 1;
  std::string report = ExplainQuery(index, f.query, qopts, f.dict, eopts);
  // Two matches exist; with max_listed = 1 the tail is elided.
  EXPECT_NE(report.find("... 1 more"), std::string::npos);
}

TEST(ExplainTest, HandlesUnknownQueryLabel) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("a", "flying_saucer");
  QueryOptions qopts;
  qopts.theta = 0.9;
  std::string report = ExplainQuery(index, qb.graph(), qopts, f.dict);
  EXPECT_NE(report.find("flying_saucer"), std::string::npos);
  EXPECT_NE(report.find("no match possible"), std::string::npos);
}

// GviewFilter's precondition is a valid query graph; a disconnected query
// is reported as rejected, with no filtering or verification section.
TEST(ExplainTest, RejectsDisconnectedQueryWithoutFiltering) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("a", "tourists");
  qb.AddNode("b", "museum");
  QueryOptions qopts;
  qopts.theta = 0.9;
  std::string report = ExplainQuery(index, qb.graph(), qopts, f.dict);
  EXPECT_NE(report.find("weakly connected"), std::string::npos);
  EXPECT_EQ(report.find("filtering (Gview)"), std::string::npos);
  EXPECT_EQ(report.find("verification (KMatch)"), std::string::npos);
}

TEST(ExplainTest, MentionsSemantics) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  QueryOptions qopts;
  qopts.semantics = MatchSemantics::kHomomorphicEdges;
  std::string report = ExplainQuery(index, f.query, qopts, f.dict);
  EXPECT_NE(report.find("homomorphic"), std::string::npos);
}

}  // namespace
}  // namespace osq
