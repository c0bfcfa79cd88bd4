#include "core/diversify.h"

#include <gtest/gtest.h>
#include "core/ontology_index.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "test_util.h"

namespace osq {
namespace {

Match MakeMatch(std::vector<NodeId> mapping, double score) {
  Match m;
  m.mapping = std::move(mapping);
  m.score = score;
  return m;
}

TEST(DiversifyTest, LambdaZeroIsTopKPrefix) {
  std::vector<Match> ranked = {
      MakeMatch({0, 1}, 2.0),
      MakeMatch({0, 2}, 1.9),
      MakeMatch({3, 4}, 1.8),
  };
  std::vector<Match> picked = DiversifyMatches(ranked, 2, 0.0);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], ranked[0]);
  EXPECT_EQ(picked[1], ranked[1]);
}

TEST(DiversifyTest, HighLambdaPrefersCoverage) {
  // Second-ranked match overlaps the first entirely; the third is
  // disjoint.  With strong diversification the disjoint one wins slot 2.
  std::vector<Match> ranked = {
      MakeMatch({0, 1}, 2.0),
      MakeMatch({0, 1}, 1.99),
      MakeMatch({3, 4}, 1.5),
  };
  std::vector<Match> picked = DiversifyMatches(ranked, 2, 0.9);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], ranked[0]);
  EXPECT_EQ(picked[1], ranked[2]);
}

TEST(DiversifyTest, FirstPickIsAlwaysTheBest) {
  std::vector<Match> ranked = {
      MakeMatch({0, 1}, 2.0),
      MakeMatch({2, 3}, 1.0),
  };
  for (double lambda : {0.0, 0.3, 0.7, 1.0}) {
    std::vector<Match> picked = DiversifyMatches(ranked, 1, lambda);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], ranked[0]) << lambda;
  }
}

TEST(DiversifyTest, KLargerThanInput) {
  std::vector<Match> ranked = {MakeMatch({0}, 1.0)};
  EXPECT_EQ(DiversifyMatches(ranked, 10, 0.5).size(), 1u);
}

TEST(DiversifyTest, EmptyInput) {
  EXPECT_TRUE(DiversifyMatches({}, 3, 0.5).empty());
  EXPECT_TRUE(DiversifyMatches({MakeMatch({0}, 1.0)}, 0, 0.5).empty());
}

TEST(DiversifyTest, LambdaClamped) {
  std::vector<Match> ranked = {
      MakeMatch({0, 1}, 2.0),
      MakeMatch({0, 1}, 1.99),
      MakeMatch({3, 4}, 1.5),
  };
  // lambda > 1 behaves like 1 (pure coverage).
  std::vector<Match> picked = DiversifyMatches(ranked, 2, 5.0);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[1], ranked[2]);
}

TEST(DiversifyTest, DiversityMetric) {
  EXPECT_DOUBLE_EQ(MatchDiversity({}), 0.0);
  std::vector<Match> disjoint = {MakeMatch({0, 1}, 1), MakeMatch({2, 3}, 1)};
  EXPECT_DOUBLE_EQ(MatchDiversity(disjoint), 1.0);
  std::vector<Match> overlapping = {MakeMatch({0, 1}, 1),
                                    MakeMatch({0, 1}, 1)};
  EXPECT_DOUBLE_EQ(MatchDiversity(overlapping), 0.5);
}

TEST(DiversifyTest, ImprovesDiversityOnTravelFixture) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  QueryOptions qopts;
  qopts.theta = 0.81;
  qopts.k = 0;
  FilterResult filter = GviewFilter(index, f.query, qopts);
  std::vector<Match> all = KMatch(f.query, filter, qopts);
  ASSERT_EQ(all.size(), 2u);  // already disjoint here
  std::vector<Match> picked = DiversifyMatches(all, 2, 0.5);
  EXPECT_GE(MatchDiversity(picked), MatchDiversity(all) - 1e-12);
}

}  // namespace
}  // namespace osq
