#include "core/kmatch.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "baseline/subiso.h"
#include "core/ontology_index.h"
#include "test_util.h"

namespace osq {
namespace {

// Exact-label candidate lists: every target node carrying u's label, at
// similarity 1 — the matches SubIso enumerates.
std::vector<std::vector<Candidate>> ExactLabelCandidates(const Graph& query,
                                                         const Graph& target) {
  std::vector<std::vector<Candidate>> cands(query.num_nodes());
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    for (NodeId v = 0; v < target.num_nodes(); ++v) {
      if (target.NodeLabel(v) == query.NodeLabel(u)) {
        cands[u].push_back({v, 1.0});
      }
    }
  }
  return cands;
}

std::vector<std::vector<NodeId>> SortedMappings(
    const std::vector<Match>& matches) {
  std::vector<std::vector<NodeId>> out;
  for (const Match& m : matches) out.push_back(m.mapping);
  std::sort(out.begin(), out.end());
  return out;
}

// KMatch's full enumeration over exact-label candidates must list the same
// mappings as SubIso, each once.
void ExpectSameAsSubIso(const Graph& query, const Graph& target,
                        MatchSemantics semantics) {
  QueryOptions options;
  options.k = 0;
  options.semantics = semantics;
  std::vector<Match> got = KMatchOnGraph(
      query, target, ExactLabelCandidates(query, target), options);
  EXPECT_EQ(SortedMappings(got),
            SortedMappings(SubIso(query, target, semantics)));
}

OntologyIndex BuildTravelIndex(const test::TravelFixture& f) {
  IndexOptions options;
  options.beta = 0.81;
  options.num_concept_graphs = 2;
  return OntologyIndex::Build(f.g, f.o, options);
}

// Paper Example II.2: the best match maps museum->RG, tourists->CT,
// moonlight->starlight with score 0.9 * 3 = 2.7.
TEST(KMatchTest, TravelExampleTopMatch) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  FilterResult filter = GviewFilter(index, f.query, options);
  KMatchStats stats;
  std::vector<Match> matches = KMatch(f.query, filter, options, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].score, 2.7);
  EXPECT_EQ(matches[0].mapping[f.q_museum], f.rg);
  EXPECT_EQ(matches[0].mapping[f.q_tourists], f.ct);
  EXPECT_EQ(matches[0].mapping[f.q_moonlight], f.starlight);
  EXPECT_EQ(stats.matches_found, 1u);
}

TEST(KMatchTest, LowerThetaFindsSecondMatchRankedLower) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  options.k = 10;
  FilterResult filter = GviewFilter(index, f.query, options);
  std::vector<Match> matches = KMatch(f.query, filter, options);
  ASSERT_EQ(matches.size(), 2u);
  // G' (score 2.7) beats G'' = {Disneyland, HT, HC} (score 2.61).
  EXPECT_DOUBLE_EQ(matches[0].score, 2.7);
  EXPECT_NEAR(matches[1].score, 2.61, 1e-12);
  EXPECT_EQ(matches[1].mapping[f.q_museum], f.disneyland);
  EXPECT_EQ(matches[1].mapping[f.q_tourists], f.ht);
  EXPECT_EQ(matches[1].mapping[f.q_moonlight], f.hc);
}

TEST(KMatchTest, KLimitsResults) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  options.k = 1;
  FilterResult filter = GviewFilter(index, f.query, options);
  std::vector<Match> matches = KMatch(f.query, filter, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].score, 2.7);
}

TEST(KMatchTest, KZeroReturnsAll) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  options.k = 0;
  FilterResult filter = GviewFilter(index, f.query, options);
  EXPECT_EQ(KMatch(f.query, filter, options).size(), 2u);
}

TEST(KMatchTest, NoMatchFilterYieldsEmpty) {
  FilterResult filter;
  filter.no_match = true;
  Graph q;
  q.AddNode(0);
  EXPECT_TRUE(KMatch(q, filter, QueryOptions{}).empty());
}

TEST(KMatchTest, ThetaOneIsExactIsomorphism) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  // Query with exact labels of the CT triangle.
  StringGraphBuilder qb(&f.dict);
  qb.AddNode("t", "culture_tours");
  qb.AddNode("m", "royal_gallery");
  qb.AddNode("s", "starlight");
  qb.AddEdge("t", "m", "guide");
  qb.AddEdge("t", "s", "fav");
  qb.AddEdge("s", "m", "near");
  QueryOptions options;
  options.theta = 1.0;
  options.k = 10;
  FilterResult filter = GviewFilter(index, qb.graph(), options);
  std::vector<Match> matches = KMatch(qb.graph(), filter, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].score, 3.0);  // identical labels score |V_Q|
}

TEST(KMatchTest, InducedSemanticsRejectsExtraEdges) {
  // Target has an extra edge inside the matched node set.
  LabelDictionary dict;
  Graph target;
  LabelId a = dict.Intern("a");
  LabelId b = dict.Intern("b");
  target.AddNode(a);
  target.AddNode(b);
  target.AddEdge(0, 1, 0);
  target.AddEdge(1, 0, 0);  // extra reverse edge

  Graph query;
  query.AddNode(a);
  query.AddNode(b);
  query.AddEdge(0, 1, 0);

  std::vector<std::vector<Candidate>> cands = {{{0, 1.0}}, {{1, 1.0}}};
  QueryOptions induced;
  induced.semantics = MatchSemantics::kInduced;
  EXPECT_TRUE(KMatchOnGraph(query, target, cands, induced).empty());

  QueryOptions homomorphic;
  homomorphic.semantics = MatchSemantics::kHomomorphicEdges;
  EXPECT_EQ(KMatchOnGraph(query, target, cands, homomorphic).size(), 1u);
}

TEST(KMatchTest, EdgeLabelsMustMatch) {
  LabelDictionary dict;
  Graph target;
  target.AddNode(0);
  target.AddNode(0);
  target.AddEdge(0, 1, /*label=*/5);

  Graph query;
  query.AddNode(0);
  query.AddNode(0);
  query.AddEdge(0, 1, /*label=*/6);  // different edge label

  std::vector<std::vector<Candidate>> cands = {{{0, 1.0}, {1, 1.0}},
                                               {{0, 1.0}, {1, 1.0}}};
  EXPECT_TRUE(KMatchOnGraph(query, target, cands, QueryOptions{}).empty());
}

TEST(KMatchTest, InjectivityEnforced) {
  // Two query nodes may not map to the same data node.
  Graph target;
  target.AddNode(0);
  target.AddEdge(0, 0, 0);  // self loop

  Graph query;
  query.AddNode(0);
  query.AddNode(0);
  query.AddEdge(0, 1, 0);

  std::vector<std::vector<Candidate>> cands = {{{0, 1.0}}, {{0, 1.0}}};
  EXPECT_TRUE(KMatchOnGraph(query, target, cands, QueryOptions{}).empty());
}

TEST(KMatchTest, SelfLoopMatching) {
  Graph target;
  target.AddNode(0);
  target.AddNode(0);
  target.AddEdge(0, 0, 0);

  Graph query;
  query.AddNode(0);
  query.AddEdge(0, 0, 0);

  std::vector<std::vector<Candidate>> cands = {{{0, 1.0}, {1, 1.0}}};
  QueryOptions options;
  std::vector<Match> matches = KMatchOnGraph(query, target, cands, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].mapping[0], 0u);  // only node 0 has the loop
}

TEST(KMatchTest, ResultsSortedByScoreThenMapping) {
  // Star query with one center, several candidate leaves of varied sims.
  Graph target;
  target.AddNode(0);                    // center
  for (int i = 0; i < 3; ++i) target.AddNode(1);
  target.AddEdge(0, 1, 0);
  target.AddEdge(0, 2, 0);
  target.AddEdge(0, 3, 0);

  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 0);

  std::vector<std::vector<Candidate>> cands = {
      {{0, 1.0}},
      {{1, 0.9}, {2, 0.8}, {3, 0.7}},
  };
  QueryOptions options;
  options.k = 0;
  options.semantics = MatchSemantics::kHomomorphicEdges;
  std::vector<Match> matches = KMatchOnGraph(query, target, cands, options);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_DOUBLE_EQ(matches[0].score, 1.9);
  EXPECT_DOUBLE_EQ(matches[1].score, 1.8);
  EXPECT_DOUBLE_EQ(matches[2].score, 1.7);
}

TEST(KMatchTest, PruningDoesNotChangeTopK) {
  // With k = 1 the bound prunes aggressively; the winner must equal the
  // best of the full enumeration.
  Graph target;
  target.AddNode(0);
  for (int i = 0; i < 5; ++i) target.AddNode(1);
  for (NodeId v = 1; v <= 5; ++v) target.AddEdge(0, v, 0);

  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 0);

  std::vector<std::vector<Candidate>> cands = {
      {{0, 1.0}},
      {{1, 0.95}, {2, 0.94}, {3, 0.93}, {4, 0.92}, {5, 0.91}},
  };
  QueryOptions all;
  all.k = 0;
  all.semantics = MatchSemantics::kHomomorphicEdges;
  QueryOptions top1 = all;
  top1.k = 1;
  std::vector<Match> full = KMatchOnGraph(query, target, cands, all);
  std::vector<Match> best = KMatchOnGraph(query, target, cands, top1);
  ASSERT_FALSE(full.empty());
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0].score, full[0].score);
  EXPECT_EQ(best[0].mapping, full[0].mapping);
}

TEST(KMatchTest, MaxSearchStepsTruncates) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  QueryOptions options;
  options.theta = 0.81;
  options.k = 10;
  options.max_search_steps = 1;
  FilterResult filter = GviewFilter(index, f.query, options);
  KMatchStats stats;
  (void)KMatch(f.query, filter, options, &stats);  // only stats are under test
  EXPECT_TRUE(stats.truncated);
}

TEST(KMatchTest, EmptyCandidateListYieldsNoMatch) {
  Graph target;
  target.AddNode(0);
  Graph query;
  query.AddNode(0);
  std::vector<std::vector<Candidate>> cands = {{}};
  EXPECT_TRUE(KMatchOnGraph(query, target, cands, QueryOptions{}).empty());
}


TEST(KMatchTest, TiesAtKResolveByTotalOrderNotDiscoveryOrder) {
  // 6 interchangeable leaves with identical similarity: top-2 must return
  // exactly 2 matches, both at the optimal score, and the tie at the K-th
  // slot must resolve by the MatchBetter total order (lexicographically
  // smallest mappings), not by which branch the search happened to visit
  // first.  This order-invariance is what makes per-root results mergeable
  // bit-identically across threads and shards (DESIGN.md §13).
  Graph target;
  target.AddNode(0);
  for (int i = 0; i < 6; ++i) target.AddNode(1);
  for (NodeId v = 1; v <= 6; ++v) target.AddEdge(0, v, 0);

  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 0);

  std::vector<std::vector<Candidate>> cands = {{{0, 1.0}}, {}};
  // Descending-similarity tie broken by ascending node id is the Gview
  // ordering contract; feed the candidates reversed to prove the output
  // does not depend on list order.
  for (NodeId v = 6; v >= 1; --v) cands[1].push_back({v, 0.9});

  QueryOptions options;
  options.k = 2;
  options.semantics = MatchSemantics::kHomomorphicEdges;
  KMatchStats stats;
  std::vector<Match> top = KMatchOnGraph(query, target, cands, options, &stats);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 1.9);
  EXPECT_DOUBLE_EQ(top[1].score, 1.9);
  // All six completions tie, so exact top-K must explore every one of them
  // (ties within eps of the threshold are never pruned) ...
  EXPECT_EQ(stats.matches_found, 6u);
  // ... and keep the two smallest under the total order.
  EXPECT_EQ(top[0].mapping, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(top[1].mapping, (std::vector<NodeId>{0, 2}));

  QueryOptions all = options;
  all.k = 0;
  EXPECT_EQ(KMatchOnGraph(query, target, cands, all).size(), 6u);
}

TEST(KMatchTest, KZeroResultsSortedBestFirst) {
  Graph target;
  target.AddNode(0);
  for (int i = 0; i < 4; ++i) target.AddNode(1);
  for (NodeId v = 1; v <= 4; ++v) target.AddEdge(0, v, 0);
  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 0);
  std::vector<std::vector<Candidate>> cands = {
      {{0, 1.0}}, {{1, 0.7}, {2, 0.95}, {3, 0.8}, {4, 0.9}}};
  QueryOptions options;
  options.k = 0;
  options.semantics = MatchSemantics::kHomomorphicEdges;
  std::vector<Match> all = KMatchOnGraph(query, target, cands, options);
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
  EXPECT_DOUBLE_EQ(all[0].score, 1.95);
}

// Candidate generation walks the anchor's image in the query edge's
// direction.  Here the first order node x (one candidate) reaches y only
// through y -> x, so y's candidates come from x's image's in-edges: 1 and
// 2 qualify, 3 (joined the wrong way) and 4 (isolated) are never tried.
TEST(KMatchTest, CandidatesGeneratedAlongAnchorInEdge) {
  Graph target;
  target.AddNode(0);                                 // 0
  for (int i = 0; i < 4; ++i) target.AddNode(1);     // 1..4
  target.AddEdge(1, 0, 0);
  target.AddEdge(2, 0, 0);
  target.AddEdge(0, 3, 0);

  Graph query;
  NodeId x = query.AddNode(0);
  NodeId y = query.AddNode(1);
  query.AddEdge(y, x, 0);

  for (MatchSemantics sem :
       {MatchSemantics::kInduced, MatchSemantics::kHomomorphicEdges}) {
    QueryOptions options;
    options.k = 0;
    options.semantics = sem;
    KMatchStats stats;
    std::vector<Match> got = KMatchOnGraph(
        query, target, ExactLabelCandidates(query, target), options, &stats);
    EXPECT_EQ(SortedMappings(got),
              (std::vector<std::vector<NodeId>>{{0, 1}, {0, 2}}));
    // The root plus y's two generated candidates.
    EXPECT_EQ(stats.candidate_checks, 3u);
    ExpectSameAsSubIso(query, target, sem);
  }
}

// Query nodes joined in both directions with different labels: only data
// pairs carrying both labelled edges match (and, induced, nothing more).
TEST(KMatchTest, BothDirectionQueryEdgesMatchOnlyBothDirectionPairs) {
  Graph target;  // even ids carry label 0, odd ids label 1
  for (LabelId v = 0; v < 8; ++v) target.AddNode(v % 2);
  target.AddEdge(0, 1, 5);  // both directions, right labels
  target.AddEdge(1, 0, 6);
  target.AddEdge(2, 3, 5);  // forward only
  target.AddEdge(5, 4, 6);  // backward only
  target.AddEdge(6, 7, 5);  // both directions, plus an extra label
  target.AddEdge(7, 6, 6);
  target.AddEdge(7, 6, 8);
  target.AddEdge(6, 1, 5);  // cross pair, forward only

  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 5);
  query.AddEdge(1, 0, 6);

  QueryOptions options;
  options.k = 0;
  std::vector<std::vector<Candidate>> cands =
      ExactLabelCandidates(query, target);
  EXPECT_EQ(SortedMappings(KMatchOnGraph(query, target, cands, options)),
            (std::vector<std::vector<NodeId>>{{0, 1}}));
  options.semantics = MatchSemantics::kHomomorphicEdges;
  EXPECT_EQ(SortedMappings(KMatchOnGraph(query, target, cands, options)),
            (std::vector<std::vector<NodeId>>{{0, 1}, {6, 7}}));
  ExpectSameAsSubIso(query, target, MatchSemantics::kInduced);
  ExpectSameAsSubIso(query, target, MatchSemantics::kHomomorphicEdges);
}

// Parallel labelled edges repeat a neighbour in the anchor's adjacency;
// the generator tries that candidate once, so no match is found twice.
TEST(KMatchTest, ParallelLabelledEdgesTryCandidateOnce) {
  Graph target;
  target.AddNode(0);
  target.AddNode(1);
  target.AddNode(1);
  target.AddEdge(0, 1, 3);
  target.AddEdge(0, 1, 4);
  target.AddEdge(0, 1, 7);
  target.AddEdge(0, 2, 4);

  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  query.AddEdge(0, 1, 4);

  QueryOptions options;
  options.k = 0;
  options.semantics = MatchSemantics::kHomomorphicEdges;
  KMatchStats stats;
  std::vector<Match> got = KMatchOnGraph(
      query, target, ExactLabelCandidates(query, target), options, &stats);
  EXPECT_EQ(SortedMappings(got),
            (std::vector<std::vector<NodeId>>{{0, 1}, {0, 2}}));
  EXPECT_EQ(stats.matches_found, 2u);
  EXPECT_EQ(stats.candidate_checks, 3u);  // root, then 1 and 2 once each
  ExpectSameAsSubIso(query, target, MatchSemantics::kHomomorphicEdges);

  // Induced, the label runs must be equal: only 0 -> 2 matches {4}, and a
  // query carrying all three labels matches only 0 -> 1.
  ExpectSameAsSubIso(query, target, MatchSemantics::kInduced);
  query.AddEdge(0, 1, 3);
  query.AddEdge(0, 1, 7);
  options.semantics = MatchSemantics::kInduced;
  EXPECT_EQ(SortedMappings(KMatchOnGraph(
                query, target, ExactLabelCandidates(query, target), options)),
            (std::vector<std::vector<NodeId>>{{0, 1}}));
}

// Homomorphic semantics tolerates extra data edges among the images, so a
// generated candidate may be joined to the anchor's image by more edges
// than the query asks for; the enumeration still equals SubIso's.
TEST(KMatchTest, HomomorphicGenerationWithExtraDataEdges) {
  Graph target;
  for (int i = 0; i < 6; ++i) target.AddNode(static_cast<LabelId>(i % 3));
  // Node labels are ids mod 3.  A triangle 0 -> 1 -> 2 -> 0 with a reverse
  // edge 1 -> 0 and a second-label edge 0 -> 2, a path 3 -> 4 -> 5, and
  // cross edges 0 -> 4 and 3 -> 1.
  target.AddEdge(0, 1, 0);
  target.AddEdge(1, 2, 0);
  target.AddEdge(2, 0, 0);
  target.AddEdge(1, 0, 0);
  target.AddEdge(0, 2, 1);
  target.AddEdge(3, 4, 0);
  target.AddEdge(4, 5, 0);
  target.AddEdge(0, 4, 0);
  target.AddEdge(3, 1, 0);

  Graph query;  // path 0 -> 1 -> 2
  query.AddNode(0);
  query.AddNode(1);
  query.AddNode(2);
  query.AddEdge(0, 1, 0);
  query.AddEdge(1, 2, 0);

  QueryOptions options;
  options.k = 0;
  options.semantics = MatchSemantics::kHomomorphicEdges;
  std::vector<Match> got = KMatchOnGraph(
      query, target, ExactLabelCandidates(query, target), options);
  EXPECT_EQ(SortedMappings(got),
            (std::vector<std::vector<NodeId>>{
                {0, 1, 2}, {0, 4, 5}, {3, 1, 2}, {3, 4, 5}}));
  ExpectSameAsSubIso(query, target, MatchSemantics::kHomomorphicEdges);
  ExpectSameAsSubIso(query, target, MatchSemantics::kInduced);
}

// A star whose leaves tie in bulk, with candidate lists in an order
// unrelated to node ids (the anchor's adjacency is node-sorted, the
// generated ranks are re-sorted into list order): top-K must still be the
// first K of the full enumeration under MatchBetter.
TEST(KMatchTest, TieHeavyStarTopKMatchesFullEnumeration) {
  constexpr NodeId kLeaves = 12;
  Graph target;
  target.AddNode(0);  // hub
  for (NodeId i = 0; i < kLeaves; ++i) target.AddNode(1);
  for (NodeId v = 1; v <= kLeaves; ++v) target.AddEdge(0, v, 0);
  target.AddNode(0);  // a second hub with half the leaves
  NodeId hub2 = kLeaves + 1;
  for (NodeId v = 1; v <= kLeaves; v += 2) target.AddEdge(hub2, v, 0);

  Graph query;  // hub with three leaves
  query.AddNode(0);
  for (int i = 0; i < 3; ++i) {
    NodeId leaf = query.AddNode(1);
    query.AddEdge(0, leaf, 0);
  }

  // Leaves in three similarity tiers by id mod 3, each tier listed by
  // descending id.
  std::vector<Candidate> leaves;
  for (NodeId v = kLeaves; v >= 1; --v) {
    leaves.push_back({v, 0.7 + 0.1 * (v % 3)});
  }
  std::stable_sort(leaves.begin(), leaves.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.sim > b.sim;
                   });
  std::vector<std::vector<Candidate>> cands = {
      {{0, 1.0}, {hub2, 1.0}}, leaves, leaves, leaves};

  QueryOptions all;
  all.k = 0;
  all.semantics = MatchSemantics::kHomomorphicEdges;
  std::vector<Match> full = KMatchOnGraph(query, target, cands, all);
  ASSERT_GT(full.size(), 20u);
  for (size_t k : {1u, 5u, 7u, 20u}) {
    QueryOptions top = all;
    top.k = k;
    std::vector<Match> got = KMatchOnGraph(query, target, cands, top);
    EXPECT_EQ(got, std::vector<Match>(full.begin(), full.begin() + k))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace osq
