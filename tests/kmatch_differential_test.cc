// Differential test of KMatch's id space: KMatch searches the data graph
// through Gview's candidate lists (data-graph ids, one candidate space per
// query), and the reference searches a copy of G_v — the subgraph induced
// by the candidates' union, built with InducedSubgraph — with the
// candidates renumbered into the copy's ids and the matches mapped back.
// Q(G) = Q(G_v) (Prop. 4.2) and both paths visit the same candidates in
// the same order, so at threads = 1 they must agree on the matches and on
// every work counter; at threads = 4 on the matches.
//
// Inputs: the work ledger's 8k scenarios (data seed 11, theta 0.9), under
// both semantics, at k = 10 and k = 0.  Flickr's and Catalog's queries
// tie at the K-th score by the million, so every run carries a per-root
// step budget; a truncated search stops at the same step on both paths.
//
// A last case runs a tie-heavy query through a non-monotone id_map
// (reversed ids): matches tied at the K-th score are kept by the mapped
// ids, not the data graph's.

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "gen/workload.h"
#include "graph/query_graph.h"
#include "test_util.h"

namespace osq {
namespace {

// Per-root step budget: large enough that the CrossDomain and Community
// searches complete, small enough that the tie-heavy Flickr and Catalog
// queries stop early.
constexpr size_t kMaxSearchSteps = 2000;

struct Input {
  gen::Dataset data;
  std::vector<Graph> queries;
};

// A scenario workload (data seed 11, 20 queries per template).
template <gen::Workload (*Make)(const gen::ScenarioParams&, size_t)>
Input FromWorkload() {
  gen::ScenarioParams params;
  params.scale = 8000;
  params.seed = 11;
  gen::Workload w = Make(params, 20);
  Input in{std::move(w.data), {}};
  for (gen::QueryTemplate& t : w.templates) {
    for (Graph& q : t.queries) {
      if (ValidateQuery(q).ok()) in.queries.push_back(std::move(q));
    }
  }
  return in;
}

// Catalog: 40 extracted four-node queries, as the work ledger builds them.
Input CatalogInput() {
  gen::ScenarioParams params;
  params.scale = 8000;
  params.seed = 11;
  Input in{gen::MakeCatalogLike(params), {}};
  Rng rng(17);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  while (in.queries.size() < 40) {
    Graph q = gen::ExtractQuery(in.data.graph, in.data.ontology, qp, &rng);
    if (!q.empty() && ValidateQuery(q).ok()) in.queries.push_back(std::move(q));
  }
  return in;
}

struct DiffCase {
  std::string name;
  Input (*make)() = nullptr;
  MatchSemantics semantics = MatchSemantics::kInduced;
  size_t k = 0;
  // Whether the step budget stops some of the input's queries.
  bool truncates = false;
};

std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
  return os << c.name;
}

class KMatchDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(KMatchDifferentialTest, CandidateSpaceMatchesGvCopy) {
  const DiffCase& c = GetParam();
  Input in = c.make();
  OntologyIndex index =
      OntologyIndex::Build(in.data.graph, in.data.ontology, IndexOptions{});
  const Graph& g = index.data_graph();
  QueryOptions options;
  options.theta = 0.9;
  options.k = c.k;
  options.semantics = c.semantics;
  options.max_search_steps = kMaxSearchSteps;
  QueryOptions parallel = options;
  parallel.num_threads = 4;
  size_t searched = 0;
  size_t matched = 0;
  size_t truncated = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const Graph& q = in.queries[i];
    FilterResult filter = GviewFilter(index, q, options);
    if (filter.no_match) continue;
    ++searched;
    KMatchStats got_stats;
    KMatchStats want_stats;
    std::vector<Match> got = KMatch(q, filter, options, &got_stats);
    std::vector<Match> want =
        test::KMatchOnGvCopy(g, q, filter, options, &want_stats);
    EXPECT_EQ(got, want) << "query " << i;
    EXPECT_EQ(got_stats.search_steps, want_stats.search_steps)
        << "query " << i;
    EXPECT_EQ(got_stats.candidate_checks, want_stats.candidate_checks)
        << "query " << i;
    EXPECT_EQ(got_stats.truncated, want_stats.truncated) << "query " << i;
    EXPECT_EQ(KMatch(q, filter, parallel),
              test::KMatchOnGvCopy(g, q, filter, parallel, nullptr))
        << "query " << i;
    if (!got.empty()) ++matched;
    if (got_stats.truncated) ++truncated;
  }
  RecordProperty("searched", std::to_string(searched));
  RecordProperty("truncated", std::to_string(truncated));
  EXPECT_GT(matched, 0u);
  EXPECT_EQ(truncated > 0, c.truncates);
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return info.param.name;
}

constexpr Input (*kCrossDomain)() = FromWorkload<gen::MakeCrossDomainWorkload>;
constexpr Input (*kCommunity)() = FromWorkload<gen::MakeCommunityWorkload>;
constexpr Input (*kFlickr)() = FromWorkload<gen::MakeFlickrWorkload>;
constexpr MatchSemantics kInduced = MatchSemantics::kInduced;
constexpr MatchSemantics kHomo = MatchSemantics::kHomomorphicEdges;

INSTANTIATE_TEST_SUITE_P(
    Scenarios8k, KMatchDifferentialTest,
    ::testing::Values(
        DiffCase{"CrossDomainInducedK10", kCrossDomain, kInduced, 10},
        DiffCase{"CrossDomainInducedAll", kCrossDomain, kInduced, 0},
        DiffCase{"CrossDomainHomomorphicK10", kCrossDomain, kHomo, 10},
        DiffCase{"CrossDomainHomomorphicAll", kCrossDomain, kHomo, 0},
        DiffCase{"CommunityInducedK10", kCommunity, kInduced, 10},
        DiffCase{"CommunityInducedAll", kCommunity, kInduced, 0},
        DiffCase{"CommunityHomomorphicK10", kCommunity, kHomo, 10},
        DiffCase{"CommunityHomomorphicAll", kCommunity, kHomo, 0},
        DiffCase{"FlickrInducedK10", kFlickr, kInduced, 10, true},
        DiffCase{"FlickrInducedAll", kFlickr, kInduced, 0, true},
        DiffCase{"FlickrHomomorphicK10", kFlickr, kHomo, 10, true},
        DiffCase{"FlickrHomomorphicAll", kFlickr, kHomo, 0, true},
        DiffCase{"CatalogInducedK10", CatalogInput, kInduced, 10, true},
        DiffCase{"CatalogInducedAll", CatalogInput, kInduced, 0, true},
        DiffCase{"CatalogHomomorphicK10", CatalogInput, kHomo, 10, true},
        DiffCase{"CatalogHomomorphicAll", CatalogInput, kHomo, 0, true}),
    CaseName);

// Two hubs with two exact children (sim 1) and eight near ones (sim 0.9)
// each; the query is a hub with two children.  The top 10 are the four
// 3.0 matches and six of the 64 tied at 2.9, so the K-th score is a tie
// that the reported ids must break.
TEST(KMatchIdMapTest, TiesAtTheKthScoreBreakOnMappedIds) {
  constexpr LabelId kHub = 1, kItem = 2, kNearItem = 3, kEdge = 10;
  Graph g;
  for (NodeId hub = 0; hub < 2; ++hub) g.AddNode(kHub);
  for (NodeId hub = 0; hub < 2; ++hub) {
    for (int i = 0; i < 10; ++i) {
      NodeId v = g.AddNode(i < 2 ? kItem : kNearItem);
      g.AddEdge(hub, v, kEdge);
    }
  }
  OntologyGraph o;
  o.AddLabel(kHub);
  o.AddRelation(kItem, kNearItem);
  OntologyIndex index = OntologyIndex::Build(g, o, IndexOptions{});
  Graph q;
  q.AddNode(kHub);
  q.AddNode(kItem);
  q.AddNode(kItem);
  q.AddEdge(0, 1, kEdge);
  q.AddEdge(0, 2, kEdge);

  // Reported ids reverse the data graph's.
  std::vector<NodeId> reversed(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    reversed[v] = static_cast<NodeId>(g.num_nodes() - 1 - v);
  }
  auto map_all = [&](std::vector<Match> matches) {
    for (Match& m : matches) {
      for (NodeId& v : m.mapping) v = reversed[v];
    }
    std::sort(matches.begin(), matches.end(), MatchBetter());
    return matches;
  };

  QueryOptions options;
  options.theta = 0.85;
  options.k = 0;
  FilterResult filter = GviewFilter(index, q, options);
  ASSERT_FALSE(filter.no_match);
  // Reference: every match on the G_v copy, reported through the map,
  // ordered by MatchBetter and cut at K.
  std::vector<Match> every =
      test::KMatchOnGvCopy(index.data_graph(), q, filter, options, nullptr);
  // Two hubs, each with 10 x 9 ordered pairs of distinct children.
  ASSERT_EQ(every.size(), 2u * 10u * 9u);
  std::vector<Match> want = map_all(every);
  want.resize(10);
  EXPECT_DOUBLE_EQ(want.back().score, 2.9);

  options.k = 10;
  // Cutting at K in data-graph order first keeps other tied matches.
  std::vector<Match> unmapped_top = map_all(KMatch(q, filter, options));
  EXPECT_NE(unmapped_top, want);
  for (size_t threads : {1u, 4u}) {
    options.num_threads = threads;
    EXPECT_EQ(KMatch(q, filter, options, nullptr, nullptr, &reversed), want)
        << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace osq
