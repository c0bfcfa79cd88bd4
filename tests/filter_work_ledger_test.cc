// Work ledger: deterministic work counts of Gview and KMatch on fixed-seed
// scenario workloads, held under ceilings, so a change that makes either
// phase do more work per query fails here even when host noise hides it in
// timing.
//
// FilterWorkLedgerTest:
// Each case builds one scenario (data seed 11; 20 queries per template, or
// 40 extracted queries on Catalog), the default index (no concept graph)
// and theta 0.9, at threads = 1, and sums FilterStats over its valid
// queries.  The 128k cases carry the ctest label `slow`.
//
// Figures when the ceilings were set ("now"), against the one-bit pair
// signature ("before"); the three-bit masks admit fewer non-matches, so
// less is expanded from and less pruned, and G_v is unchanged:
//
//   scenario     |V|   seed visits          fixpoint checks       gv_nodes
//                      before       now     before       now
//   CrossDomain   8k     11,317     9,431       3,565     2,370        585
//   CrossDomain  32k     42,523    36,807      12,756     9,057      2,083
//   CrossDomain 128k    192,286   170,303      52,286    37,345      6,126
//   Community     8k     33,889    29,333      31,070    21,692      5,305
//   Community    32k    141,316   119,362     125,980    83,706     22,141
//   Community   128k    594,929   526,013     718,969   559,902     83,404
//   Flickr        8k    352,147   351,670     370,406   368,245    166,885
//   Flickr       32k  1,121,091 1,117,346   1,045,375 1,025,461    541,993
//   Flickr      128k  5,078,891 5,074,352   4,632,381 4,607,386  2,389,641
//   Catalog       8k    458,661   458,661     164,653   161,780    178,403
//   Catalog      32k  2,021,016 2,021,016     737,916   730,149    759,327
//
//   scenario     |V|   pruned nodes          sig node rejections
//                      before       now      before       now
//   CrossDomain   8k      2,153     1,412       7,203     6,617
//   CrossDomain  32k      6,678     4,345      28,654    27,095
//   CrossDomain 128k     33,978    21,041     129,533   130,160
//   Community     8k      8,368     4,788       8,638     8,963
//   Community    32k     33,533    16,682      37,118    33,155
//   Community   128k    146,308   101,848     159,350   151,635
//   Flickr        8k     38,856    37,558      38,466    39,287
//   Flickr       32k    124,605   112,180     121,970   130,650
//   Flickr      128k    497,922   478,881     610,582   625,084
//   Catalog       8k      2,947        74      53,462    56,335
//   Catalog      32k      7,940       173     335,018   342,785
//
// Every ceiling is the "now" figure.  gv_nodes is the greatest node-level
// fixpoint, which no lossless test can move; seed visits, fixpoint checks
// and pruned nodes (candidates admitted only to be pruned again) are work
// a sharper admission test removes.
//
// sig_node_rejections is recorded but not held: a sharper test upstream
// shrinks the sets that later stages examine, so the count can fall while
// pruning gets stronger (CrossDomain 8k above), and a floor on it would
// fail an improvement.

// KMatchWorkLedgerTest runs KMatch (k = 10) over the same CrossDomain and
// Community inputs and sums KMatchStats.  Figures when the ceilings were
// set ("now"), against the KMatch that ran Consistent on every candidate
// of the next order node ("before"); neighbour-driven generation left the
// search tree, and so search_steps, unchanged:
//
//   scenario     |V|   search steps   candidate checks
//                                     before          now
//   CrossDomain   8k            734        2,407         605
//   CrossDomain  32k          2,584       93,690       2,143
//   CrossDomain 128k          7,973      719,760       6,601
//   Community     8k          8,449      900,408       8,430
//   Community    32k         35,236   16,061,432      37,775
//   Community   128k        133,900  207,903,014     140,316
//
// Both ceilings are the "now" figures.  Flickr and Catalog stay
// filter-only: their KMatch is dominated by enumerating matches tied at
// the K-th score (one Catalog 8k query alone visits 256M of them), which
// takes tens of seconds to minutes per case.

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

namespace osq {
namespace {

// One case's data and the valid queries it runs.
struct LedgerInput {
  gen::Dataset data;
  std::vector<Graph> queries;
};
using MakeInput = LedgerInput (*)(size_t scale);

// A scenario workload (data seed 11, 20 queries per template).
template <gen::Workload (*Make)(const gen::ScenarioParams&, size_t)>
LedgerInput FromWorkload(size_t scale) {
  gen::ScenarioParams params;
  params.scale = scale;
  params.seed = 11;
  gen::Workload w = Make(params, 20);
  LedgerInput in{std::move(w.data), {}};
  for (gen::QueryTemplate& t : w.templates) {
    for (Graph& q : t.queries) {
      if (ValidateQuery(q).ok()) in.queries.push_back(std::move(q));
    }
  }
  return in;
}

// Catalog (data seed 11) has no template workload: 40 four-node queries
// extracted under a fixed Rng, as bench_micro_match builds them.
LedgerInput CatalogInput(size_t scale) {
  gen::ScenarioParams params;
  params.scale = scale;
  params.seed = 11;
  LedgerInput in{gen::MakeCatalogLike(params), {}};
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

struct LedgerCase {
  std::string name;
  MakeInput make = nullptr;
  size_t scale = 0;
  size_t max_seed_visits = 0;
  size_t max_fixpoint_checks = 0;
  size_t max_gv_nodes = 0;
  size_t max_pruned_nodes = 0;
};

std::ostream& operator<<(std::ostream& os, const LedgerCase& c) {
  return os << c.name;
}

class FilterWorkLedgerTest : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(FilterWorkLedgerTest, WorkStaysUnderCeilings) {
  const LedgerCase& c = GetParam();
  LedgerInput in = c.make(c.scale);
  OntologyIndex index =
      OntologyIndex::Build(in.data.graph, in.data.ontology, IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  FilterStats sum;
  for (const Graph& q : in.queries) {
    FilterResult r = GviewFilter(index, q, options);
    EXPECT_EQ(r.stats.stopped, StopReason::kNone);
    sum.seed_visits += r.stats.seed_visits;
    sum.fixpoint_checks += r.stats.fixpoint_checks;
    sum.gv_nodes += r.stats.gv_nodes;
    sum.sig_node_rejections += r.stats.sig_node_rejections;
    sum.pruned_nodes += r.stats.pruned_nodes;
  }
  RecordProperty("pruned_nodes", std::to_string(sum.pruned_nodes));
  RecordProperty("seed_visits", std::to_string(sum.seed_visits));
  RecordProperty("sig_node_rejections",
                 std::to_string(sum.sig_node_rejections));
  RecordProperty("fixpoint_checks", std::to_string(sum.fixpoint_checks));
  RecordProperty("gv_nodes", std::to_string(sum.gv_nodes));
  EXPECT_GT(in.queries.size(), 0u);
  EXPECT_LE(sum.seed_visits, c.max_seed_visits);
  EXPECT_LE(sum.fixpoint_checks, c.max_fixpoint_checks);
  EXPECT_LE(sum.gv_nodes, c.max_gv_nodes);
  EXPECT_LE(sum.pruned_nodes, c.max_pruned_nodes);
}

std::string CaseName(const ::testing::TestParamInfo<LedgerCase>& info) {
  return info.param.name;
}

constexpr MakeInput kCrossDomain = FromWorkload<gen::MakeCrossDomainWorkload>;
constexpr MakeInput kCommunity = FromWorkload<gen::MakeCommunityWorkload>;
constexpr MakeInput kFlickr = FromWorkload<gen::MakeFlickrWorkload>;
constexpr MakeInput kCatalog = CatalogInput;

INSTANTIATE_TEST_SUITE_P(
    Ledger, FilterWorkLedgerTest,
    ::testing::Values(
        LedgerCase{"CrossDomain8k", kCrossDomain, 8000, 9431, 2370, 585,
                   1412},
        LedgerCase{"CrossDomain32k", kCrossDomain, 32000, 36807, 9057, 2083,
                   4345},
        LedgerCase{"Community8k", kCommunity, 8000, 29333, 21692, 5305,
                   4788},
        LedgerCase{"Community32k", kCommunity, 32000, 119362, 83706, 22141,
                   16682},
        LedgerCase{"Flickr8k", kFlickr, 8000, 351670, 368245, 166885,
                   37558},
        LedgerCase{"Flickr32k", kFlickr, 32000, 1117346, 1025461, 541993,
                   112180},
        LedgerCase{"Catalog8k", kCatalog, 8000, 458661, 161780, 178403, 74},
        LedgerCase{"Catalog32k", kCatalog, 32000, 2021016, 730149, 759327,
                   173}),
    CaseName);

// Discovered under the ctest label `slow` (tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(
    Slow, FilterWorkLedgerTest,
    ::testing::Values(LedgerCase{"CrossDomain128k", kCrossDomain, 128000,
                                 170303, 37345, 6126, 21041},
                      LedgerCase{"Community128k", kCommunity, 128000, 526013,
                                 559902, 83404, 101848},
                      LedgerCase{"Flickr128k", kFlickr, 128000, 5074352,
                                 4607386, 2389641, 478881}),
    CaseName);

struct KMatchLedgerCase {
  std::string name;
  MakeInput make = nullptr;
  size_t scale = 0;
  size_t max_search_steps = 0;
  size_t max_candidate_checks = 0;
};

std::ostream& operator<<(std::ostream& os, const KMatchLedgerCase& c) {
  return os << c.name;
}

class KMatchWorkLedgerTest
    : public ::testing::TestWithParam<KMatchLedgerCase> {};

TEST_P(KMatchWorkLedgerTest, WorkStaysUnderCeilings) {
  const KMatchLedgerCase& c = GetParam();
  LedgerInput in = c.make(c.scale);
  OntologyIndex index =
      OntologyIndex::Build(in.data.graph, in.data.ontology, IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  KMatchStats sum;
  for (const Graph& q : in.queries) {
    FilterResult filter = GviewFilter(index, q, options);
    KMatchStats stats;
    std::vector<Match> matches = KMatch(q, filter, options, &stats);
    EXPECT_LE(matches.size(), options.k);
    EXPECT_FALSE(stats.truncated);
    EXPECT_EQ(stats.stopped, StopReason::kNone);
    sum.search_steps += stats.search_steps;
    sum.candidate_checks += stats.candidate_checks;
  }
  RecordProperty("search_steps", std::to_string(sum.search_steps));
  RecordProperty("candidate_checks", std::to_string(sum.candidate_checks));
  EXPECT_GT(in.queries.size(), 0u);
  EXPECT_LE(sum.search_steps, c.max_search_steps);
  EXPECT_LE(sum.candidate_checks, c.max_candidate_checks);
}

std::string KMatchCaseName(
    const ::testing::TestParamInfo<KMatchLedgerCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ledger, KMatchWorkLedgerTest,
    ::testing::Values(
        KMatchLedgerCase{"CrossDomain8k", kCrossDomain, 8000, 734, 605},
        KMatchLedgerCase{"CrossDomain32k", kCrossDomain, 32000, 2584, 2143},
        KMatchLedgerCase{"Community8k", kCommunity, 8000, 8449, 8430},
        KMatchLedgerCase{"Community32k", kCommunity, 32000, 35236, 37775}),
    KMatchCaseName);

// Discovered under the ctest label `slow` (tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(
    Slow, KMatchWorkLedgerTest,
    ::testing::Values(KMatchLedgerCase{"CrossDomain128k", kCrossDomain,
                                       128000, 7973, 6601},
                      KMatchLedgerCase{"Community128k", kCommunity, 128000,
                                       133900, 140316}),
    KMatchCaseName);

}  // namespace
}  // namespace osq
