// Gview work ledger: deterministic work counts of the filter on fixed-seed
// scenario workloads, held under ceilings, so a change that makes Gview do
// more work per query fails here even when host noise hides it in timing.
//
// Each case builds one scenario (data seed 11; 20 queries per template, or
// 40 extracted queries on Catalog), the default index (no concept graph)
// and theta 0.9, at threads = 1, and sums FilterStats over its valid
// queries.  The 128k cases carry the ctest label `slow`.
//
// Figures when the ceilings were set ("now"), against the Gview that built
// both concept graphs and ran a block stage on each before the node level
// ("before").  fixpoint_checks counts support tests at both levels (the
// node level once counted the adjacency entries it scanned; the "before"
// column recounts the old code as tests):
//
//   scenario     |V|   seed visits          fixpoint checks       gv_nodes
//                      before       now     before       now
//   CrossDomain   8k     21,944    11,317      10,429     3,565        585
//   CrossDomain  32k     82,816    42,523      39,494    12,756      2,083
//   CrossDomain 128k    380,481   192,286     144,421    52,286      6,126
//   Community     8k     67,778    33,889     103,002    31,070      5,305
//   Community    32k    282,632   141,316     415,944   125,980     22,141
//   Community   128k  1,189,766   594,929   2,202,234   718,969     83,404
//   Flickr        8k    702,994   352,147   1,918,126   370,406    166,885
//   Flickr       32k  2,238,922 1,121,091   5,999,573 1,045,375    541,993
//   Flickr      128k 10,142,896 5,078,891  26,256,818 4,632,381  2,389,641
//   Catalog       8k      1,711   458,661     552,632   164,653    178,403
//   Catalog      32k      1,775 2,021,016   2,230,823   737,916    759,327
//
// Catalog's "before" seed visits leave out the exact-theta pass over the
// intersected block members, which went uncounted; the node level now
// seeds from the label lists and counts every node it examines.
//
// Seed-visit ceilings sit ~2% above the recorded counts.  The gv_nodes and
// fixpoint-check ceilings are the figures themselves: G_v is the greatest
// node-level fixpoint, the same one the block stages led to.

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filtering.h"
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
  }
  RecordProperty("seed_visits", std::to_string(sum.seed_visits));
  RecordProperty("fixpoint_checks", std::to_string(sum.fixpoint_checks));
  RecordProperty("gv_nodes", std::to_string(sum.gv_nodes));
  EXPECT_GT(in.queries.size(), 0u);
  EXPECT_LE(sum.seed_visits, c.max_seed_visits);
  EXPECT_LE(sum.fixpoint_checks, c.max_fixpoint_checks);
  EXPECT_LE(sum.gv_nodes, c.max_gv_nodes);
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
        LedgerCase{"CrossDomain8k", kCrossDomain, 8000, 11550, 3565, 585},
        LedgerCase{"CrossDomain32k", kCrossDomain, 32000, 43400, 12756,
                   2083},
        LedgerCase{"Community8k", kCommunity, 8000, 34600, 31070, 5305},
        LedgerCase{"Community32k", kCommunity, 32000, 144200, 125980,
                   22141},
        LedgerCase{"Flickr8k", kFlickr, 8000, 359200, 370406, 166885},
        LedgerCase{"Flickr32k", kFlickr, 32000, 1143600, 1045375, 541993},
        LedgerCase{"Catalog8k", kCatalog, 8000, 467800, 164653, 178403},
        LedgerCase{"Catalog32k", kCatalog, 32000, 2061400, 737916,
                   759327}),
    CaseName);

// Discovered under the ctest label `slow` (tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(
    Slow, FilterWorkLedgerTest,
    ::testing::Values(LedgerCase{"CrossDomain128k", kCrossDomain, 128000,
                                 196200, 52286, 6126},
                      LedgerCase{"Community128k", kCommunity, 128000, 606900,
                                 718969, 83404},
                      LedgerCase{"Flickr128k", kFlickr, 128000, 5180500,
                                 4632381, 2389641}),
    CaseName);

}  // namespace
}  // namespace osq
