// E9 / ablation: effect of the index cardinality N = card(I) on filtering
// precision and query time.  More concept graphs mean more intersections
// in Gview (smaller candidate sets, smaller G_v) at the cost of a larger
// index and more filtering work — the trade-off §IV motivates.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/filtering.h"
#include "core/ontology_index.h"
#include "core/kmatch.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

}  // namespace

int main() {
  bench::PrintTitle("E9 / ablation: index cardinality N = card(I)");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(15000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   ", |Q|=4, theta=0.85, K=10; averages over 8 queries");
  p.seed = 47;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);

  Rng rng(53);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < 8) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }

  std::printf("%-6s %12s %12s %12s %12s %12s\n", "N", "|I|", "avg|Gv|",
              "filter_ms", "verify_ms", "total_ms");
  for (size_t n : {1, 2, 3, 4}) {
    IndexOptions idx;
    idx.num_concept_graphs = n;
    OntologyIndex index = OntologyIndex::Build(ds.graph, ds.ontology, idx);

    QueryOptions options;
    options.theta = 0.85;
    options.k = 10;
    double gv_total = 0;
    double filter_ms = 0;
    double verify_ms = 0;
    for (const Graph& q : queries) {
      WallTimer t1;
      FilterResult filter = GviewFilter(index, q, options);
      filter_ms += t1.ElapsedMillis();
      gv_total += static_cast<double>(filter.stats.gv_nodes);
      WallTimer t2;
      (void)KMatch(q, filter, options);  // timing the verify phase
      verify_ms += t2.ElapsedMillis();
    }
    std::printf("%-6zu %12zu %12.1f %12.3f %12.3f %12.3f\n", n,
                index.TotalSize(),
                gv_total / static_cast<double>(queries.size()), filter_ms,
                verify_ms, filter_ms + verify_ms);
  }
  return 0;
}
