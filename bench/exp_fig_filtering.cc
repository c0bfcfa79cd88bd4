// E6 / filtering effectiveness: size of the extracted subgraph G_v
// relative to G, and the filter/verify phase breakdown, across workloads
// and thetas.  This is the mechanism behind the paper's headline "KMatch
// takes <= 22% of SubIso's time": verification runs on a G_v that is
// orders of magnitude smaller than G (cf. Prop. 4.2 and Fig. 9).

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

void RunWorkload(const char* name, gen::Dataset ds, uint64_t seed) {
  Graph g_copy = ds.graph;
  OntologyGraph o_copy = ds.ontology;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});

  Rng rng(seed);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < 8) {
    Graph q = gen::ExtractQuery(g_copy, o_copy, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }

  std::printf("\n-- %s (|V|=%zu |E|=%zu) --\n", name, g_copy.num_nodes(),
              g_copy.num_edges());
  std::printf("%-8s %12s %12s %12s %12s %12s\n", "theta", "avg|Gv|",
              "|Gv|/|G|", "filter_ms", "verify_ms", "matches");
  for (double theta : {0.95, 0.9, 0.85, 0.8}) {
    QueryOptions options;
    options.theta = theta;
    options.k = 10;
    double gv_nodes = 0;
    double filter_ms = 0;
    double verify_ms = 0;
    size_t matches = 0;
    for (const Graph& q : queries) {
      QueryResult r = engine.Query(q, options);
      gv_nodes += static_cast<double>(r.filter_stats.gv_nodes);
      filter_ms += r.filter_ms;
      verify_ms += r.verify_ms;
      matches += r.matches.size();
    }
    gv_nodes /= static_cast<double>(queries.size());
    std::printf("%-8.2f %12.1f %11.4f%% %12.3f %12.3f %12zu\n", theta,
                gv_nodes,
                100.0 * gv_nodes / static_cast<double>(g_copy.num_nodes()),
                filter_ms, verify_ms, matches);
  }
}

}  // namespace

int main() {
  bench::PrintTitle("E6: filtering effectiveness — |G_v| vs |G|, phase split");
  gen::ScenarioParams cd;
  cd.scale = bench::Scaled(20000);
  cd.seed = 23;
  RunWorkload("CrossDomain-like", gen::MakeCrossDomainLike(cd), 41);
  gen::ScenarioParams fl;
  fl.scale = bench::Scaled(20000);
  fl.seed = 29;
  RunWorkload("Flickr-like", gen::MakeFlickrLike(fl), 43);
  return 0;
}
