// Knowledge-graph search over a CrossDomain-like heterogeneous dataset:
// generates the synthetic RDF-style graph, extracts generalized query
// patterns, and contrasts identical-label matching (SubIso) with
// ontology-based top-K querying — the Table I effectiveness story at
// example scale.

#include <cstdio>
#include <utility>

#include "baseline/subiso.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

int main() {
  using namespace osq;

  gen::ScenarioParams params;
  params.scale = 3000;
  params.seed = 2024;
  gen::Dataset ds = gen::MakeCrossDomainLike(params);
  std::printf("CrossDomain-like graph: %zu nodes, %zu edges; ontology: %zu "
              "concepts, %zu relations\n",
              ds.graph.num_nodes(), ds.graph.num_edges(),
              ds.ontology.num_labels(), ds.ontology.num_relations());

  // Extract a handful of generalized patterns before handing the graphs to
  // the engine.
  Rng rng(7);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.7;
  qp.generalize_hops = 1;
  std::vector<Graph> queries;
  while (queries.size() < 5) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }

  Graph g_copy = ds.graph;  // SubIso runs against the original graph
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  std::printf("index built in %.1f ms\n\n", engine.index_build_ms());

  std::printf("%-6s %10s %14s %10s %12s\n", "query", "SubIso", "OSQ(0.9)",
              "best", "Gv nodes");
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t iso = SubIso(queries[i], g_copy, MatchSemantics::kInduced).size();
    QueryOptions options;
    options.theta = 0.9;
    options.k = 10;
    QueryResult r = engine.Query(queries[i], options);
    std::printf("Q%-5zu %10zu %14zu %10.2f %12zu\n", i + 1, iso,
                r.matches.size(),
                r.matches.empty() ? 0.0 : r.matches[0].score,
                r.filter_stats.gv_nodes);
  }
  std::printf("\nOSQ finds semantically close matches the identical-label "
              "baseline misses.\n");
  return 0;
}
