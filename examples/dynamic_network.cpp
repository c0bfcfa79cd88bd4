// Dynamic data graphs (paper §VI): stream edge insertions and deletions
// through a QueryEngine, which repairs its index incrementally (never
// rebuilding), and re-evaluate a standing query after each batch.  The
// paper's concept-graph repair cost (AFF) is charted by
// bench/exp_fig_incremental.

#include <cstdio>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

int main() {
  using namespace osq;

  gen::ScenarioParams params;
  params.scale = 1500;
  params.seed = 9;
  gen::Dataset ds = gen::MakeFlickrLike(params);
  std::printf("Flickr-like graph: %zu nodes, %zu edges\n",
              ds.graph.num_nodes(), ds.graph.num_edges());

  // Standing query: a 3-node pattern extracted from the initial graph.
  Rng rng(17);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.5;
  Graph query;
  while (query.empty()) {
    query = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
  }

  size_t num_nodes = ds.graph.num_nodes();
  std::vector<EdgeTriple> original_edges = ds.graph.EdgeList();

  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  std::printf("index built in %.1f ms\n\n", engine.index_build_ms());

  QueryOptions options;
  options.theta = 0.81;
  options.k = 5;

  std::printf("%-8s %10s %10s %12s %10s\n", "batch", "applied",
              "repair_ms", "matches", "best");
  for (int batch = 0; batch < 5; ++batch) {
    // Mixed update batch: random insertions plus deletions of known edges.
    std::vector<GraphUpdate> updates;
    for (int i = 0; i < 40; ++i) {
      NodeId u = static_cast<NodeId>(rng.Index(num_nodes));
      NodeId v = static_cast<NodeId>(rng.Index(num_nodes));
      if (u == v) continue;
      if (rng.Bernoulli(0.5) && !original_edges.empty()) {
        const EdgeTriple& e = original_edges[rng.Index(original_edges.size())];
        updates.push_back(GraphUpdate::Delete(e.from, e.to, e.label));
      } else {
        updates.push_back(GraphUpdate::Insert(u, v, 0));
      }
    }
    WallTimer timer;
    MaintenanceStats stats = engine.ApplyUpdates(updates);
    double repair_ms = timer.ElapsedMillis();

    QueryResult r = engine.Query(query, options);
    std::printf("%-8d %10zu %10.2f %12zu %10.2f\n", batch + 1,
                stats.applied, repair_ms, r.matches.size(),
                r.matches.empty() ? 0.0 : r.matches[0].score);
  }
  return 0;
}
