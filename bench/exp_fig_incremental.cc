// E8 / Exp-3 (maintenance): incremental index maintenance (incIdx) vs
// batch re-computation (OntoIdx from scratch), varying |dG| as a fraction
// of |E|.  Paper claims: incIdx outperforms batch recomputation, taking as
// little as ~2% of its time for small update batches, with cost driven by
// AFF rather than |G|.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "concept/concept_index.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

std::vector<GraphUpdate> MakeUpdateBatch(const Graph& g, size_t count,
                                         Rng* rng) {
  std::vector<GraphUpdate> updates;
  std::vector<EdgeTriple> edges = g.EdgeList();
  while (updates.size() < count) {
    if (rng->Bernoulli(0.5) && !edges.empty()) {
      const EdgeTriple& e = edges[rng->Index(edges.size())];
      updates.push_back(GraphUpdate::Delete(e.from, e.to, e.label));
    } else {
      NodeId u = static_cast<NodeId>(rng->Index(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng->Index(g.num_nodes()));
      if (u == v) continue;
      updates.push_back(GraphUpdate::Insert(u, v, 0));
    }
  }
  return updates;
}

}  // namespace

int main() {
  bench::PrintTitle("E8 / Exp-3: incremental maintenance vs batch rebuild");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(20000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   ", N=2; mixed 50/50 insert/delete batches");
  p.seed = 37;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  ConceptIndexOptions cidx;

  std::printf("%-12s %10s %12s %12s %10s %12s\n", "|dG|/|E|", "|dG|",
              "inc_ms", "batch_ms", "inc/batch", "AFF");
  for (double frac : {0.001, 0.005, 0.01, 0.05, 0.10}) {
    // Fresh graph + index per batch size so runs are independent.
    Graph g = ds.graph;
    ConceptIndex index = ConceptIndex::Build(g, ds.ontology, {}, cidx);
    size_t count = static_cast<size_t>(frac * static_cast<double>(
                                                  g.num_edges()));
    if (count == 0) count = 1;
    Rng rng(1000 + static_cast<uint64_t>(frac * 10000));
    std::vector<GraphUpdate> updates = MakeUpdateBatch(g, count, &rng);

    WallTimer inc_timer;
    MaintenanceStats stats = ApplyUpdates(&g, &index, updates);
    double inc_ms = inc_timer.ElapsedMillis();

    double batch_ms = bench::MedianMs(
        1, [&] { ConceptIndex::Build(g, ds.ontology, {}, cidx); });

    std::printf("%-12.3f %10zu %12.2f %12.2f %9.1f%% %12zu\n", frac, count,
                inc_ms, batch_ms,
                batch_ms > 0 ? 100.0 * inc_ms / batch_ms : 0.0,
                stats.aff_blocks);
  }
  bench::PrintNote("paper: incIdx takes as little as ~2% of batch time for "
                   "small |dG|");
  return 0;
}
