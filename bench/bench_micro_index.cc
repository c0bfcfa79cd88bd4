// M2: microbenchmarks of the index layer — concept graph construction,
// incremental repair per update, and index validation.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/index_maintenance.h"
#include "core/ontology_index.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

gen::Dataset MakeData(size_t scale) {
  gen::ScenarioParams p;
  p.scale = scale;
  p.seed = 7;
  return gen::MakeCrossDomainLike(p);
}

void BM_IndexBuild(benchmark::State& state) {
  gen::Dataset ds = MakeData(static_cast<size_t>(state.range(0)));
  IndexOptions idx;
  idx.num_concept_graphs = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OntologyIndex::BuildWithConceptGraphs(ds.graph, ds.ontology, idx));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.graph.num_edges()));
}
BENCHMARK(BM_IndexBuild)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalUpdate(benchmark::State& state) {
  gen::Dataset ds = MakeData(8000);
  IndexOptions idx;
  idx.num_concept_graphs = 2;
  Graph g = ds.graph;
  OntologyIndex index =
      OntologyIndex::BuildWithConceptGraphs(g, ds.ontology, idx);
  Rng rng(11);
  for (auto _ : state) {
    // Insert + delete a random edge: net size constant across iterations.
    NodeId u = static_cast<NodeId>(rng.Index(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
    if (u == v) continue;
    if (ApplyUpdate(&g, &index, GraphUpdate::Insert(u, v, 0))) {
      ApplyUpdate(&g, &index, GraphUpdate::Delete(u, v, 0));
    }
  }
}
BENCHMARK(BM_IncrementalUpdate)->Unit(benchmark::kMicrosecond);

void BM_IndexValidate(benchmark::State& state) {
  gen::Dataset ds = MakeData(8000);
  IndexOptions idx;
  idx.num_concept_graphs = 2;
  OntologyIndex index =
      OntologyIndex::BuildWithConceptGraphs(ds.graph, ds.ontology, idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Validate());
  }
  state.SetLabel("full invariant check");
}
BENCHMARK(BM_IndexValidate)->Unit(benchmark::kMillisecond);

}  // namespace
