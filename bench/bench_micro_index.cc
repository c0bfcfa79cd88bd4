// M2: microbenchmarks of the paper's index (concept/concept_index.h) —
// concept graph construction, incremental repair per update, and index
// validation.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "concept/concept_index.h"
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ConceptIndex::Build(ds.graph, ds.ontology, {}, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.graph.num_edges()));
}
BENCHMARK(BM_IndexBuild)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalUpdate(benchmark::State& state) {
  gen::Dataset ds = MakeData(8000);
  Graph g = ds.graph;
  ConceptIndex index = ConceptIndex::Build(g, ds.ontology, {}, {});
  Rng rng(11);
  for (auto _ : state) {
    // Insert + delete a random edge: net size constant across iterations.
    NodeId u = static_cast<NodeId>(rng.Index(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
    if (u == v) continue;
    GraphUpdate insert = GraphUpdate::Insert(u, v, 0);
    if (ApplyToGraph(&g, insert)) {
      index.RepairAfterUpdate(insert);
      GraphUpdate remove = GraphUpdate::Delete(u, v, 0);
      ApplyToGraph(&g, remove);
      index.RepairAfterUpdate(remove);
    }
  }
}
BENCHMARK(BM_IncrementalUpdate)->Unit(benchmark::kMicrosecond);

void BM_IndexValidate(benchmark::State& state) {
  gen::Dataset ds = MakeData(8000);
  ConceptIndex index = ConceptIndex::Build(ds.graph, ds.ontology, {}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Validate());
  }
  state.SetLabel("full invariant check");
}
BENCHMARK(BM_IndexValidate)->Unit(benchmark::kMillisecond);

}  // namespace
