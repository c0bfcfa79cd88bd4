// E7 / Exp-3 (index cost): OntoIdx construction time and index size |I|
// vs data graph size, number of concept graphs N = card(I), and beta.
// Paper claims: construction is efficient (O(N |E| log |V|)) and the index
// is small relative to G.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "concept/concept_index.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

}  // namespace

int main() {
  bench::PrintTitle("E7 / Exp-3: index construction time and size");

  std::printf("\n(a) vs |G|  (N=2, beta=0.81)\n");
  std::printf("%-10s %10s %12s %12s %12s\n", "|V|", "|E|", "build_ms",
              "|I|", "|I|/(|V|+|E|)");
  for (size_t scale : {5000, 10000, 20000, 40000}) {
    gen::ScenarioParams p;
    p.scale = bench::Scaled(scale);
    p.seed = 31;
    gen::Dataset ds = gen::MakeCrossDomainLike(p);
    ConceptIndexOptions cidx;
    double ms = bench::MedianMs(
        3, [&] { ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx); });
    ConceptIndex index = ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx);
    size_t size = index.TotalSize();
    std::printf("%-10zu %10zu %12.2f %12zu %12.4f\n", ds.graph.num_nodes(),
                ds.graph.num_edges(), ms, size,
                static_cast<double>(size) /
                    static_cast<double>(ds.graph.num_nodes() +
                                        ds.graph.num_edges()));
  }

  const size_t sweep_nodes = bench::Scaled(20000);
  std::printf("\n(b) vs N = card(I)  (|V|=%zu, beta=0.81)\n", sweep_nodes);
  std::printf("%-10s %12s %12s\n", "N", "build_ms", "|I|");
  {
    gen::ScenarioParams p;
    p.scale = sweep_nodes;
    p.seed = 31;
    gen::Dataset ds = gen::MakeCrossDomainLike(p);
    for (size_t n : {1, 2, 3, 4}) {
      ConceptIndexOptions cidx;
      cidx.num_concept_graphs = n;
      double ms = bench::MedianMs(
          3, [&] { ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx); });
      ConceptIndex index =
          ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx);
      std::printf("%-10zu %12.2f %12zu\n", n, ms, index.TotalSize());
    }
  }

  std::printf("\n(c) vs beta  (|V|=%zu, N=2)\n", sweep_nodes);
  std::printf("%-10s %12s %12s %14s\n", "beta", "build_ms", "|I|",
              "avg#blocks");
  {
    gen::ScenarioParams p;
    p.scale = sweep_nodes;
    p.seed = 31;
    gen::Dataset ds = gen::MakeCrossDomainLike(p);
    for (double beta : {0.95, 0.9, 0.81, 0.729}) {
      ConceptIndexOptions cidx;
      cidx.beta = beta;
      double ms = bench::MedianMs(
          3, [&] { ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx); });
      IndexBuildStats stats;
      ConceptIndex index =
          ConceptIndex::Build(ds.graph, ds.ontology, {}, cidx, &stats);
      std::printf("%-10.3f %12.2f %12zu %14.0f\n", beta, ms,
                  index.TotalSize(),
                  static_cast<double>(stats.total_blocks) /
                      static_cast<double>(cidx.num_concept_graphs));
    }
  }
  return 0;
}
