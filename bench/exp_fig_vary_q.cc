// E3 / Exp-2(b): query evaluation time vs query size |V_p|, fixed data
// graph.  Paper claim: all algorithms grow with query size, KMatch stays
// far below the baselines because verification runs on the small G_v.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baseline/rewriting.h"
#include "baseline/simmatrix.h"
#include "baseline/subiso.h"
#include "bench_util.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

constexpr int kReps = 3;
constexpr size_t kQueriesPerSize = 6;
constexpr size_t kMaxRewritings = 20000;

}  // namespace

int main() {
  bench::PrintTitle("E3 / Exp-2(b): query time (ms) vs |Q|");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(15000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   "; theta=0.9, K=10; median of 3, summed over 6 queries");
  p.seed = 13;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Graph g_copy = ds.graph;
  OntologyGraph o_copy = ds.ontology;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  SimilarityFunction sim(0.9);

  std::printf("%-8s %10s %10s %10s %12s\n", "|Vp|", "KMatch", "SubIso",
              "VF2", "SubIso_r");
  for (size_t qsize : {3, 4, 5, 6}) {
    Rng rng(777 + qsize);
    gen::QueryGenParams qp;
    qp.num_nodes = qsize;
    qp.generalize_prob = 0.5;
    qp.generalize_hops = 1;
    std::vector<Graph> queries;
    size_t attempts = 0;
    while (queries.size() < kQueriesPerSize && attempts < 200) {
      ++attempts;
      Graph q = gen::ExtractQuery(g_copy, o_copy, qp, &rng);
      if (!q.empty()) queries.push_back(std::move(q));
    }

    QueryOptions options;
    options.theta = 0.9;
    options.k = 10;

    double kmatch_ms = bench::MedianMs(kReps, [&] {
      for (const Graph& q : queries) (void)engine.Query(q, options);  // timed
    });
    double subiso_ms = bench::MedianMs(kReps, [&] {
      for (const Graph& q : queries) {
        SubIso(q, g_copy, options.semantics, options.k);
      }
    });
    std::vector<SimMatrix> matrices;
    for (const Graph& q : queries) {
      matrices.push_back(BuildSimMatrix(q, g_copy, o_copy, sim,
                                        options.theta));
    }
    double vf2_ms = bench::MedianMs(kReps, [&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        SimMatrixMatch(queries[i], g_copy, matrices[i], options);
      }
    });
    double rewrite_ms = bench::MedianMs(1, [&] {
      for (const Graph& q : queries) {
        SubIsoRewrite(q, g_copy, o_copy, sim, options, kMaxRewritings);
      }
    });
    std::printf("%-8zu %10.2f %10.2f %10.2f %12.2f\n", qsize, kmatch_ms,
                subiso_ms, vf2_ms, rewrite_ms);
  }
  return 0;
}
