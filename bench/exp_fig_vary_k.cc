// E5 / Exp-2(d): query evaluation time vs K (number of requested matches).
// Both top-K matchers terminate early; the paper's point is that KMatch's
// time grows slowly with K because verification works over G_v with
// similarity-sorted candidate lists.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baseline/simmatrix.h"
#include "bench_util.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

constexpr int kReps = 3;
constexpr size_t kQueries = 6;

}  // namespace

int main() {
  bench::PrintTitle("E5 / Exp-2(d): query time (ms) vs K");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(15000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   ", |Q|=4, theta=0.85; median of 3, summed over 6 queries");
  p.seed = 19;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Graph g_copy = ds.graph;
  OntologyGraph o_copy = ds.ontology;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  SimilarityFunction sim(0.9);

  Rng rng(333);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < kQueries) {
    Graph q = gen::ExtractQuery(g_copy, o_copy, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }
  std::vector<SimMatrix> matrices;
  for (const Graph& q : queries) {
    matrices.push_back(BuildSimMatrix(q, g_copy, o_copy, sim, 0.85));
  }

  std::printf("%-8s %10s %10s %14s\n", "K", "KMatch", "VF2", "#returned");
  for (size_t k : {1, 5, 10, 20, 50}) {
    QueryOptions options;
    options.theta = 0.85;
    options.k = k;
    size_t returned = 0;
    double kmatch_ms = bench::MedianMs(kReps, [&] {
      returned = 0;
      for (const Graph& q : queries) {
        returned += engine.Query(q, options).matches.size();
      }
    });
    double vf2_ms = bench::MedianMs(kReps, [&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        SimMatrixMatch(queries[i], g_copy, matrices[i], options);
      }
    });
    std::printf("%-8zu %10.2f %10.2f %14zu\n", k, kmatch_ms, vf2_ms,
                returned);
  }
  return 0;
}
