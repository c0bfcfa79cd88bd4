// E4 / Exp-2(c): query evaluation time vs similarity threshold theta.
// Lower theta widens every candidate set; the paper's point is that the
// index keeps KMatch nearly flat while the rewriting baseline blows up
// combinatorially (its rewritten-query count is the product of per-node
// candidate label counts).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baseline/rewriting.h"
#include "baseline/simmatrix.h"
#include "bench_util.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

constexpr int kReps = 3;
constexpr size_t kQueries = 6;
constexpr size_t kMaxRewritings = 20000;

}  // namespace

int main() {
  bench::PrintTitle("E4 / Exp-2(c): query time (ms) vs theta");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(15000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   ", |Q|=4, K=10; median of 3, summed over 6 queries");
  p.seed = 17;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Graph g_copy = ds.graph;
  OntologyGraph o_copy = ds.ontology;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptions{});
  SimilarityFunction sim(0.9);

  Rng rng(555);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < kQueries) {
    Graph q = gen::ExtractQuery(g_copy, o_copy, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }

  std::printf("%-8s %10s %10s %12s %14s %12s\n", "theta", "KMatch", "VF2",
              "SubIso_r", "#rewritings", "#matches");
  for (double theta : {1.0, 0.95, 0.9, 0.85, 0.8}) {
    QueryOptions options;
    options.theta = theta;
    options.k = 10;

    size_t total_matches = 0;
    double kmatch_ms = bench::MedianMs(kReps, [&] {
      total_matches = 0;
      for (const Graph& q : queries) {
        total_matches += engine.Query(q, options).matches.size();
      }
    });
    std::vector<SimMatrix> matrices;
    for (const Graph& q : queries) {
      matrices.push_back(BuildSimMatrix(q, g_copy, o_copy, sim, theta));
    }
    double vf2_ms = bench::MedianMs(kReps, [&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        SimMatrixMatch(queries[i], g_copy, matrices[i], options);
      }
    });
    size_t rewritings = 0;
    double rewrite_ms = bench::MedianMs(1, [&] {
      rewritings = 0;
      for (const Graph& q : queries) {
        RewriteStats stats;
        SubIsoRewrite(q, g_copy, o_copy, sim, options, kMaxRewritings,
                      &stats);
        rewritings += stats.rewritings;
      }
    });
    std::printf("%-8.2f %10.2f %10.2f %12.2f %14zu %12zu\n", theta,
                kmatch_ms, vf2_ms, rewrite_ms, rewritings, total_matches);
  }
  return 0;
}
