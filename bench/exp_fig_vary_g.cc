// E2 / Exp-2(a): query evaluation time vs data graph size, comparing
// KMatch (index + filter + verify), SubIso (identical labels), SubIso_r
// (query rewriting) and VF2 (similarity matrix over the whole graph;
// matrix build time reported separately, not charged, as in the paper).
//
// Paper claims: KMatch scales well with |G| and takes a fraction of
// SubIso's time (<= 22% on the largest real graph); SubIso_r is the
// slowest by a wide margin.
//
// Flags: --threads N sets num_threads for index build and KMatch;
//        --json <path> writes the KMatch per-query times (e.g.
//        BENCH_match.json) as {name, ms_per_query, threads} rows.

#include <cstdio>
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

int main(int argc, char** argv) {
  const size_t threads = bench::ArgSize(argc, argv, "--threads", 1);
  const std::string json_path = bench::ArgValue(argc, argv, "--json", "");
  bench::JsonReport report;

  bench::PrintTitle("E2 / Exp-2(a): query time (ms) vs |G|");
  bench::PrintNote("CrossDomain-like; |Q|=4, theta=0.9, K=10; median of 3, "
                   "summed over 6 queries; threads=" +
                   std::to_string(threads));
  std::printf("%-10s %10s %10s %10s %12s %12s %10s\n", "|V|", "KMatch",
              "SubIso", "VF2", "VF2-matrix", "SubIso_r", "ratio");

  for (size_t scale : {5000, 10000, 20000, 40000}) {
    gen::ScenarioParams p;
    p.scale = bench::Scaled(scale);
    p.seed = 11;
    gen::Dataset ds = gen::MakeCrossDomainLike(p);
    Graph g_copy = ds.graph;
    OntologyGraph o_copy = ds.ontology;

    // Queries: extracted with their original labels so the identical-label
    // SubIso baseline has real work to do; the ontology-aware methods
    // evaluate the same queries with theta slack (a strict superset of the
    // work), which makes the comparison conservative for KMatch.
    Rng rng(99);
    gen::QueryGenParams qp;
    qp.num_nodes = 4;
    qp.generalize_prob = 0.0;
    std::vector<Graph> queries;
    while (queries.size() < kQueriesPerSize) {
      Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
      if (!q.empty()) queries.push_back(std::move(q));
    }

    IndexOptions idx;
    idx.num_threads = threads;
    QueryEngine engine(std::move(ds.graph), std::move(ds.ontology), idx);

    QueryOptions options;
    options.theta = 0.9;
    options.k = 10;
    options.num_threads = threads;
    SimilarityFunction sim(0.9);

    double kmatch_ms = bench::MedianMs(kReps, [&] {
      for (const Graph& q : queries) (void)engine.Query(q, options);  // timed
    });
    double subiso_ms = bench::MedianMs(kReps, [&] {
      for (const Graph& q : queries) {
        SubIso(q, g_copy, options.semantics, options.k);
      }
    });
    // VF2: matrix precomputed per query (cost reported separately).
    std::vector<SimMatrix> matrices;
    double matrix_ms = bench::MedianMs(1, [&] {
      matrices.clear();
      for (const Graph& q : queries) {
        matrices.push_back(
            BuildSimMatrix(q, g_copy, o_copy, sim, options.theta));
      }
    });
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

    std::printf("%-10zu %10.2f %10.2f %10.2f %12.2f %12.2f %9.0f%%\n",
                g_copy.num_nodes(), kmatch_ms, subiso_ms, vf2_ms, matrix_ms,
                rewrite_ms,
                subiso_ms > 0 ? 100.0 * kmatch_ms / subiso_ms : 0.0);
    report.Add("kmatch/V=" + std::to_string(g_copy.num_nodes()),
               kmatch_ms / static_cast<double>(queries.size()), threads,
               {{"subiso_ms_per_query",
                 subiso_ms / static_cast<double>(queries.size())}});
  }
  bench::PrintNote("ratio = KMatch / SubIso (paper reports <= 22% on its "
                   "largest graph)");
  if (!json_path.empty() && !report.WriteTo(json_path)) return 2;
  return 0;
}
