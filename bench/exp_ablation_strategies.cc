// E10 / ablation of Gview/KMatch design choices:
//   (a) edge-label-aware vs label-unaware concept graphs (the size of the
//       paper's index; Gview reads no concept graph, so both variants
//       filter and match alike);
//   (b) induced (paper definition) vs homomorphic match semantics.
// Every row seeds Gview from the signature index, which replaces the
// paper's lazy candidate initialization (EXPERIMENTS.md E10 records how
// the two compared).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "concept/concept_index.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

constexpr int kReps = 3;

double RunQueries(const OntologyIndex& index,
                  const std::vector<Graph>& queries,
                  const QueryOptions& options, double* avg_gv,
                  size_t* matches) {
  double gv = 0;
  size_t found = 0;
  double ms = bench::MedianMs(kReps, [&] {
    gv = 0;
    found = 0;
    for (const Graph& q : queries) {
      FilterResult filter = GviewFilter(index, q, options);
      gv += static_cast<double>(filter.stats.gv_nodes);
      found += KMatch(q, filter, options).size();
    }
  });
  *avg_gv = gv / static_cast<double>(queries.size());
  *matches = found;
  return ms;
}

}  // namespace

int main() {
  bench::PrintTitle("E10 / ablation: edge-label-aware index, "
                    "match semantics");

  gen::ScenarioParams p;
  p.scale = bench::Scaled(15000);
  bench::PrintNote("CrossDomain-like, |V|=" + std::to_string(p.scale) +
                   ", |Q|=4, theta=0.85, K=10; 8 queries, median of 3");
  p.seed = 59;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);

  Rng rng(61);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < 8) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }

  IndexOptions base_idx;
  OntologyIndex index = OntologyIndex::Build(ds.graph, ds.ontology, base_idx);
  // The paper's index, unaware and aware, for the |I| comparison below.
  ConceptIndex unaware =
      ConceptIndex::Build(ds.graph, ds.ontology, base_idx, {});
  ConceptIndexOptions aware_idx;
  aware_idx.edge_label_aware = true;
  WallTimer aware_build;
  ConceptIndex aware =
      ConceptIndex::Build(ds.graph, ds.ontology, base_idx, aware_idx);
  double aware_build_ms = aware_build.ElapsedMillis();

  std::printf("%-34s %10s %10s %10s\n", "variant", "time_ms", "avg|Gv|",
              "matches");
  double gv;
  size_t matches;

  QueryOptions options;
  options.theta = 0.85;
  options.k = 10;

  double ms = RunQueries(index, queries, options, &gv, &matches);
  std::printf("%-34s %10.2f %10.1f %10zu\n", "signature index (default)", ms,
              gv, matches);

  QueryOptions homo = options;
  homo.semantics = MatchSemantics::kHomomorphicEdges;
  ms = RunQueries(index, queries, homo, &gv, &matches);
  std::printf("%-34s %10.2f %10.1f %10zu\n", "homomorphic edge semantics",
              ms, gv, matches);

  std::printf("\nindex sizes: unaware |I|=%zu, aware |I|=%zu "
              "(aware build: %.1f ms)\n",
              unaware.TotalSize(), aware.TotalSize(), aware_build_ms);

  // Similarity-model sweep (the paper's "class of similarity functions"):
  // same data, same theta, different sim(d) shapes.
  std::printf("\nsimilarity models at theta=0.5:\n");
  std::printf("%-34s %10s %10s %10s\n", "model", "time_ms", "avg|Gv|",
              "matches");
  for (int model = 0; model < 3; ++model) {
    IndexOptions midx = base_idx;
    midx.similarity_model = static_cast<SimilarityModel>(model);
    midx.similarity_cutoff = 3;
    OntologyIndex mindex = OntologyIndex::Build(ds.graph, ds.ontology, midx);
    QueryOptions mopts = options;
    mopts.theta = 0.5;
    double mgv;
    size_t mmatches;
    double mms = RunQueries(mindex, queries, mopts, &mgv, &mmatches);
    const char* names[] = {"exponential (paper)", "linear (cutoff 3)",
                           "reciprocal"};
    std::printf("%-34s %10.2f %10.1f %10zu\n", names[model], mms, mgv,
                mmatches);
  }
  return 0;
}
