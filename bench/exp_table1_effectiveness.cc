// E1 / Table I (paper §VII, Exp-1): number of matches found by SubIso
// (identical labels) vs KMatch (ontology-based) per query template, varying
// the similarity threshold theta from 1.0 to 0.8, on the CrossDomain-like
// and Flickr-like workloads.
//
// Paper claim: SubIso finds few or no matches for the (generalized)
// templates, while ontology-based querying identifies the semantically
// close matches; counts grow as theta decreases.

#include <cstdio>
#include <utility>
#include <vector>

#include "baseline/subiso.h"
#include "bench_util.h"
#include "core/query_engine.h"
#include "gen/workload.h"

namespace {

using namespace osq;

void RunWorkload(gen::Workload w) {
  std::printf("\n-- %s-like (|V|=%zu |E|=%zu, ontology %zu concepts) --\n",
              w.name.c_str(), w.data.graph.num_nodes(),
              w.data.graph.num_edges(), w.data.ontology.num_labels());
  Graph g_copy = w.data.graph;
  QueryEngine engine(std::move(w.data.graph), std::move(w.data.ontology),
                     IndexOptions{});

  const std::vector<double> thetas = {1.0, 0.9, 0.8};
  std::printf("%-6s %8s", "tmpl", "SubIso");
  for (double t : thetas) std::printf("  KMatch(%.1f)", t);
  std::printf("\n");

  // Popular photo/tag patterns can have millions of matches; cap the
  // enumeration per (query, theta) and flag truncated counts with '+'.
  constexpr size_t kMaxSteps = 500000;
  for (const auto& tmpl : w.templates) {
    size_t iso_total = 0;
    bool iso_truncated = false;
    std::vector<size_t> kmatch_total(thetas.size(), 0);
    std::vector<bool> kmatch_truncated(thetas.size(), false);
    for (const Graph& q : tmpl.queries) {
      SubIsoStats iso_stats;
      iso_total += SubIso(q, g_copy, MatchSemantics::kInduced, 0, kMaxSteps,
                          &iso_stats)
                       .size();
      iso_truncated = iso_truncated || iso_stats.truncated;
      for (size_t ti = 0; ti < thetas.size(); ++ti) {
        QueryOptions options;
        options.theta = thetas[ti];
        options.k = 0;  // count ALL matches, as Table I does
        options.max_search_steps = kMaxSteps;
        QueryResult r = engine.Query(q, options);
        kmatch_total[ti] += r.matches.size();
        kmatch_truncated[ti] =
            kmatch_truncated[ti] || r.verify_stats.truncated;
      }
    }
    std::printf("%-6s %7zu%c", tmpl.name.c_str(), iso_total,
                iso_truncated ? '+' : ' ');
    for (size_t ti = 0; ti < thetas.size(); ++ti) {
      std::printf("  %10zu%c", kmatch_total[ti],
                  kmatch_truncated[ti] ? '+' : ' ');
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  bench::PrintTitle(
      "E1 / Table I: #matches, SubIso vs KMatch, theta in {1.0, 0.9, 0.8}");
  bench::PrintNote(
      "10 queries per template; totals over the query set (paper Exp-1)");
  gen::ScenarioParams cd;
  cd.scale = bench::Scaled(3000);
  cd.seed = 101;
  RunWorkload(gen::MakeCrossDomainWorkload(cd, 10));

  gen::ScenarioParams fl;
  fl.scale = bench::Scaled(2000);
  fl.seed = 202;
  RunWorkload(gen::MakeFlickrWorkload(fl, 10));
  return 0;
}
