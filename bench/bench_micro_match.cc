// M3: microbenchmarks of the matcher kernels — Gview filtering, KMatch
// verification, SubIso, and similarity-matrix construction.
//
// Unlike the other bench_micro_* binaries this one has its own main so it
// can accept driver flags after the google-benchmark ones:
//   bench_micro_match [--benchmark_filter=...] [--threads N] [--json path]
// --threads sets QueryOptions::num_threads for the filter/verify kernels;
// --json writes {name, ms_per_query, threads} rows (e.g. BENCH_match.json).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "baseline/simmatrix.h"
#include "baseline/subiso.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"

namespace {

using namespace osq;

size_t g_threads = 1;  // set from --threads in main

struct World {
  gen::Dataset ds;
  std::unique_ptr<OntologyIndex> index;
  std::vector<Graph> queries;
};

// Star queries around data hubs with a repeated out-edge label.  The
// repeated label makes the signature requirement demand out-degree >= 2 on
// one edge label, which only the node-level count check can enforce —
// extracted path/tree queries never fire it (every query edge is a real
// data edge, so block aggregates alone satisfy them).  This is the shape
// that keeps sig_node_rejections measured rather than dead.
std::vector<Graph> MakeStarQueries(const Graph& g, size_t want) {
  std::vector<Graph> out;
  for (NodeId v = 0; v < g.num_nodes() && out.size() < want; ++v) {
    Graph::AdjSpan span = g.OutEdges(v);
    if (span.size() < 2) continue;
    // Find a run of >= 2 equal edge labels (spans are label-sorted per
    // target, so scan all pairs).
    const AdjEntry* a = nullptr;
    const AdjEntry* b = nullptr;
    for (size_t i = 0; i < span.size() && b == nullptr; ++i) {
      for (size_t j = i + 1; j < span.size(); ++j) {
        if (span[i].label == span[j].label && span[i].node != span[j].node) {
          a = &span[i];
          b = &span[j];
          break;
        }
      }
    }
    if (b == nullptr) continue;
    Graph q;
    q.AddNode(g.NodeLabel(v));
    q.AddNode(g.NodeLabel(a->node));
    q.AddNode(g.NodeLabel(b->node));
    q.AddEdge(0, 1, a->label);
    q.AddEdge(0, 2, b->label);
    out.push_back(std::move(q));
  }
  return out;
}

World* MakeWorld() {
  auto* w = new World();
  gen::ScenarioParams p;
  p.scale = 8000;
  p.seed = 13;
  w->ds = gen::MakeCrossDomainLike(p);
  w->index = std::make_unique<OntologyIndex>(
      OntologyIndex::Build(w->ds.graph, w->ds.ontology, IndexOptions{}));
  Rng rng(17);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  while (w->queries.size() < 8) {
    Graph q = gen::ExtractQuery(w->ds.graph, w->ds.ontology, qp, &rng);
    if (!q.empty()) w->queries.push_back(std::move(q));
  }
  return w;
}

World& TheWorld() {
  static World* const world = MakeWorld();
  return *world;
}

// Second world for the high-degree shape: the catalog scenario keeps
// refinement blocks coarse, so star queries pass block aggregates and the
// pruning falls to the node-level signature check.
World* MakeStarWorld() {
  auto* w = new World();
  gen::ScenarioParams p;
  p.scale = 8000;
  p.seed = 13;
  w->ds = gen::MakeCatalogLike(p);
  w->index = std::make_unique<OntologyIndex>(
      OntologyIndex::Build(w->ds.graph, w->ds.ontology, IndexOptions{}));
  w->queries = MakeStarQueries(w->ds.graph, 8);
  return w;
}

World& StarWorld() {
  static World* const world = MakeStarWorld();
  return *world;
}

// Filter-stats sums over one pass of the query set, attached as extras to
// the BM_GviewFilter JSON row so the trajectory tracks pruning power, not
// just wall time.
std::vector<std::pair<std::string, double>> FilterStatExtras(const World& w) {
  QueryOptions options;
  options.theta = 0.85;
  options.num_threads = g_threads;
  FilterStats sum;
  for (const Graph& q : w.queries) {
    FilterResult r = GviewFilter(*w.index, q, options);
    sum.pruned_nodes += r.stats.pruned_nodes;
    sum.sig_node_rejections += r.stats.sig_node_rejections;
    sum.seed_visits += r.stats.seed_visits;
    sum.fixpoint_checks += r.stats.fixpoint_checks;
    sum.gv_nodes += r.stats.gv_nodes;
  }
  return {{"pruned_nodes", static_cast<double>(sum.pruned_nodes)},
          {"sig_node_rejections",
           static_cast<double>(sum.sig_node_rejections)},
          {"seed_visits", static_cast<double>(sum.seed_visits)},
          {"fixpoint_checks", static_cast<double>(sum.fixpoint_checks)},
          {"gv_nodes", static_cast<double>(sum.gv_nodes)}};
}

void BM_GviewFilter(benchmark::State& state) {
  World& w = TheWorld();
  QueryOptions options;
  options.theta = 0.85;
  options.num_threads = g_threads;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GviewFilter(*w.index, w.queries[i % w.queries.size()], options));
    ++i;
  }
}
BENCHMARK(BM_GviewFilter)->Unit(benchmark::kMicrosecond);

// Star queries with a repeated out-edge label: the degree-demand shape
// whose pruning runs through NodePasses (node-level signature rejection).
void BM_GviewFilterHighDegree(benchmark::State& state) {
  World& w = StarWorld();
  if (w.queries.empty()) {
    state.SkipWithError("no star queries in generated graph");
    return;
  }
  QueryOptions options;
  options.theta = 0.85;
  options.num_threads = g_threads;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GviewFilter(*w.index, w.queries[i % w.queries.size()], options));
    ++i;
  }
}
BENCHMARK(BM_GviewFilterHighDegree)->Unit(benchmark::kMicrosecond);

// Summed KMatch work counters over the world's queries (k = 10, as
// BM_KMatchVerify runs them), reported as extras on its JSON row.
std::vector<std::pair<std::string, double>> VerifyStatExtras(const World& w) {
  QueryOptions options;
  options.theta = 0.85;
  options.k = 10;
  options.num_threads = g_threads;
  KMatchStats sum;
  for (const Graph& q : w.queries) {
    KMatchStats stats;
    FilterResult filter = GviewFilter(*w.index, q, options);
    benchmark::DoNotOptimize(KMatch(q, filter, options, &stats));
    sum.search_steps += stats.search_steps;
    sum.candidate_checks += stats.candidate_checks;
  }
  return {{"search_steps", static_cast<double>(sum.search_steps)},
          {"candidate_checks", static_cast<double>(sum.candidate_checks)}};
}

void BM_KMatchVerify(benchmark::State& state) {
  World& w = TheWorld();
  QueryOptions options;
  options.theta = 0.85;
  options.k = 10;
  options.num_threads = g_threads;
  std::vector<FilterResult> filters;
  for (const Graph& q : w.queries) {
    filters.push_back(GviewFilter(*w.index, q, options));
  }
  size_t i = 0;
  for (auto _ : state) {
    size_t j = i % w.queries.size();
    benchmark::DoNotOptimize(KMatch(w.queries[j], filters[j], options));
    ++i;
  }
}
BENCHMARK(BM_KMatchVerify)->Unit(benchmark::kMicrosecond);

// End-to-end filter + verify with the configured thread count; the row the
// bench trajectory tracks for parallel scaling.
void BM_FilterVerifyEndToEnd(benchmark::State& state) {
  World& w = TheWorld();
  QueryOptions options;
  options.theta = 0.85;
  options.k = 10;
  options.num_threads = g_threads;
  size_t i = 0;
  for (auto _ : state) {
    size_t j = i % w.queries.size();
    FilterResult filter = GviewFilter(*w.index, w.queries[j], options);
    benchmark::DoNotOptimize(KMatch(w.queries[j], filter, options));
    ++i;
  }
}
BENCHMARK(BM_FilterVerifyEndToEnd)->Unit(benchmark::kMicrosecond);

void BM_SubIsoWholeGraph(benchmark::State& state) {
  World& w = TheWorld();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SubIso(w.queries[i % w.queries.size()], w.ds.graph,
               MatchSemantics::kInduced, /*limit=*/10));
    ++i;
  }
}
BENCHMARK(BM_SubIsoWholeGraph)->Unit(benchmark::kMicrosecond);

void BM_BuildSimMatrix(benchmark::State& state) {
  World& w = TheWorld();
  SimilarityFunction sim(0.9);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildSimMatrix(w.queries[i % w.queries.size()], w.ds.graph,
                       w.ds.ontology, sim, 0.85));
    ++i;
  }
}
BENCHMARK(BM_BuildSimMatrix)->Unit(benchmark::kMicrosecond);

// Console reporter that also captures every run into a JsonReport (all our
// benchmarks use kMicrosecond, so adjusted real time / 1000 is ms/query).
class JsonCapture : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapture(bench::JsonReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::vector<std::pair<std::string, double>> extras;
      if (run.benchmark_name() == "BM_GviewFilter") {
        extras = FilterStatExtras(TheWorld());
      } else if (run.benchmark_name() == "BM_GviewFilterHighDegree") {
        extras = FilterStatExtras(StarWorld());
      } else if (run.benchmark_name() == "BM_KMatchVerify") {
        extras = VerifyStatExtras(TheWorld());
      }
      report_->Add(run.benchmark_name(), run.GetAdjustedRealTime() / 1000.0,
                   g_threads, extras);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  g_threads = bench::ArgSize(argc, argv, "--threads", 1);
  std::string json_path = bench::ArgValue(argc, argv, "--json", "");

  bench::JsonReport report;
  JsonCapture reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !report.WriteTo(json_path)) return 2;
  return 0;
}
