// Cold-start benchmark: how long until a process can serve queries?
//
// Two ways to stand up an engine over the same generated graph
// (CrossDomain-like, >= 1M elements = nodes + edges at the default scale):
//
//   BM_BuildFromScratch    no snapshot: parse the graph and ontology text
//                          files (LoadGraphFromFile, LoadOntologyFromFile),
//                          then freeze the graph and build the serving
//                          index (the no-persistence baseline).
//   BM_LoadSnapshot        map the binary snapshot (core/snapshot.h):
//                          hash + structural validation, zero-copy CSR
//                          adoption, one copy of the node signatures, no
//                          text parsing, no rebuild.
//
// The rebuild-vs-load ratio is the cold-start claim and is enforced by
// scripts/bench_check.py (tier-1 opt-in stage; the floor is in
// scripts/tier1.sh):
//
//   bench_load [--scale N] [--reps R] [--json BENCH_load.json]
//
// Rows reuse the shared JSON schema; "ms_per_query" here is ms per cold
// start.  OSQ_BENCH_SCALE grows the default workload like the other
// harnesses.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/ontology_index.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "gen/scenarios.h"
#include "graph/graph_io.h"
#include "ontology/ontology_graph.h"

namespace {

using namespace osq;

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "bench_load: %s: %s\n", what, s.message().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = bench::ArgSize(argc, argv, "--scale", bench::Scaled(250000));
  int reps = static_cast<int>(bench::ArgSize(argc, argv, "--reps", 3));
  std::string json_path = bench::ArgValue(argc, argv, "--json", "");

  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "osq_bench_load";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string snapshot_path = (dir / "engine.snp").string();
  const std::string graph_path = (dir / "graph.txt").string();
  const std::string ontology_path = (dir / "ontology.txt").string();

  bench::PrintTitle("cold start: build vs binary snapshot");

  gen::ScenarioParams p;
  p.scale = scale;
  p.seed = 21;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  const double elements =
      static_cast<double>(ds.graph.num_nodes() + ds.graph.num_edges());
  std::printf("   graph: %zu nodes, %zu edges (scale %zu)\n",
              ds.graph.num_nodes(), ds.graph.num_edges(), scale);

  IndexOptions idx;
  QueryEngine engine(ds.graph, ds.ontology, idx);
  if (Status s = SaveEngineSnapshot(engine, ds.dict, snapshot_path);
      !s.ok()) {
    return Fail("save snapshot", s);
  }

  // The text files a process without a snapshot starts from, written
  // once outside the timed region.
  if (Status s = SaveGraphToFile(ds.graph, ds.dict, graph_path); !s.ok()) {
    return Fail("save graph", s);
  }
  if (Status s = SaveOntology(ds.ontology, ds.dict, ontology_path);
      !s.ok()) {
    return Fail("save ontology", s);
  }

  // Cold start ends when the process can serve; teardown of each rep's
  // engine happens outside the timed region.  One untimed round runs
  // first and is released, so the timed round reuses heap pages rather
  // than faulting in fresh ones: on a fresh heap the candidate-index
  // restore alone takes ~1.7x longer, and the ratio floor in
  // scripts/tier1.sh would then time the allocator, not the loader.
  Status rep_status = Status::Ok();
  auto time_cold_start = [&](auto start) {
    std::vector<std::unique_ptr<QueryEngine>> keep;
    (void)bench::MedianMs(reps, [&] { keep.push_back(start()); });
    keep.clear();
    return bench::MedianMs(reps, [&] { keep.push_back(start()); });
  };

  double build_ms = time_cold_start([&]() -> std::unique_ptr<QueryEngine> {
    LabelDictionary cold_dict;
    Graph g;
    OntologyGraph o;
    if (Status s = LoadGraphFromFile(graph_path, &cold_dict, &g); !s.ok()) {
      rep_status = s;
      return nullptr;
    }
    if (Status s = LoadOntologyFromFile(ontology_path, &cold_dict, &o);
        !s.ok()) {
      rep_status = s;
      return nullptr;
    }
    auto cold = std::make_unique<QueryEngine>(std::move(g), std::move(o), idx);
    if (cold->index().candidate_index().num_nodes() != ds.graph.num_nodes()) {
      rep_status = Status::Corruption("build produced a malformed index");
    }
    return cold;
  });
  if (!rep_status.ok()) return Fail("build from scratch", rep_status);

  SnapshotLoadStats load_stats;
  double load_ms = time_cold_start([&] {
    LabelDictionary cold_dict;
    std::unique_ptr<QueryEngine> cold;
    if (Status s =
            LoadEngineSnapshot(snapshot_path, &cold_dict, &cold, &load_stats);
        !s.ok()) {
      rep_status = s;
    }
    return cold;
  });
  if (!rep_status.ok()) return Fail("snapshot cold start", rep_status);

  const double file_bytes = static_cast<double>(load_stats.file_bytes);
  std::printf("   BM_BuildFromScratch      %10.1f ms\n", build_ms);
  std::printf("   BM_LoadSnapshot          %10.1f ms  (%.1f MB, %s)\n",
              load_ms, file_bytes / 1e6, load_stats.mapped ? "mmap" : "read");
  std::printf("   load stages: hash %.1f ms, graph %.1f ms, candidate index "
              "%.1f ms\n",
              load_stats.hash_ms, load_stats.graph_ms,
              load_stats.candidate_index_ms);
  std::printf("   snapshot speedup: %.1fx vs rebuild\n", build_ms / load_ms);

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("BM_BuildFromScratch", build_ms, 1, {{"elements", elements}});
    report.Add("BM_LoadSnapshot", load_ms, 1,
               {{"elements", elements}, {"file_bytes", file_bytes}});
    if (!report.WriteTo(json_path)) return 2;
  }

  fs::remove_all(dir, ec);
  return 0;
}
