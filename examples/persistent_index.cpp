// Persistent-index workflow (paper §III: the index is "computed once for
// all"): generate a dataset, build the engine once and save it as a binary
// snapshot, then cold-start a fresh "process" from the snapshot and answer
// pattern queries — the startup path of a long-lived deployment.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "gen/scenarios.h"

int main() {
  using namespace osq;
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "osq_example.snp").string();

  // --- "ingest" phase: build everything once and persist it. ---
  double build_ms = 0.0;
  {
    gen::ScenarioParams params;
    params.scale = 4000;
    params.seed = 11;
    gen::Dataset ds = gen::MakeCrossDomainLike(params);
    IndexOptions idx;
    idx.num_concept_graphs = 2;
    QueryEngine engine(std::move(ds.graph), std::move(ds.ontology), idx);
    build_ms = engine.index_build_ms();
    std::printf("ingest: built index in %.1f ms (|I|=%zu)\n", build_ms,
                engine.index().TotalSize());

    Status s = SaveEngineSnapshot(engine, ds.dict, snapshot_path);
    if (!s.ok()) {
      std::printf("persist failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("ingest: saved graph, ontology and index to %s\n",
                snapshot_path.c_str());
  }

  // --- "serve" phase: fresh state, load from disk, query. ---
  {
    LabelDictionary dict;
    std::unique_ptr<QueryEngine> engine;
    WallTimer timer;
    Status s = LoadEngineSnapshot(snapshot_path, &dict, &engine);
    double load_ms = timer.ElapsedMillis();
    if (!s.ok()) {
      std::printf("snapshot load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("serve: engine loaded in %.1f ms (building took %.1f ms); "
                "valid=%s\n",
                load_ms, build_ms, engine->index().Validate() ? "yes" : "no");

    QueryOptions options;
    options.theta = 0.8;
    options.k = 3;
    const char* pattern = "(a:person)-[born_in]->(b:place)";
    QueryResult result = engine->QueryPattern(pattern, &dict, options);
    if (!result.status.ok()) {
      std::printf("query failed: %s\n", result.status.ToString().c_str());
      return 1;
    }
    std::printf("serve: %zu match(es) for %s\n", result.matches.size(),
                pattern);
    const Graph& g = engine->graph();
    for (const Match& m : result.matches) {
      std::printf("  score %.3f: a=%s b=%s\n", m.score,
                  dict.Name(g.NodeLabel(m.mapping[0])).c_str(),
                  dict.Name(g.NodeLabel(m.mapping[1])).c_str());
    }
  }
  return 0;
}
