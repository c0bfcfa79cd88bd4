// osq_cli — command-line front end for the OSQ library.
//
//   osq_cli generate --type crossdomain --scale 5000 --seed 7
//           --graph g.txt --ontology o.txt
//   osq_cli snapshot --graph g.txt --ontology o.txt --out engine.snp
//           [--beta 0.81] [--n 2] [--seed 42] [--threads N]
//           (build the engine, save it as a binary v2 snapshot)
//   osq_cli query    --graph g.txt --ontology o.txt
//           --pattern '(t:tourists)-[guide]->(m:museum)'
//           [--theta 0.9] [--k 10] [--explain]
//           [--semantics induced|homomorphic] [--threads N]
//           [--deadline-ms 0]
//   osq_cli query    --snapshot engine.snp --pattern ...
//           (cold start from the binary snapshot; no text parsing,
//            no index build)
//   osq_cli bench    --graph g.txt --ontology o.txt --queries q.txt
//           [--theta 0.9] [--k 10] [--reps 3] [--threads N]
//   osq_cli stats    --graph g.txt --ontology o.txt
//
// `query` and `bench` evaluate every pattern through QueryEngine::Query,
// so a pattern the engine rejects (e.g. one that is not weakly
// connected) is reported as an error here too.
// --threads N parallelizes index build and query evaluation over N threads
// (0 = all hardware threads); results are identical for every N.
// --deadline-ms > 0 bounds the query's evaluation time; an interrupted
// query returns the (valid) matches found so far, flagged as
// deadline_exceeded.
// Concurrent serving, caching and live ingest are measured by servebench
// (`python3 servebench/run.py`), not by this tool.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime errors
// (including a query the engine rejects).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/explain.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "gen/scenarios.h"
#include "gen/synthetic.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_io.h"
#include "query/pattern_parser.h"

namespace {

using namespace osq;

using FlagMap = std::map<std::string, std::string>;

// Parses "--flag value" pairs; returns false on malformed input.
bool ParseFlags(int argc, char** argv, int start, FlagMap* flags) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
    std::string name = arg.substr(2);
    // Boolean flags may omit the value.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      (*flags)[name] = argv[++i];
    } else {
      (*flags)[name] = "1";
    }
  }
  return true;
}

std::string GetFlag(const FlagMap& flags, const std::string& name,
                    const std::string& def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

double GetDouble(const FlagMap& flags, const std::string& name, double def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : std::atof(it->second.c_str());
}

size_t GetSize(const FlagMap& flags, const std::string& name, size_t def) {
  auto it = flags.find(name);
  return it == flags.end() ? def
                           : static_cast<size_t>(
                                 std::strtoull(it->second.c_str(), nullptr,
                                               10));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: osq_cli "
               "<generate|snapshot|query|bench|stats> [--flags]\n"
               "see the header of tools/osq_cli.cc for details\n");
  return 1;
}

int CmdGenerate(const FlagMap& flags) {
  std::string type = GetFlag(flags, "type", "crossdomain");
  std::string graph_path = GetFlag(flags, "graph", "");
  std::string ontology_path = GetFlag(flags, "ontology", "");
  if (graph_path.empty() || ontology_path.empty()) {
    std::fprintf(stderr, "generate needs --graph and --ontology paths\n");
    return 1;
  }
  gen::ScenarioParams params;
  params.scale = GetSize(flags, "scale", 2000);
  params.seed = GetSize(flags, "seed", 7);

  gen::Dataset ds;
  if (type == "crossdomain") {
    ds = gen::MakeCrossDomainLike(params);
  } else if (type == "flickr") {
    ds = gen::MakeFlickrLike(params);
  } else if (type == "random") {
    gen::SyntheticGraphParams gp;
    gp.num_nodes = params.scale;
    gp.num_edges = params.scale * 4;
    gp.num_labels = GetSize(flags, "labels", 100);
    gp.seed = params.seed;
    ds.graph = gen::MakeRandomGraph(gp, &ds.dict);
    gen::SyntheticOntologyParams op;
    op.num_labels = gp.num_labels;
    op.seed = params.seed + 1;
    ds.ontology = gen::MakeTaxonomyOntology(op, &ds.dict);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }
  Status s = SaveGraphToFile(ds.graph, ds.dict, graph_path);
  if (!s.ok()) return Fail(s);
  s = SaveOntology(ds.ontology, ds.dict, ontology_path);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s (%zu nodes, %zu edges) and %s (%zu concepts, %zu "
              "relations)\n",
              graph_path.c_str(), ds.graph.num_nodes(), ds.graph.num_edges(),
              ontology_path.c_str(), ds.ontology.num_labels(),
              ds.ontology.num_relations());
  return 0;
}

// Loads the graph + ontology named by --graph/--ontology into one dataset.
int LoadDataset(const FlagMap& flags, gen::Dataset* ds) {
  std::string graph_path = GetFlag(flags, "graph", "");
  std::string ontology_path = GetFlag(flags, "ontology", "");
  if (graph_path.empty() || ontology_path.empty()) {
    std::fprintf(stderr, "need --graph and --ontology paths\n");
    return 1;
  }
  Status s = LoadGraphFromFile(graph_path, &ds->dict, &ds->graph);
  if (!s.ok()) return Fail(s);
  s = LoadOntologyFromFile(ontology_path, &ds->dict, &ds->ontology);
  if (!s.ok()) return Fail(s);
  return 0;
}

IndexOptions IndexOptionsFromFlags(const FlagMap& flags) {
  IndexOptions idx;
  idx.beta = GetDouble(flags, "beta", idx.beta);
  idx.num_concept_graphs = GetSize(flags, "n", idx.num_concept_graphs);
  idx.seed = GetSize(flags, "seed", idx.seed);
  idx.similarity_base = GetDouble(flags, "base", idx.similarity_base);
  idx.edge_label_aware = GetFlag(flags, "edge-label-aware", "0") == "1";
  idx.num_threads = GetSize(flags, "threads", idx.num_threads);
  return idx;
}

int CmdSnapshot(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  std::string out_path = GetFlag(flags, "out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "snapshot needs --out path\n");
    return 1;
  }
  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer timer;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology), idx);
  double build_ms = timer.ElapsedMillis();
  Status s = SaveEngineSnapshot(engine, ds.dict, out_path);
  if (!s.ok()) return Fail(s);
  std::printf("built engine in %.1f ms (%zu concept graphs, |I|=%zu); "
              "wrote %s\n",
              build_ms, engine.index().num_concept_graphs(),
              engine.index().TotalSize(), out_path.c_str());
  return 0;
}

int CmdQuery(const FlagMap& flags) {
  std::string pattern = GetFlag(flags, "pattern", "");
  if (pattern.empty()) {
    std::fprintf(stderr, "query needs --pattern '(a:label)-[rel]->(b:label)'\n");
    return 1;
  }

  // The engine comes either from a binary snapshot (the cold-start path:
  // mmap, validate, serve — no text parsing, no index build) or from text
  // files with the index built here.
  gen::Dataset ds;
  std::unique_ptr<QueryEngine> engine;
  std::string snapshot_path = GetFlag(flags, "snapshot", "");
  if (!snapshot_path.empty()) {
    SnapshotLoadStats load_stats;
    WallTimer load_timer;
    Status s =
        LoadEngineSnapshot(snapshot_path, &ds.dict, &engine, &load_stats);
    if (!s.ok()) return Fail(s);
    std::printf("loaded snapshot in %.1f ms (%zu bytes, %s)\n",
                load_timer.ElapsedMillis(), load_stats.file_bytes,
                load_stats.mapped ? "mmap" : "read");
  } else {
    if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
    engine = std::make_unique<QueryEngine>(std::move(ds.graph),
                                           std::move(ds.ontology),
                                           IndexOptionsFromFlags(flags));
  }

  ParsedPattern parsed;
  Status s = ParsePattern(pattern, &ds.dict, &parsed);
  if (!s.ok()) return Fail(s);

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  options.deadline_ms = GetDouble(flags, "deadline-ms", 0.0);
  std::string semantics = GetFlag(flags, "semantics", "induced");
  if (semantics == "homomorphic") {
    options.semantics = MatchSemantics::kHomomorphicEdges;
  } else if (semantics != "induced") {
    std::fprintf(stderr, "unknown --semantics '%s'\n", semantics.c_str());
    return 1;
  }

  if (GetFlag(flags, "explain", "0") == "1") {
    std::fputs(
        ExplainQuery(engine->index(), parsed.query, options, ds.dict).c_str(),
        stdout);
    return 0;
  }

  WallTimer timer;
  QueryResult result = engine->Query(parsed.query, options);
  double ms = timer.ElapsedMillis();
  if (!result.status.ok()) return Fail(result.status);

  // Invert the pattern's name map for printing.
  std::vector<std::string> names(parsed.query.num_nodes());
  for (const auto& [name, id] : parsed.node_ids) {
    names[id] = name;
  }
  std::printf("%zu match(es) in %.2f ms (G_v: %zu nodes)",
              result.matches.size(), ms, result.filter_stats.gv_nodes);
  if (!result.complete()) {
    std::printf(" [%s: partial result]",
                StopReasonName(result.completeness));
  }
  std::printf("\n");
  const Graph& graph = engine->graph();
  for (const Match& m : result.matches) {
    std::printf("  score %.4f: ", m.score);
    for (NodeId u = 0; u < parsed.query.num_nodes(); ++u) {
      std::printf(" %s=%s(v%u)", names[u].c_str(),
                  ds.dict.Name(graph.NodeLabel(m.mapping[u])).c_str(),
                  m.mapping[u]);
    }
    std::printf("\n");
  }
  return 0;
}

int CmdBench(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  std::string queries_path = GetFlag(flags, "queries", "");
  if (queries_path.empty()) {
    std::fprintf(stderr, "bench needs --queries <patterns file>\n");
    return 1;
  }
  std::vector<ParsedPattern> patterns;
  Status s = LoadPatternsFromFile(queries_path, &ds.dict, &patterns);
  if (!s.ok()) return Fail(s);
  if (patterns.empty()) {
    std::fprintf(stderr, "no patterns in %s\n", queries_path.c_str());
    return 1;
  }

  WallTimer build_timer;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptionsFromFlags(flags));
  std::printf("index built in %.1f ms; %zu queries from %s\n",
              build_timer.ElapsedMillis(), patterns.size(),
              queries_path.c_str());

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  size_t reps = GetSize(flags, "reps", 3);

  std::printf("%-6s %10s %10s %10s %10s\n", "query", "ms", "|Gv|",
              "matches", "best");
  double total_ms = 0.0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Graph& q = patterns[i].query;
    QueryResult result;
    WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      result = engine.Query(q, options);
      if (!result.status.ok()) {
        std::fprintf(stderr, "query %zu: ", i + 1);
        return Fail(result.status);
      }
    }
    double ms = timer.ElapsedMillis() / static_cast<double>(reps);
    total_ms += ms;
    std::printf("%-6zu %10.3f %10zu %10zu %10.3f\n", i + 1, ms,
                result.filter_stats.gv_nodes, result.matches.size(),
                result.matches.empty() ? 0.0 : result.matches[0].score);
  }
  std::printf("total %.3f ms, avg %.3f ms/query\n", total_ms,
              total_ms / static_cast<double>(patterns.size()));
  return 0;
}

int CmdStats(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  size_t components = 0;
  WeakComponents(ds.graph, &components);
  std::printf("graph:    %zu nodes, %zu edges, %zu weak components\n",
              ds.graph.num_nodes(), ds.graph.num_edges(), components);
  std::printf("ontology: %zu concepts, %zu relations\n",
              ds.ontology.num_labels(), ds.ontology.num_relations());
  std::printf("labels:   %zu distinct strings interned\n", ds.dict.size());
  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer timer;
  IndexBuildStats stats;
  OntologyIndex index =
      OntologyIndex::Build(ds.graph, ds.ontology, idx, &stats);
  std::printf("index:    %zu concept graphs, %zu blocks, |I|=%zu "
              "(built in %.1f ms)\n",
              index.num_concept_graphs(), stats.total_blocks,
              index.TotalSize(), timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagMap flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return 1;
  if (command == "generate") return CmdGenerate(flags);
  if (command == "snapshot") return CmdSnapshot(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "bench") return CmdBench(flags);
  if (command == "stats") return CmdStats(flags);
  return Usage();
}
