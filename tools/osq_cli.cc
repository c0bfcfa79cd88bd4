// osq_cli — command-line front end for the OSQ library.
//
//   osq_cli generate --type crossdomain --scale 5000 --seed 7
//           --graph g.txt --ontology o.txt
//   osq_cli snapshot --graph g.txt --ontology o.txt --out engine.snp
//           [--base 0.9] [--threads N]
//           (build the engine, save it as a binary snapshot)
//   osq_cli query    --graph g.txt --ontology o.txt
//           --pattern '(t:tourists)-[guide]->(m:museum)'
//           [--theta 0.9] [--k 10] [--explain]
//           [--semantics induced|homomorphic] [--base 0.9] [--threads N]
//           [--deadline-ms 0]
//   osq_cli query    --snapshot engine.snp --pattern ...
//           (cold start from the binary snapshot; no text parsing,
//            no index build)
//   osq_cli bench    --graph g.txt --ontology o.txt --queries q.txt
//           [--theta 0.9] [--k 10] [--reps 3] [--base 0.9] [--threads N]
//   osq_cli stats    --graph g.txt --ontology o.txt
//           [--beta 0.81] [--n 2] [--seed 42] [--edge-label-aware 1]
//           [--base 0.9] [--threads N]
//           (graph and ontology sizes, and the paper's index of --n
//            concept graphs, a ConceptIndex; the engine builds none, so
//            only stats reads --beta, --n, --seed and --edge-label-aware)
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
// --base is the exponential similarity's base, sim = base^distance.
// Count flags take whole decimal numbers, --n and --reps at least 1.
// Real-valued flags take finite decimal numbers: --theta and --beta in
// (0, 1], --base in (0, 1), --deadline-ms >= 0.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime errors
// (including a query the engine rejects) and on a bad numeric flag value.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "concept/concept_index.h"
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

// An interval a real-valued flag must fall in.
struct Interval {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;
  const char* text;

  bool Contains(double x) const {
    return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
  }
};
constexpr Interval kUnitOpenClosed{0.0, 1.0, true, false, "in (0, 1]"};
constexpr Interval kUnitOpen{0.0, 1.0, true, true, "in (0, 1)"};
constexpr Interval kNonNegative{0.0, HUGE_VAL, false, true, ">= 0"};

// Reads --name as a finite decimal number (the whole value must parse) in
// `range`.  Any other value is a bad flag: the program ends with exit
// status 2.
double GetDouble(const FlagMap& flags, const std::string& name, double def,
                 const Interval& range) {
  auto it = flags.find(name);
  if (it == flags.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text, &end);
  // strtod skips leading blanks: the value must start the text.
  bool ok = text[0] != '\0' &&
            std::isspace(static_cast<unsigned char>(text[0])) == 0 &&
            *end == '\0' && errno != ERANGE && std::isfinite(value) &&
            range.Contains(value);
  if (!ok) {
    std::fprintf(stderr, "error: --%s %s: want a number %s\n", name.c_str(),
                 text, range.text);
    std::exit(2);
  }
  return value;
}

// Reads --name as a whole decimal number of at least `min`.  Any other
// value (not a number, out of range, below `min`) is a bad flag: the
// program ends with exit status 2.
size_t GetSize(const FlagMap& flags, const std::string& name, size_t def,
               size_t min = 0) {
  auto it = flags.find(name);
  if (it == flags.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  // strtoull skips blanks and negates a leading '-': accept digits only.
  bool ok = std::isdigit(static_cast<unsigned char>(text[0])) != 0 &&
            *end == '\0' && errno != ERANGE && value >= min;
  if (!ok) {
    std::fprintf(stderr, "error: --%s %s: want a whole number >= %zu\n",
                 name.c_str(), text, min);
    std::exit(2);
  }
  return static_cast<size_t>(value);
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
  idx.similarity_base =
      GetDouble(flags, "base", idx.similarity_base, kUnitOpen);
  idx.num_threads = GetSize(flags, "threads", idx.num_threads);
  return idx;
}

// The paper's index options; only `stats` builds that index.
ConceptIndexOptions ConceptIndexOptionsFromFlags(const FlagMap& flags) {
  ConceptIndexOptions cidx;
  cidx.beta = GetDouble(flags, "beta", cidx.beta, kUnitOpenClosed);
  cidx.num_concept_graphs =
      GetSize(flags, "n", cidx.num_concept_graphs, /*min=*/1);
  cidx.seed = GetSize(flags, "seed", cidx.seed);
  cidx.edge_label_aware = GetFlag(flags, "edge-label-aware", "0") == "1";
  return cidx;
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
  std::printf("built engine in %.1f ms; wrote %s\n", build_ms,
              out_path.c_str());
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
  options.theta =
      GetDouble(flags, "theta", options.theta, kUnitOpenClosed);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  options.deadline_ms = GetDouble(flags, "deadline-ms", 0.0, kNonNegative);
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

  QueryOptions options;
  options.theta =
      GetDouble(flags, "theta", options.theta, kUnitOpenClosed);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  size_t reps = GetSize(flags, "reps", 3, /*min=*/1);

  WallTimer build_timer;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptionsFromFlags(flags));
  std::printf("index built in %.1f ms; %zu queries from %s\n",
              build_timer.ElapsedMillis(), patterns.size(),
              queries_path.c_str());

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
  WallTimer timer;
  IndexBuildStats stats;
  ConceptIndex index =
      ConceptIndex::Build(ds.graph, ds.ontology, IndexOptionsFromFlags(flags),
                          ConceptIndexOptionsFromFlags(flags), &stats);
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
