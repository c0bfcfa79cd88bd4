// Quickstart: build a tiny labeled graph and an ontology, then run an
// ontology-based subgraph query through the QueryEngine.
//
//   cmake --build build && ./build/examples/quickstart
//
// The query asks for a "scientist" who "wrote" a "book".  The data graph
// contains no node labeled scientist or book — but it does contain a
// physicist who wrote a monograph, and the ontology knows that a physicist
// is a kind of scientist and a monograph is a kind of book.

#include <cstdio>

#include "core/query_engine.h"
#include "graph/query_graph.h"

int main() {
  using namespace osq;

  // 1. One dictionary shared by the data graph, ontology and queries.
  LabelDictionary dict;

  // 2. The data graph: entities and typed relationships.
  StringGraphBuilder data(&dict);
  data.AddNode("einstein", "physicist");
  data.AddNode("relativity", "monograph");
  data.AddNode("darwin", "biologist");
  data.AddNode("origin", "monograph");
  data.AddNode("hamlet", "play");
  data.AddNode("shakespeare", "playwright");
  data.AddEdge("einstein", "relativity", "wrote");
  data.AddEdge("darwin", "origin", "wrote");
  data.AddEdge("shakespeare", "hamlet", "wrote");

  // 3. The ontology graph: semantic closeness between labels.
  OntologyGraph ontology;
  auto rel = [&](const char* a, const char* b) {
    ontology.AddRelation(dict.Intern(a), dict.Intern(b));
  };
  rel("scientist", "physicist");
  rel("scientist", "biologist");
  rel("author", "scientist");
  rel("author", "playwright");
  rel("book", "monograph");
  rel("book", "play");

  // 4. The query: scientist -wrote-> book (no identical labels in G!).
  StringGraphBuilder query(&dict);
  query.AddNode("who", "scientist");
  query.AddNode("what", "book");
  query.AddEdge("who", "what", "wrote");

  // 5. Build the engine (constructs the ontology index) and query.
  QueryEngine engine(data.TakeGraph(), std::move(ontology), IndexOptions{});
  QueryOptions options;
  options.theta = 0.9;  // accept labels within one ontology hop
  options.k = 10;
  QueryResult result = engine.Query(query.graph(), options);
  if (!result.status.ok()) {
    std::printf("query rejected: %s\n", result.status.ToString().c_str());
    return 1;
  }

  std::printf("top-%zu matches (theta = %.2f):\n", options.k, options.theta);
  const char* names[] = {"einstein", "relativity", "darwin",
                         "origin",   "hamlet",     "shakespeare"};
  for (const Match& m : result.matches) {
    std::printf("  score %.3f:  who -> %-12s what -> %s\n", m.score,
                names[m.mapping[query.NodeIdOf("who")]],
                names[m.mapping[query.NodeIdOf("what")]]);
  }
  std::printf("filter extracted G_v with %zu nodes (of %zu)\n",
              result.filter_stats.gv_nodes, engine.graph().num_nodes());
  return 0;
}
