// The paper's running example (Figures 1-2, Examples I.1-II.2): querying a
// social travel network for "tourists who recommend museum tours with guide
// services and favor a restaurant named moonlight near the museum".
//
// Traditional subgraph isomorphism finds nothing — no node in the network
// is labeled museum, tourists or moonlight.  Ontology-based querying finds
// the Royal Gallery / Culture Tours / Starlight triangle with score 2.7,
// and at a lower threshold also the Disneyland / Holiday Tours / Holiday
// Cafe triangle (score 2.61), ranked below it.

#include <cstdio>
#include <string>

#include "baseline/subiso.h"
#include "core/query_engine.h"
#include "graph/query_graph.h"

int main() {
  using namespace osq;
  LabelDictionary dict;

  // Travel ontology O_g (Fig. 2).
  OntologyGraph ontology;
  auto rel = [&](const std::string& a, const std::string& b) {
    ontology.AddRelation(dict.Intern(a), dict.Intern(b));
  };
  rel("museum", "royal_gallery");
  rel("museum", "attractions");
  rel("museum", "park");
  rel("park", "disneyland");
  rel("attractions", "park");
  rel("tourists", "culture_tours");
  rel("tourists", "holiday_tours");
  rel("moonlight", "starlight");
  rel("moonlight", "holiday_cafe");
  rel("moonlight", "holiday_plaza");
  rel("leisure_center", "holiday_plaza");
  rel("leisure_center", "royal_palace");

  // Travel social network G (Fig. 1).
  StringGraphBuilder data(&dict);
  data.AddEdge("culture_tours", "royal_gallery", "guide");
  data.AddEdge("culture_tours", "starlight", "fav");
  data.AddEdge("starlight", "royal_gallery", "near");
  data.AddEdge("holiday_tours", "disneyland", "guide");
  data.AddEdge("holiday_tours", "holiday_cafe", "fav");
  data.AddEdge("holiday_cafe", "disneyland", "near");
  data.AddEdge("holiday_plaza", "disneyland", "near");
  data.AddEdge("royal_palace", "royal_gallery", "near");

  // Query Q (Fig. 1).
  StringGraphBuilder qb(&dict);
  qb.AddNode("q_tourists", "tourists");
  qb.AddNode("q_museum", "museum");
  qb.AddNode("q_moonlight", "moonlight");
  qb.AddEdge("q_tourists", "q_museum", "guide");
  qb.AddEdge("q_tourists", "q_moonlight", "fav");
  qb.AddEdge("q_moonlight", "q_museum", "near");
  Graph query = qb.TakeGraph();

  Graph g = data.TakeGraph();
  std::printf("data graph: %zu nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  // Traditional subgraph isomorphism (Example I.1): nothing.
  std::printf("SubIso (identical labels): %zu matches\n",
              SubIso(query, g, MatchSemantics::kInduced).size());

  // Ontology-based querying.
  QueryEngine engine(std::move(g), std::move(ontology), IndexOptions{});
  auto describe = [&](NodeId v) {
    return dict.Name(engine.graph().NodeLabel(v));
  };
  for (double theta : {0.9, 0.81}) {
    QueryOptions options;
    options.theta = theta;
    options.k = 10;
    QueryResult r = engine.Query(query, options);
    std::printf("\nontology-based querying, theta = %.2f -> %zu match(es)\n",
                theta, r.matches.size());
    for (const Match& m : r.matches) {
      std::printf("  score %.2f:  tourists=%s museum=%s moonlight=%s\n",
                  m.score, describe(m.mapping[0]).c_str(),
                  describe(m.mapping[1]).c_str(),
                  describe(m.mapping[2]).c_str());
    }
    std::printf("  G_v: %zu nodes; filter %.3f ms, verify %.3f ms\n",
                r.filter_stats.gv_nodes, r.filter_ms, r.verify_ms);
  }
  return 0;
}
