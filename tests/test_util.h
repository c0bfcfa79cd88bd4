// Shared test fixtures encoding the paper's running examples.
//
// TravelFixture: the social travel network of Fig. 1 with the travel
// ontology of Fig. 2 and the query Q ("tourists who recommend museum tours
// with guide services and favor a restaurant close to the museum").  The
// restaurant the OCR of the paper leaves blank is named "starlight" here.
// Distances are arranged so the paper's numbers hold exactly:
//   sim(museum, royal_gallery) = 0.9      (Example I.2 / II.2)
//   sim(museum, disneyland)    = 0.81     (Example II.1)
//   best match {RG, CT, starlight} scores 0.9 * 3 = 2.7 (Example II.2)
//
// ColorFixture: the color graph G_c and ontology O_gc of Fig. 3, with data
// edges arranged so that CGraph refinement reproduces the final concept
// graph of Example IV.2 / Fig. 5: {rose,pink} {flame} {blue,sky} {violet}
// {green,lime} {olive}.

#ifndef OSQ_TESTS_TEST_UTIL_H_
#define OSQ_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/match.h"
#include "core/ontology_index.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "graph/label_dictionary.h"
#include "graph/query_graph.h"
#include "ontology/ontology_graph.h"

namespace osq {
namespace test {

struct TravelFixture {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
  Graph query;
  // Data node ids.
  NodeId ct, rg, starlight, ht, disneyland, hc, hp, rp;
  // Query node ids.
  NodeId q_tourists, q_museum, q_moonlight;
  // Edge label ids.
  LabelId guide, fav, near;
};

inline TravelFixture MakeTravelFixture() {
  TravelFixture f;
  LabelDictionary* d = &f.dict;

  // Ontology O_g (Fig. 2): one hop from each query term to its matches.
  auto rel = [&](const std::string& a, const std::string& b) {
    f.o.AddRelation(d->Intern(a), d->Intern(b));
  };
  rel("museum", "royal_gallery");   // RG is a kind of museum
  rel("museum", "attractions");
  rel("museum", "park");
  rel("park", "disneyland");        // dist(museum, disneyland) == 2
  rel("attractions", "park");
  rel("tourists", "culture_tours");
  rel("tourists", "holiday_tours");
  rel("moonlight", "starlight");    // renamed restaurant, dist 1
  rel("moonlight", "holiday_cafe");
  rel("moonlight", "holiday_plaza");
  rel("leisure_center", "holiday_plaza");
  rel("leisure_center", "royal_palace");

  // Data graph G (Fig. 1).
  StringGraphBuilder gb(d);
  auto node = [&](const std::string& name) { return gb.AddNode(name, name); };
  f.ct = node("culture_tours");
  f.rg = node("royal_gallery");
  f.starlight = node("starlight");
  f.ht = node("holiday_tours");
  f.disneyland = node("disneyland");
  f.hc = node("holiday_cafe");
  f.hp = node("holiday_plaza");
  f.rp = node("royal_palace");
  gb.AddEdge("culture_tours", "royal_gallery", "guide");
  gb.AddEdge("culture_tours", "starlight", "fav");
  gb.AddEdge("starlight", "royal_gallery", "near");
  gb.AddEdge("holiday_tours", "disneyland", "guide");
  gb.AddEdge("holiday_tours", "holiday_cafe", "fav");
  gb.AddEdge("holiday_cafe", "disneyland", "near");
  gb.AddEdge("holiday_plaza", "disneyland", "near");
  gb.AddEdge("royal_palace", "royal_gallery", "near");
  f.g = gb.TakeGraph();

  // Query Q (Fig. 1).
  StringGraphBuilder qb(d);
  f.q_tourists = qb.AddNode("q_tourists", "tourists");
  f.q_museum = qb.AddNode("q_museum", "museum");
  f.q_moonlight = qb.AddNode("q_moonlight", "moonlight");
  qb.AddEdge("q_tourists", "q_museum", "guide");
  qb.AddEdge("q_tourists", "q_moonlight", "fav");
  qb.AddEdge("q_moonlight", "q_museum", "near");
  f.query = qb.TakeGraph();

  f.guide = d->Lookup("guide");
  f.fav = d->Lookup("fav");
  f.near = d->Lookup("near");
  return f;
}

struct ColorFixture {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
  // Node ids by color name, in the order added below.
  NodeId rose, pink, flame, blue, sky, violet, green, lime, olive;
  LabelId red_label, blue_label, green_label;
};

inline ColorFixture MakeColorFixture() {
  ColorFixture f;
  LabelDictionary* d = &f.dict;
  // Ontology O_gc: star around each primary color.
  auto rel = [&](const std::string& a, const std::string& b) {
    f.o.AddRelation(d->Intern(a), d->Intern(b));
  };
  rel("red", "rose");
  rel("red", "pink");
  rel("red", "flame");
  rel("blue", "sky");
  rel("blue", "violet");
  rel("green", "lime");
  rel("green", "olive");
  // Keep the ontology connected like Fig. 3 (primaries relate).
  rel("red", "blue");
  rel("blue", "green");

  StringGraphBuilder gb(d);
  f.rose = gb.AddNode("n_rose", "rose");
  f.pink = gb.AddNode("n_pink", "pink");
  f.flame = gb.AddNode("n_flame", "flame");
  f.blue = gb.AddNode("n_blue", "blue");
  f.sky = gb.AddNode("n_sky", "sky");
  f.violet = gb.AddNode("n_violet", "violet");
  f.green = gb.AddNode("n_green", "green");
  f.lime = gb.AddNode("n_lime", "lime");
  f.olive = gb.AddNode("n_olive", "olive");
  // Data edges chosen so refinement reproduces Fig. 5's final partition.
  gb.AddEdge("n_rose", "n_blue", "sim");
  gb.AddEdge("n_pink", "n_sky", "sim");
  gb.AddEdge("n_flame", "n_violet", "sim");
  gb.AddEdge("n_olive", "n_violet", "sim");
  f.g = gb.TakeGraph();

  f.red_label = d->Lookup("red");
  f.blue_label = d->Lookup("blue");
  f.green_label = d->Lookup("green");
  return f;
}

// Canonical form for comparing result sets across algorithms: each match's
// mapping with its score rounded to 1e-9.
inline std::set<std::pair<std::vector<NodeId>, int64_t>> Canon(
    const std::vector<Match>& matches) {
  std::set<std::pair<std::vector<NodeId>, int64_t>> out;
  for (const Match& m : matches) {
    out.insert({m.mapping, static_cast<int64_t>(m.score * 1e9 + 0.5)});
  }
  return out;
}

// True when the engine's incrementally maintained candidate index equals
// one rebuilt from its current graph — the serving index's invariant under
// maintenance.
inline bool IndexMatchesRebuild(const QueryEngine& engine) {
  return engine.index().candidate_index() ==
         CandidateIndex::Build(engine.graph(), /*num_threads=*/1);
}

}  // namespace test
}  // namespace osq

#endif  // OSQ_TESTS_TEST_UTIL_H_
