// Direct property tests of Prop. 4.2 and the G_v contract on random
// workloads: the extracted subgraph must contain every match that a
// whole-graph ground-truth matcher finds, an empty filter result must
// imply an empty ground truth, and G_v must be exactly the induced
// subgraph over the surviving candidates.

#include <set>

#include <gtest/gtest.h>
#include "baseline/simmatrix.h"
#include "common/rng.h"
#include "core/filtering.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/query_graph.h"

namespace osq {
namespace {

struct World {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
};

World MakeWorld(uint64_t seed) {
  World w;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = 140;
  gp.num_edges = 420;
  gp.num_labels = 22;
  gp.num_edge_labels = 2;
  gp.seed = seed;
  w.g = gen::MakeRandomGraph(gp, &w.dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 22;
  op.seed = seed + 1;
  w.o = gen::MakeTaxonomyOntology(op, &w.dict);
  return w;
}

class Prop42Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop42Test, GvContainsEveryGroundTruthMatch) {
  uint64_t seed = GetParam();
  World w = MakeWorld(seed);
  SimilarityFunction sim(0.9);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});

  Rng rng(seed + 3);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.5;
  for (int qi = 0; qi < 6; ++qi) {
    Graph q = gen::ExtractQuery(w.g, w.o, qp, &rng);
    if (q.empty() || !ValidateQuery(q).ok()) continue;
    QueryOptions options;
    options.theta = 0.81;
    options.k = 0;

    // Ground truth: exhaustive matching over the whole graph.
    SimMatrix m = BuildSimMatrix(q, w.g, w.o, sim, options.theta);
    std::vector<Match> truth = SimMatrixMatch(q, w.g, m, options);

    FilterResult filter = GviewFilter(index, q, options);
    if (filter.no_match) {
      // Emptiness proof must be correct.
      EXPECT_TRUE(truth.empty());
      continue;
    }
    // Candidate membership per query node (in original ids).
    std::vector<std::set<NodeId>> cand(q.num_nodes());
    for (NodeId u = 0; u < q.num_nodes(); ++u) {
      for (const Candidate& c : filter.candidates[u]) {
        cand[u].insert(filter.gv.to_original[c.node]);
      }
    }
    for (const Match& match : truth) {
      for (NodeId u = 0; u < q.num_nodes(); ++u) {
        EXPECT_TRUE(cand[u].count(match.mapping[u]) > 0)
            << "match node " << match.mapping[u]
            << " lost by the filter for query node " << u;
      }
    }
  }
}

TEST_P(Prop42Test, GvIsInducedSubgraphOverCandidates) {
  uint64_t seed = GetParam();
  World w = MakeWorld(seed);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});
  Rng rng(seed + 4);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.5;
  Graph q;
  while (q.empty()) q = gen::ExtractQuery(w.g, w.o, qp, &rng);

  QueryOptions options;
  options.theta = 0.81;
  FilterResult filter = GviewFilter(index, q, options);
  if (filter.no_match) return;
  const Graph& gv = filter.gv.graph;
  // Every G_v edge exists in G with identical endpoints/labels; and every
  // G edge between G_v nodes exists in G_v (induced).
  for (NodeId v = 0; v < gv.num_nodes(); ++v) {
    NodeId orig = filter.gv.to_original[v];
    for (const AdjEntry& e : gv.OutEdges(v)) {
      EXPECT_TRUE(
          w.g.HasEdge(orig, filter.gv.to_original[e.node], e.label));
    }
    for (const AdjEntry& e : w.g.OutEdges(orig)) {
      NodeId local = filter.gv.LocalId(e.node);
      if (local != kInvalidNode) {
        EXPECT_TRUE(gv.HasEdge(v, local, e.label));
      }
    }
  }
}

TEST_P(Prop42Test, CandidateSimilaritiesRespectTheta) {
  uint64_t seed = GetParam();
  World w = MakeWorld(seed);
  SimilarityFunction sim(0.9);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});
  Rng rng(seed + 5);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.7;
  Graph q;
  while (q.empty()) q = gen::ExtractQuery(w.g, w.o, qp, &rng);

  for (double theta : {0.9, 0.81, 0.729}) {
    QueryOptions options;
    options.theta = theta;
    FilterResult filter = GviewFilter(index, q, options);
    if (filter.no_match) continue;
    for (NodeId u = 0; u < q.num_nodes(); ++u) {
      for (const Candidate& c : filter.candidates[u]) {
        NodeId orig = filter.gv.to_original[c.node];
        double expected = sim.Similarity(
            w.o, q.NodeLabel(u), w.g.NodeLabel(orig), /*theta_floor=*/0.5);
        EXPECT_NEAR(c.sim, expected, 1e-12);
        EXPECT_GE(c.sim, theta - 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop42Test,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u));

}  // namespace
}  // namespace osq
