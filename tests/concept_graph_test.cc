#include "concept/concept_graph.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "ontology/ontology_partition.h"
#include "test_util.h"

namespace osq {
namespace {

// Builds the Fig. 3 / Example IV.2 color concept graph with concept labels
// {red, blue, green} and beta = 0.81.
ConceptGraph BuildColorConceptGraph(const test::ColorFixture& f,
                                    ConceptGraphStats* stats = nullptr) {
  SimilarityFunction sim(0.9);
  ConceptGraphOptions options;
  options.beta = 0.81;
  return ConceptGraph::Build(
      f.g, f.o, sim, options,
      {f.red_label, f.blue_label, f.green_label}, stats);
}

std::set<std::set<NodeId>> BlocksAsSets(const ConceptGraph& cg) {
  std::set<std::set<NodeId>> result;
  for (BlockId b : cg.AliveBlocks()) {
    result.insert(std::set<NodeId>(cg.Members(b).begin(),
                                   cg.Members(b).end()));
  }
  return result;
}

TEST(ConceptGraphTest, ColorExampleReproducesFig5Partition) {
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraphStats stats;
  ConceptGraph cg = BuildColorConceptGraph(f, &stats);

  // Example IV.2: initial partition {red, blue, green}, three splits.
  EXPECT_EQ(stats.initial_blocks, 3u);
  EXPECT_EQ(stats.final_blocks, 6u);
  EXPECT_EQ(cg.num_blocks(), 6u);

  // Fig. 5: {rose,pink} {flame} | {blue,sky} {violet} | {green,lime} {olive}
  std::set<std::set<NodeId>> expected = {
      {f.rose, f.pink}, {f.flame},       {f.blue, f.sky},
      {f.violet},       {f.green, f.lime}, {f.olive}};
  EXPECT_EQ(BlocksAsSets(cg), expected);
  EXPECT_TRUE(cg.Validate());
}

TEST(ConceptGraphTest, ColorExampleBlockLabels) {
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraph cg = BuildColorConceptGraph(f);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(f.rose)), f.red_label);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(f.flame)), f.red_label);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(f.violet)), f.blue_label);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(f.olive)), f.green_label);
}

TEST(ConceptGraphTest, ColorExampleBlockEdges) {
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraph cg = BuildColorConceptGraph(f);
  BlockId red1 = cg.BlockOf(f.rose);    // {rose, pink}
  BlockId red2 = cg.BlockOf(f.flame);   // {flame}
  BlockId blue1 = cg.BlockOf(f.blue);   // {blue, sky}
  BlockId blue2 = cg.BlockOf(f.violet); // {violet}
  BlockId green2 = cg.BlockOf(f.olive); // {olive}
  EXPECT_EQ(cg.Successors(red1), std::vector<BlockId>{blue1});
  EXPECT_EQ(cg.Successors(red2), std::vector<BlockId>{blue2});
  std::vector<BlockId> pred_violet = cg.Predecessors(blue2);
  std::sort(pred_violet.begin(), pred_violet.end());
  std::vector<BlockId> expected = {red2, green2};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pred_violet, expected);
  std::vector<BlockId> succ_red1 = cg.Successors(red1);
  EXPECT_EQ(std::count(succ_red1.begin(), succ_red1.end(), blue1), 1);
  EXPECT_EQ(std::count(succ_red1.begin(), succ_red1.end(), blue2), 0);
  EXPECT_EQ(std::count(pred_violet.begin(), pred_violet.end(), green2), 1);
}

TEST(ConceptGraphTest, BlocksWithLabelTracksSplits) {
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraph cg = BuildColorConceptGraph(f);
  EXPECT_EQ(cg.BlocksWithLabel(f.red_label).size(), 2u);
  EXPECT_EQ(cg.BlocksWithLabel(f.blue_label).size(), 2u);
  EXPECT_EQ(cg.BlocksWithLabel(f.green_label).size(), 2u);
  EXPECT_TRUE(cg.BlocksWithLabel(f.dict.Lookup("rose")).empty());
}

TEST(ConceptGraphTest, SizeCountsBlocksAndEdges) {
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraph cg = BuildColorConceptGraph(f);
  // 6 blocks; block edges: red1->blue1, red2->blue2, green2->blue2.
  EXPECT_EQ(cg.SizeNodesPlusEdges(), 6u + 3u);
}

TEST(ConceptGraphTest, UncoveredLabelBecomesOwnConcept) {
  // A data node whose label is not in the ontology at all.
  LabelDictionary dict;
  OntologyGraph o;
  o.AddRelation(dict.Intern("a"), dict.Intern("b"));
  Graph g;
  g.AddNode(dict.Intern("a"));
  g.AddNode(dict.Intern("mystery"));
  SimilarityFunction sim(0.9);
  ConceptGraph cg = ConceptGraph::Build(g, o, sim, {.beta = 0.81},
                                        {dict.Lookup("a")});
  EXPECT_TRUE(cg.Validate());
  EXPECT_EQ(cg.num_blocks(), 2u);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(1)), dict.Lookup("mystery"));
}

TEST(ConceptGraphTest, NodesWithSameConceptGrouped) {
  // Two nodes with different labels but the same nearest concept label and
  // identical (empty) neighborhoods stay in one block.
  LabelDictionary dict;
  OntologyGraph o;
  LabelId c = dict.Intern("c");
  LabelId x = dict.Intern("x");
  LabelId y = dict.Intern("y");
  o.AddRelation(c, x);
  o.AddRelation(c, y);
  Graph g;
  g.AddNode(x);
  g.AddNode(y);
  SimilarityFunction sim(0.9);
  ConceptGraph cg = ConceptGraph::Build(g, o, sim, {.beta = 0.81}, {c});
  EXPECT_EQ(cg.num_blocks(), 1u);
  EXPECT_EQ(cg.Members(cg.BlockOf(0)).size(), 2u);
  EXPECT_TRUE(cg.Validate());
}

TEST(ConceptGraphTest, EmptyGraph) {
  LabelDictionary dict;
  OntologyGraph o;
  o.AddRelation(dict.Intern("a"), dict.Intern("b"));
  Graph g;
  SimilarityFunction sim(0.9);
  ConceptGraph cg =
      ConceptGraph::Build(g, o, sim, {.beta = 0.81}, {dict.Lookup("a")});
  EXPECT_EQ(cg.num_blocks(), 0u);
  EXPECT_TRUE(cg.Validate());
}

TEST(ConceptGraphTest, EdgeLabelAwareSplitsFiner) {
  // Two nodes under one concept, each pointing at the same target block but
  // with different edge labels: label-unaware keeps them together,
  // label-aware splits them.
  LabelDictionary dict;
  OntologyGraph o;
  LabelId c = dict.Intern("c");
  LabelId x = dict.Intern("x");
  LabelId t = dict.Intern("t");
  o.AddRelation(c, x);
  o.AddLabel(t);
  Graph g;
  NodeId a = g.AddNode(x);
  NodeId b = g.AddNode(x);
  NodeId target1 = g.AddNode(t);
  NodeId target2 = g.AddNode(t);
  g.AddEdge(a, target1, /*label=*/1);
  g.AddEdge(b, target2, /*label=*/2);
  SimilarityFunction sim(0.9);

  ConceptGraph unaware = ConceptGraph::Build(
      g, o, sim, {.beta = 0.81, .edge_label_aware = false}, {c, t});
  EXPECT_EQ(unaware.BlockOf(a), unaware.BlockOf(b));
  EXPECT_TRUE(unaware.Validate());

  ConceptGraph aware = ConceptGraph::Build(
      g, o, sim, {.beta = 0.81, .edge_label_aware = true}, {c, t});
  EXPECT_NE(aware.BlockOf(a), aware.BlockOf(b));
  EXPECT_TRUE(aware.Validate());
}

TEST(ConceptGraphTest, ValidateCatchesForeignGraphMutation) {
  // Mutating the data graph behind the index's back breaks the invariant;
  // Validate must notice.  (The supported path is RepairAfterEdge*.)
  test::ColorFixture f = test::MakeColorFixture();
  ConceptGraph cg = BuildColorConceptGraph(f);
  ASSERT_TRUE(cg.Validate());
  f.g.AddEdge(f.rose, f.violet, 0);  // rose now differs from pink
  EXPECT_FALSE(cg.Validate());
}

TEST(ConceptGraphTest, TravelFixtureValidates) {
  test::TravelFixture f = test::MakeTravelFixture();
  SimilarityFunction sim(0.9);
  Rng rng(1);
  std::vector<LabelId> concepts =
      SelectConceptLabels(f.o, sim, 0.81, 3, &rng);
  ConceptGraph cg =
      ConceptGraph::Build(f.g, f.o, sim, {.beta = 0.81}, concepts);
  EXPECT_TRUE(cg.Validate());
  EXPECT_GE(cg.num_blocks(), 2u);
  // Every data node is in some block with a sufficiently similar label.
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    BlockId b = cg.BlockOf(v);
    EXPECT_TRUE(cg.IsAlive(b));
    EXPECT_TRUE(
        sim.AtLeast(f.o, f.g.NodeLabel(v), cg.BlockLabel(b), 0.81));
  }
}

}  // namespace
}  // namespace osq
