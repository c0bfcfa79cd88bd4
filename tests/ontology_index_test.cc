// Both indexes: the serving index (OntologyIndex: similarity plus the
// candidate index) and the paper's ontology index I of concept graphs
// (ConceptIndex, §IV-A OntoIdx).

#include "core/ontology_index.h"

#include <utility>

#include <gtest/gtest.h>
#include "concept/concept_index.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace osq {
namespace {

TEST(OntologyIndexTest, BuildsRequestedNumberOfConceptGraphs) {
  test::TravelFixture f = test::MakeTravelFixture();
  ConceptIndexOptions options;
  options.num_concept_graphs = 3;
  ConceptIndex index = ConceptIndex::Build(f.g, f.o, IndexOptions{}, options);
  EXPECT_EQ(index.num_concept_graphs(), 3u);
  EXPECT_TRUE(index.Validate());
}

// The serving index holds the candidate index alone: no concept graph and
// zero build stats.
TEST(OntologyIndexTest, BuildMakesNoConceptGraph) {
  test::TravelFixture f = test::MakeTravelFixture();
  IndexBuildStats stats;
  stats.total_blocks = 7;
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{}, &stats);
  EXPECT_EQ(index.num_concept_graphs(), 0u);
  EXPECT_EQ(stats.total_blocks, 0u);
  EXPECT_TRUE(stats.per_graph.empty());
  EXPECT_EQ(index.candidate_index().num_nodes(), f.g.num_nodes());
}

TEST(OntologyIndexTest, StatsReported) {
  test::TravelFixture f = test::MakeTravelFixture();
  IndexBuildStats stats;
  ConceptIndex index =
      ConceptIndex::Build(f.g, f.o, IndexOptions{}, {}, &stats);
  EXPECT_EQ(stats.per_graph.size(), 2u);
  EXPECT_GT(stats.total_blocks, 0u);
  size_t sum = 0;
  for (const auto& s : stats.per_graph) sum += s.final_blocks;
  EXPECT_EQ(sum, stats.total_blocks);
  EXPECT_EQ(index.TotalSize() >= stats.total_blocks, true);
}

TEST(OntologyIndexTest, SimilarityBaseRespected) {
  test::TravelFixture f = test::MakeTravelFixture();
  IndexOptions options;
  options.similarity_base = 0.8;
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, options);
  EXPECT_DOUBLE_EQ(index.sim().base(), 0.8);
}

TEST(OntologyIndexTest, EachBlockCoversItsMembers) {
  test::TravelFixture f = test::MakeTravelFixture();
  ConceptIndex index = ConceptIndex::Build(f.g, f.o, IndexOptions{}, {});
  SimilarityFunction sim = MakeSimilarity(IndexOptions{});
  ASSERT_EQ(index.num_concept_graphs(), 2u);
  for (size_t i = 0; i < index.num_concept_graphs(); ++i) {
    const ConceptGraph& cg = index.concept_graph(i);
    for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
      EXPECT_TRUE(sim.AtLeast(f.o, f.g.NodeLabel(v),
                              cg.BlockLabel(cg.BlockOf(v)), 0.81));
    }
  }
}

TEST(OntologyIndexTest, DistinctSeedsProduceDistinctIndexes) {
  test::TravelFixture f = test::MakeTravelFixture();
  ConceptIndexOptions a;
  a.seed = 1;
  ConceptIndexOptions b;
  b.seed = 99;
  ConceptIndex ia = ConceptIndex::Build(f.g, f.o, IndexOptions{}, a);
  ConceptIndex ib = ConceptIndex::Build(f.g, f.o, IndexOptions{}, b);
  // Both valid regardless of the concept label sets drawn.
  EXPECT_TRUE(ia.Validate());
  EXPECT_TRUE(ib.Validate());
}

TEST(OntologyIndexTest, MoveKeepsPointersValid) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  OntologyIndex moved = std::move(index);
  EXPECT_EQ(&moved.data_graph(), &f.g);
  EXPECT_EQ(moved.candidate_index().num_nodes(), f.g.num_nodes());
  ConceptIndex concepts = ConceptIndex::Build(f.g, f.o, IndexOptions{}, {});
  ConceptIndex moved_concepts = std::move(concepts);
  EXPECT_TRUE(moved_concepts.Validate());
  EXPECT_EQ(&moved_concepts.concept_graph(0).data_graph(), &f.g);
}

TEST(OntologyIndexTest, SyntheticGraphIndexValidates) {
  LabelDictionary dict;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = 300;
  gp.num_edges = 900;
  gp.num_labels = 40;
  Graph g = gen::MakeRandomGraph(gp, &dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = 40;
  OntologyGraph o = gen::MakeTaxonomyOntology(op, &dict);
  IndexBuildStats stats;
  ConceptIndex index = ConceptIndex::Build(g, o, IndexOptions{}, {}, &stats);
  EXPECT_TRUE(index.Validate());
  // Refinement can only refine: block count between #concepts and #nodes.
  for (const auto& s : stats.per_graph) {
    EXPECT_GE(s.final_blocks, s.initial_blocks);
    EXPECT_LE(s.final_blocks, g.num_nodes());
  }
}

}  // namespace
}  // namespace osq
