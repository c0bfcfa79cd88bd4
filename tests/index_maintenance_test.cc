#include "core/index_maintenance.h"

#include <set>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "concept/concept_index.h"
#include "test_util.h"

namespace osq {
namespace {

// The serving index and the paper's concept graphs over one graph, both
// repaired after each update: the stream shape incIdx runs in.  The
// serving index owns the graph; the concept graphs borrow it, so the
// struct stays in place.
struct Indexes {
  Indexes(const Graph& g, const OntologyGraph& o, size_t num_concept_graphs)
      : serving(OntologyIndex::Build(g, o, IndexOptions{})),
        concepts(ConceptIndex::Build(
            serving.data_graph(), serving.ontology(), IndexOptions{},
            {.num_concept_graphs = num_concept_graphs})) {}
  Indexes(const Indexes&) = delete;
  Indexes& operator=(const Indexes&) = delete;

  OntologyIndex serving;
  ConceptIndex concepts;

  const Graph& graph() const { return serving.data_graph(); }
  bool Validate() const { return concepts.Validate(); }
  const ConceptGraph& concept_graph(size_t i) const {
    return concepts.concept_graph(i);
  }
  size_t num_concept_graphs() const { return concepts.num_concept_graphs(); }
};

bool Apply(Indexes* ix, const GraphUpdate& update,
           MaintenanceStats* stats = nullptr) {
  if (!ApplyUpdate(&ix->serving, update, stats)) return false;
  ix->concepts.RepairAfterUpdate(update, stats);
  return true;
}

NodeId AddNode(Indexes* ix, LabelId label) {
  NodeId v = AddNodeWithIndex(&ix->serving, label);
  ix->concepts.RegisterNewNode(v);
  return v;
}

// The Example VI.1-style scenario on the color fixture: build the index on
// a graph WITHOUT the olive->violet edge (coarse partition), insert it, and
// check the incremental repair reaches the batch-rebuild partition.
TEST(MaintenanceTest, InsertionSplitsAndPropagates) {
  test::ColorFixture f = test::MakeColorFixture();
  // Remove the edge that causes all splits; partition collapses to 3 blocks.
  ASSERT_TRUE(f.g.RemoveEdge(f.olive, f.violet, f.dict.Lookup("sim")));

  Indexes index(f.g, f.o, 1);
  ASSERT_TRUE(index.Validate());
  EXPECT_EQ(index.concept_graph(0).num_blocks(), 3u);

  MaintenanceStats stats;
  EXPECT_TRUE(Apply(
      &index,
      GraphUpdate::Insert(f.olive, f.violet, f.dict.Lookup("sim")), &stats));
  EXPECT_TRUE(index.Validate());
  EXPECT_EQ(index.concept_graph(0).num_blocks(), 6u);
  EXPECT_GT(stats.aff_blocks, 0u);
  EXPECT_EQ(stats.applied, 1u);

  // Equivalent to the batch rebuild.
  Indexes batch(index.graph(), f.o, 1);
  EXPECT_EQ(index.concept_graph(0).num_blocks(),
            batch.concept_graph(0).num_blocks());
}

TEST(MaintenanceTest, DeletionMergesBack) {
  test::ColorFixture f = test::MakeColorFixture();
  Indexes index(f.g, f.o, 1);
  ASSERT_EQ(index.concept_graph(0).num_blocks(), 6u);

  MaintenanceStats stats;
  EXPECT_TRUE(Apply(
      &index,
      GraphUpdate::Delete(f.olive, f.violet, f.dict.Lookup("sim")), &stats));
  EXPECT_TRUE(index.Validate());
  // Without olive->violet the coarse 3-block partition is stable again;
  // the merge pass must find it.
  EXPECT_EQ(index.concept_graph(0).num_blocks(), 3u);
  EXPECT_GT(stats.merges, 0u);
}

TEST(MaintenanceTest, NoOpUpdatesSkipped) {
  test::ColorFixture f = test::MakeColorFixture();
  Indexes index(f.g, f.o, 1);
  MaintenanceStats stats;
  // Duplicate insertion.
  EXPECT_FALSE(Apply(
      &index,
      GraphUpdate::Insert(f.rose, f.blue, f.dict.Lookup("sim")), &stats));
  // Deleting a non-existent edge.
  EXPECT_FALSE(Apply(
      &index,
      GraphUpdate::Delete(f.rose, f.olive, f.dict.Lookup("sim")), &stats));
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_TRUE(index.Validate());
}

TEST(MaintenanceTest, InsertThenDeleteRestoresBlockCount) {
  test::TravelFixture f = test::MakeTravelFixture();
  Indexes index(f.g, f.o, 2);
  size_t before = 0;
  for (size_t i = 0; i < index.num_concept_graphs(); ++i) {
    before += index.concept_graph(i).num_blocks();
  }
  GraphUpdate ins = GraphUpdate::Insert(f.hp, f.rg, f.near);
  ASSERT_TRUE(Apply(&index, ins));
  EXPECT_TRUE(index.Validate());
  GraphUpdate del = GraphUpdate::Delete(f.hp, f.rg, f.near);
  ASSERT_TRUE(Apply(&index, del));
  EXPECT_TRUE(index.Validate());
  size_t after = 0;
  for (size_t i = 0; i < index.num_concept_graphs(); ++i) {
    after += index.concept_graph(i).num_blocks();
  }
  EXPECT_EQ(before, after);
}

TEST(MaintenanceTest, BatchUpdatesAggregateStats) {
  test::TravelFixture f = test::MakeTravelFixture();
  ConceptIndex index =
      ConceptIndex::Build(f.g, f.o, IndexOptions{}, {.num_concept_graphs = 1});
  std::vector<GraphUpdate> updates = {
      GraphUpdate::Insert(f.ht, f.starlight, f.fav),
      GraphUpdate::Insert(f.ht, f.starlight, f.fav),  // duplicate
      GraphUpdate::Delete(f.ht, f.starlight, f.fav),
  };
  MaintenanceStats stats = ApplyUpdates(&f.g, &index, updates);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_TRUE(index.Validate());
  EXPECT_FALSE(f.g.HasEdge(f.ht, f.starlight, f.fav));
}

TEST(MaintenanceTest, AddNodeWithIndex) {
  test::TravelFixture f = test::MakeTravelFixture();
  Indexes index(f.g, f.o, 2);
  NodeId v = AddNode(&index, f.dict.Lookup("holiday_cafe"));
  EXPECT_EQ(v, index.graph().num_nodes() - 1);
  EXPECT_TRUE(index.Validate());
  // The new node can then participate in edge updates.
  ASSERT_TRUE(Apply(&index, GraphUpdate::Insert(f.ct, v, f.fav)));
  EXPECT_TRUE(index.Validate());
}

TEST(MaintenanceTest, AddNodeWithBrandNewLabel) {
  test::TravelFixture f = test::MakeTravelFixture();
  Indexes index(f.g, f.o, 1);
  LabelId fresh = f.dict.Intern("spaceport");  // not in the ontology
  NodeId v = AddNode(&index, fresh);
  EXPECT_TRUE(index.Validate());
  const ConceptGraph& cg = index.concept_graph(0);
  EXPECT_EQ(cg.BlockLabel(cg.BlockOf(v)), fresh);
}

// The index owns its graph, so a copy is an independent index: updating
// the copy leaves the original's graph and candidate index as they were.
TEST(MaintenanceTest, UpdatingACopyLeavesTheOriginalUnchanged) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex original = OntologyIndex::Build(f.g, f.o, IndexOptions{});
  OntologyIndex copy = original;
  ASSERT_TRUE(ApplyUpdate(&copy, GraphUpdate::Insert(f.hp, f.rg, f.near)));
  NodeId v = AddNodeWithIndex(&copy, f.dict.Lookup("holiday_cafe"));
  ASSERT_TRUE(ApplyUpdate(&copy, GraphUpdate::Insert(f.ct, v, f.fav)));

  EXPECT_TRUE(copy.data_graph().HasEdge(f.hp, f.rg, f.near));
  EXPECT_EQ(copy.data_graph().num_nodes(), f.g.num_nodes() + 1);
  EXPECT_TRUE(copy.candidate_index() ==
              CandidateIndex::Build(copy.data_graph(), /*num_threads=*/1));

  EXPECT_FALSE(original.data_graph().HasEdge(f.hp, f.rg, f.near));
  EXPECT_EQ(original.data_graph().num_nodes(), f.g.num_nodes());
  EXPECT_EQ(original.data_graph().EdgeList(), f.g.EdgeList());
  EXPECT_TRUE(original.candidate_index() ==
              CandidateIndex::Build(f.g, /*num_threads=*/1));
  EXPECT_FALSE(original.candidate_index() == copy.candidate_index());
}

TEST(MaintenanceTest, RandomStreamStaysValid) {
  test::TravelFixture f = test::MakeTravelFixture();
  Indexes index(f.g, f.o, 2);
  Rng rng(99);
  std::vector<LabelId> edge_labels = {f.guide, f.fav, f.near};
  for (int step = 0; step < 200; ++step) {
    NodeId u = static_cast<NodeId>(rng.Index(index.graph().num_nodes()));
    NodeId w = static_cast<NodeId>(rng.Index(index.graph().num_nodes()));
    if (u == w) continue;
    LabelId l = edge_labels[rng.Index(edge_labels.size())];
    GraphUpdate upd = rng.Bernoulli(0.5) ? GraphUpdate::Insert(u, w, l)
                                         : GraphUpdate::Delete(u, w, l);
    Apply(&index, upd);
    ASSERT_TRUE(index.Validate()) << "step " << step;
    ASSERT_TRUE(index.graph().CheckConsistency()) << "step " << step;
  }
}

}  // namespace
}  // namespace osq
