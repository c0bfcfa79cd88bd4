#include "graph/graph.h"

#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace osq {
namespace {

// A frozen 4-node graph: a labeled cycle plus a chord, so every node has
// out- and in-edges.
Graph MakeFrozen() {
  GraphBuilder b;
  b.AddNodes(4, 7);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 2);
  b.AddEdge(3, 0, 2);
  b.AddEdge(0, 2, 3);
  return std::move(b).Build();
}

// What a reader of a graph sees: its node labels and its edges.
struct GraphImage {
  std::vector<LabelId> labels;
  std::vector<EdgeTriple> edges;

  friend bool operator==(const GraphImage&, const GraphImage&) = default;
};

GraphImage ImageOf(const Graph& g) {
  GraphImage image;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    image.labels.push_back(g.NodeLabel(v));
  }
  image.edges = g.EdgeList();
  return image;
}

TEST(GraphTest, StartsEmpty) {
  Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, AddNodeAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode(10), 0u);
  EXPECT_EQ(g.AddNode(20), 1u);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.NodeLabel(0), 10u);
  EXPECT_EQ(g.NodeLabel(1), 20u);
}

TEST(GraphTest, AddNodesBulk) {
  Graph g;
  NodeId first = g.AddNodes(5, 7);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(g.num_nodes(), 5u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.NodeLabel(v), 7u);
  }
  EXPECT_EQ(g.AddNodes(3, 9), 5u);
  EXPECT_EQ(g.num_nodes(), 8u);
}

TEST(GraphTest, SetNodeLabel) {
  Graph g;
  g.AddNode(1);
  g.SetNodeLabel(0, 99);
  EXPECT_EQ(g.NodeLabel(0), 99u);
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g;
  g.AddNodes(3, 0);
  EXPECT_TRUE(g.AddEdge(0, 1, 5));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1, 5));
  EXPECT_FALSE(g.HasEdge(1, 0, 5));  // directed
  EXPECT_FALSE(g.HasEdge(0, 1, 6));  // label matters
}

TEST(GraphTest, DuplicateEdgeRejected) {
  Graph g;
  g.AddNodes(2, 0);
  EXPECT_TRUE(g.AddEdge(0, 1, 5));
  EXPECT_FALSE(g.AddEdge(0, 1, 5));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, ParallelEdgesWithDistinctLabels) {
  Graph g;
  g.AddNodes(2, 0);
  EXPECT_TRUE(g.AddEdge(0, 1, 5));
  EXPECT_TRUE(g.AddEdge(0, 1, 6));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdgeAnyLabel(0, 1));
  EXPECT_EQ(g.EdgeLabelsBetween(0, 1), (std::vector<LabelId>{5, 6}));
}

TEST(GraphTest, SelfLoopAllowed) {
  Graph g;
  g.AddNode(0);
  EXPECT_TRUE(g.AddEdge(0, 0, 1));
  EXPECT_TRUE(g.HasEdge(0, 0, 1));
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g;
  g.AddNodes(2, 0);
  g.AddEdge(0, 1, 5);
  EXPECT_TRUE(g.RemoveEdge(0, 1, 5));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasEdge(0, 1, 5));
  EXPECT_FALSE(g.RemoveEdge(0, 1, 5));  // already gone
}

TEST(GraphTest, RemoveOneOfParallelEdges) {
  Graph g;
  g.AddNodes(2, 0);
  g.AddEdge(0, 1, 5);
  g.AddEdge(0, 1, 6);
  EXPECT_TRUE(g.RemoveEdge(0, 1, 5));
  EXPECT_FALSE(g.HasEdge(0, 1, 5));
  EXPECT_TRUE(g.HasEdge(0, 1, 6));
  EXPECT_TRUE(g.HasEdgeAnyLabel(0, 1));
}

TEST(GraphTest, AdjacencySortedAndMirrored) {
  Graph g;
  g.AddNodes(4, 0);
  g.AddEdge(0, 3, 1);
  g.AddEdge(0, 1, 2);
  g.AddEdge(0, 2, 1);
  const auto& out = g.OutEdges(0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].node, 1u);
  EXPECT_EQ(out[1].node, 2u);
  EXPECT_EQ(out[2].node, 3u);
  EXPECT_EQ(g.InEdges(3).size(), 1u);
  EXPECT_EQ(g.InEdges(3)[0].node, 0u);
  EXPECT_TRUE(g.CheckConsistency());
}

TEST(GraphTest, DegreeAccounting) {
  Graph g;
  g.AddNodes(3, 0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(0, 2, 0);
  g.AddEdge(2, 0, 0);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.Degree(0), 3u);
}

TEST(GraphTest, EdgeListComplete) {
  Graph g;
  g.AddNodes(3, 0);
  g.AddEdge(1, 2, 7);
  g.AddEdge(0, 1, 3);
  std::vector<EdgeTriple> edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (EdgeTriple{0, 1, 3}));
  EXPECT_EQ(edges[1], (EdgeTriple{1, 2, 7}));
}

TEST(GraphTest, EdgeLabelsBetweenMissingPair) {
  Graph g;
  g.AddNodes(2, 0);
  EXPECT_TRUE(g.EdgeLabelsBetween(0, 1).empty());
}

TEST(GraphTest, CopyIsDeep) {
  Graph g;
  g.AddNodes(2, 0);
  g.AddEdge(0, 1, 1);
  Graph copy = g;
  copy.AddEdge(1, 0, 1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(copy.num_edges(), 2u);
}

TEST(GraphTest, CopyOfFrozenGraphSharesItsArrays) {
  Graph a = MakeFrozen();
  Graph b = a;
  ASSERT_TRUE(b.fully_frozen());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.OutEdges(v).data(), b.OutEdges(v).data()) << v;
    EXPECT_EQ(a.InEdges(v).data(), b.InEdges(v).data()) << v;
  }
}

// Copies share the frozen arrays but no mutation writes them: each edit,
// on the copy or on the original, leaves the other graph as it was.
TEST(GraphTest, MutatingEitherCopyLeavesTheOtherUnchanged) {
  const std::vector<std::function<void(Graph*)>> mutations = {
      [](Graph* g) { EXPECT_TRUE(g->AddEdge(1, 0, 5)); },
      [](Graph* g) { EXPECT_TRUE(g->RemoveEdge(0, 1, 1)); },
      [](Graph* g) { EXPECT_TRUE(g->AddEdge(g->AddNode(9), 0, 1)); },
      [](Graph* g) { g->SetNodeLabel(2, 8); },
  };
  for (size_t i = 0; i < mutations.size(); ++i) {
    for (bool mutate_copy : {true, false}) {
      SCOPED_TRACE(testing::Message() << "mutation " << i
                                      << (mutate_copy ? " on the copy"
                                                      : " on the original"));
      Graph original = MakeFrozen();
      Graph copy = original;
      Graph& mutated = mutate_copy ? copy : original;
      const Graph& other = mutate_copy ? original : copy;
      const GraphImage before = ImageOf(other);
      mutations[i](&mutated);
      EXPECT_NE(ImageOf(mutated), before);
      EXPECT_EQ(ImageOf(other), before);
      EXPECT_TRUE(mutated.CheckConsistency());
      EXPECT_TRUE(other.CheckConsistency());
      // Re-freezing the mutated graph builds it a block of its own.
      mutated.Freeze();
      EXPECT_EQ(ImageOf(other), before);
      EXPECT_TRUE(other.CheckConsistency());
    }
  }
}

TEST(GraphTest, ConsistencyAfterManyMutations) {
  Graph g;
  g.AddNodes(10, 0);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      if (u != v) g.AddEdge(u, v, (u + v) % 3);
    }
  }
  EXPECT_TRUE(g.CheckConsistency());
  for (NodeId u = 0; u < 10; u += 2) {
    for (NodeId v = 1; v < 10; v += 2) {
      g.RemoveEdge(u, v, (u + v) % 3);
    }
  }
  EXPECT_TRUE(g.CheckConsistency());
}

}  // namespace
}  // namespace osq
