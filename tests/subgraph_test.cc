#include "graph/subgraph.h"

#include <vector>

#include <gtest/gtest.h>

namespace osq {
namespace {

Graph Triangle() {
  Graph g;
  g.AddNode(10);
  g.AddNode(20);
  g.AddNode(30);
  g.AddNode(40);  // extra node
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 2);
  g.AddEdge(2, 0, 3);
  g.AddEdge(0, 3, 4);  // edge leaving the selection
  return g;
}

TEST(SubgraphTest, InducedKeepsInternalEdgesOnly) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // 0->3 dropped
}

TEST(SubgraphTest, MappingsAreInverse) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {2, 0});
  // Subgraph ids follow ascending original ids, whatever the selection
  // order.
  EXPECT_EQ(sub.to_original, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
}

TEST(SubgraphTest, LabelsPreserved) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {1, 2});
  for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
    EXPECT_EQ(sub.graph.NodeLabel(v), g.NodeLabel(sub.to_original[v]));
  }
}

TEST(SubgraphTest, EdgeLabelsPreserved) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {0, 1});
  ASSERT_EQ(sub.to_original, (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(sub.graph.HasEdge(0, 1, 1));
}

TEST(SubgraphTest, DuplicateSelectionIgnored) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {0, 0, 1, 1});
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
}

TEST(SubgraphTest, EmptySelection) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {});
  EXPECT_TRUE(sub.graph.empty());
  EXPECT_TRUE(sub.to_original.empty());
}

TEST(SubgraphTest, FullSelectionIsIsomorphicCopy) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {0, 1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
}

TEST(SubgraphTest, SelfLoopKept) {
  Graph g;
  g.AddNode(1);
  g.AddEdge(0, 0, 9);
  Subgraph sub = InducedSubgraph(g, {0});
  EXPECT_TRUE(sub.graph.HasEdge(0, 0, 9));
}

TEST(SubgraphTest, ParallelEdgesKept) {
  Graph g;
  g.AddNodes(2, 0);
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 1, 2);
  Subgraph sub = InducedSubgraph(g, {0, 1});
  EXPECT_EQ(sub.graph.num_edges(), 2u);
}

}  // namespace
}  // namespace osq
