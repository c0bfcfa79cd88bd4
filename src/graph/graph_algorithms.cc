#include "graph/graph_algorithms.h"

#include <deque>

#include "common/check.h"

namespace osq {

namespace {

// Shared BFS; when `undirected`, both out- and in-edges are followed.
std::vector<uint32_t> Bfs(const Graph& g, NodeId source, bool undirected) {
  OSQ_CHECK(g.IsValidNode(source));
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop_front();
    uint32_t d = dist[v];
    auto visit = [&](NodeId w) {
      if (dist[w] == kUnreachable) {
        dist[w] = d + 1;
        queue.push_back(w);
      }
    };
    for (const AdjEntry& e : g.OutEdges(v)) visit(e.node);
    if (undirected) {
      for (const AdjEntry& e : g.InEdges(v)) visit(e.node);
    }
  }
  return dist;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source) {
  return Bfs(g, source, /*undirected=*/false);
}

std::vector<uint32_t> UndirectedBfsDistances(const Graph& g, NodeId source) {
  return Bfs(g, source, /*undirected=*/true);
}

bool IsWeaklyConnected(const Graph& g) {
  if (g.empty()) return false;
  std::vector<uint32_t> dist = UndirectedBfsDistances(g, 0);
  for (uint32_t d : dist) {
    if (d == kUnreachable) return false;
  }
  return true;
}

std::vector<uint32_t> WeakComponents(const Graph& g, size_t* num_components) {
  std::vector<uint32_t> comp(g.num_nodes(), kUnreachable);
  uint32_t next = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      NodeId v = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId w) {
        if (comp[w] == kUnreachable) {
          comp[w] = next;
          queue.push_back(w);
        }
      };
      for (const AdjEntry& e : g.OutEdges(v)) visit(e.node);
      for (const AdjEntry& e : g.InEdges(v)) visit(e.node);
    }
    ++next;
  }
  if (num_components != nullptr) {
    *num_components = next;
  }
  return comp;
}

}  // namespace osq
