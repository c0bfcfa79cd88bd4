// Basic traversal algorithms over Graph used across the library.

#ifndef OSQ_GRAPH_GRAPH_ALGORITHMS_H_
#define OSQ_GRAPH_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

// BFS hop distances from `source` following out-edges only.
// result[v] == kUnreachable when v cannot be reached.
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source);

// BFS hop distances ignoring edge direction.
std::vector<uint32_t> UndirectedBfsDistances(const Graph& g, NodeId source);

// True if the graph is weakly connected (empty graphs are not).
bool IsWeaklyConnected(const Graph& g);

// Weakly connected component id per node, ids dense starting at 0.
std::vector<uint32_t> WeakComponents(const Graph& g, size_t* num_components);

}  // namespace osq

#endif  // OSQ_GRAPH_GRAPH_ALGORITHMS_H_
