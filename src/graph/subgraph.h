// Induced-subgraph extraction.
//
// The filtering phase (paper §IV-B) produces the compact subgraph G_v of
// the data graph induced by the surviving candidate nodes; verification
// then runs entirely on G_v, and each shard of the sharded tier serves
// the subgraph induced by its members (shard/partitioner.h).
// InducedSubgraph materializes such a subgraph with a node-id remapping in
// both directions, at a cost proportional to the subgraph (no array sized
// by the original graph): the kept edges go to a GraphBuilder in
// (from, to, label) order, and Build() emits the frozen CSR in one pass.

#ifndef OSQ_GRAPH_SUBGRAPH_H_
#define OSQ_GRAPH_SUBGRAPH_H_

#include <algorithm>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// A subgraph together with the correspondence to the original graph.
struct Subgraph {
  Graph graph;
  // to_original[v] is the original id of subgraph node v; ascending.
  std::vector<NodeId> to_original;

  // Subgraph id of original node u, or kInvalidNode if u is not in the
  // subgraph (binary search over to_original).
  NodeId LocalId(NodeId original) const {
    auto it = std::lower_bound(to_original.begin(), to_original.end(),
                               original);
    return it != to_original.end() && *it == original
               ? static_cast<NodeId>(it - to_original.begin())
               : kInvalidNode;
  }
};

// Extracts the subgraph of `g` induced by `nodes` (need not be sorted;
// duplicates are ignored); subgraph ids follow ascending original ids.
// Keeps every edge of `g` whose endpoints are both selected, with its edge
// label.  Leases the calling thread's ScratchSlots (common/scratch_slots.h).
Subgraph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace osq

#endif  // OSQ_GRAPH_SUBGRAPH_H_
