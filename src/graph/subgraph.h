// Induced-subgraph extraction.
//
// Each shard of the sharded tier serves the subgraph induced by its
// members (shard/partitioner.h), and the query generator extracts its
// queries as induced subgraphs (gen/query_gen.h).  The query path never
// builds one: G_v, the subgraph induced by Gview's candidates, stays a
// set of data-graph ids (core/filtering.h).  InducedSubgraph materializes
// such a subgraph with its node-id mapping to the original graph, at a
// cost proportional to the subgraph (no array sized by the original
// graph): the kept edges go to a GraphBuilder in (from, to, label) order,
// and Build() emits the frozen CSR in one pass.

#ifndef OSQ_GRAPH_SUBGRAPH_H_
#define OSQ_GRAPH_SUBGRAPH_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// A subgraph together with the correspondence to the original graph.
struct Subgraph {
  Graph graph;
  // to_original[v] is the original id of subgraph node v; ascending.
  std::vector<NodeId> to_original;
};

// Extracts the subgraph of `g` induced by `nodes` (need not be sorted;
// duplicates are ignored); subgraph ids follow ascending original ids.
// Keeps every edge of `g` whose endpoints are both selected, with its edge
// label.  Leases the calling thread's ScratchSlots (common/scratch_slots.h).
Subgraph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace osq

#endif  // OSQ_GRAPH_SUBGRAPH_H_
