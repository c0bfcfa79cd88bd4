#include "graph/subgraph.h"

#include <algorithm>

#include "common/check.h"
#include "common/scratch_slots.h"

namespace osq {

Subgraph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes) {
  Subgraph sub;
  sub.to_original = nodes;
  std::vector<NodeId>& sorted = sub.to_original;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Slots are handed out in insertion order, so an original node's slot
  // is its subgraph id.  Ids follow ascending original ids, so the edges
  // reach the builder already in (from, to, label) order.
  GraphBuilder builder;
  ScratchSlots local(g.num_nodes());
  for (NodeId u : sorted) {
    OSQ_CHECK(g.IsValidNode(u));
    builder.AddNode(g.NodeLabel(u));
    local.Insert(u);
  }
  for (NodeId v = 0; v < sorted.size(); ++v) {
    for (const AdjEntry& e : g.OutEdges(sorted[v])) {
      uint32_t w = local.Find(e.node);
      if (w != ScratchSlots::kNone) {
        builder.AddEdge(v, w, e.label);
      }
    }
  }
  sub.graph = std::move(builder).Build();
  return sub;
}

}  // namespace osq
