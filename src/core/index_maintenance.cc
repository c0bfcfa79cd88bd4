#include "core/index_maintenance.h"

#include "common/check.h"

namespace osq {

bool ApplyToGraph(Graph* g, const GraphUpdate& update) {
  const EdgeTriple& e = update.edge;
  if (update.kind == GraphUpdate::Kind::kInsertEdge) {
    return g->AddEdge(e.from, e.to, e.label);
  }
  return g->RemoveEdge(e.from, e.to, e.label);
}

bool ApplyUpdate(Graph* g, OntologyIndex* index, const GraphUpdate& update,
                 MaintenanceStats* stats) {
  OSQ_CHECK(g != nullptr && index != nullptr);
  OSQ_CHECK(g == &index->data_graph());
  if (!ApplyToGraph(g, update)) {
    if (stats != nullptr) ++stats->skipped;
    return false;
  }
  index->RepairCandidateIndexAfterEdge(update.edge.from, update.edge.to);
  if (stats != nullptr) ++stats->applied;
  return true;
}

MaintenanceStats ApplyUpdates(Graph* g, OntologyIndex* index,
                              const std::vector<GraphUpdate>& updates) {
  MaintenanceStats stats;
  for (const GraphUpdate& u : updates) {
    ApplyUpdate(g, index, u, &stats);
  }
  return stats;
}

NodeId AddNodeWithIndex(Graph* g, OntologyIndex* index, LabelId label) {
  OSQ_CHECK(g != nullptr && index != nullptr);
  OSQ_CHECK(g == &index->data_graph());
  NodeId v = g->AddNode(label);
  index->RegisterNodeInCandidateIndex(v);
  return v;
}

}  // namespace osq
