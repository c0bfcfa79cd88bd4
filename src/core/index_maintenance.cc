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

bool ApplyUpdate(OntologyIndex* index, const GraphUpdate& update,
                 MaintenanceStats* stats) {
  OSQ_CHECK(index != nullptr);
  if (!ApplyToGraph(&index->g_, update)) {
    if (stats != nullptr) ++stats->skipped;
    return false;
  }
  index->candidate_index_.OnEdgeChanged(index->g_, update.edge.from,
                                        update.edge.to);
  if (stats != nullptr) ++stats->applied;
  return true;
}

MaintenanceStats ApplyUpdates(OntologyIndex* index,
                              const std::vector<GraphUpdate>& updates) {
  MaintenanceStats stats;
  for (const GraphUpdate& u : updates) {
    ApplyUpdate(index, u, &stats);
  }
  return stats;
}

NodeId AddNodeWithIndex(OntologyIndex* index, LabelId label) {
  OSQ_CHECK(index != nullptr);
  NodeId v = index->g_.AddNode(label);
  index->candidate_index_.OnNodeAdded(index->g_, v);
  return v;
}

}  // namespace osq
