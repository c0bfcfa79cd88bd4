#include "core/index_maintenance.h"

#include "common/check.h"

namespace osq {

bool ApplyUpdate(Graph* g, OntologyIndex* index, const GraphUpdate& update,
                 MaintenanceStats* stats) {
  OSQ_CHECK(g != nullptr && index != nullptr);
  OSQ_CHECK(g == &index->data_graph());
  const EdgeTriple& e = update.edge;
  bool changed;
  if (update.kind == GraphUpdate::Kind::kInsertEdge) {
    changed = g->AddEdge(e.from, e.to, e.label);
  } else {
    changed = g->RemoveEdge(e.from, e.to, e.label);
  }
  if (!changed) {
    if (stats != nullptr) ++stats->skipped;
    return false;
  }
  for (size_t i = 0; i < index->num_concept_graphs(); ++i) {
    ConceptGraph* cg = index->mutable_concept_graph(i);
    ConceptGraphStats cg_stats;
    size_t aff;
    if (update.kind == GraphUpdate::Kind::kInsertEdge) {
      aff = cg->RepairAfterEdgeInsertion(e.from, e.to, &cg_stats);
    } else {
      aff = cg->RepairAfterEdgeDeletion(e.from, e.to, &cg_stats);
    }
    if (stats != nullptr) {
      stats->aff_blocks += aff;
      stats->splits += cg_stats.splits;
      stats->merges += cg_stats.merges;
    }
  }
  // With every partition repaired, re-derive the candidate-index state the
  // update invalidated (endpoint signatures + touched block aggregates).
  index->RepairCandidateIndexAfterEdge(e.from, e.to);
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
  for (size_t i = 0; i < index->num_concept_graphs(); ++i) {
    index->mutable_concept_graph(i)->RegisterNewNode(v);
  }
  index->RegisterNodeInCandidateIndex(v);
  return v;
}

}  // namespace osq
