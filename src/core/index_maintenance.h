// Maintenance of the serving index under edge insertions / deletions.
//
// An update changes only the two endpoint signatures of the candidate
// index (core/candidate_index.h), so the serving index is repaired exactly,
// in O(degree), instead of rebuilt.  The paper's incIdx over concept graphs
// (§VI) is ConceptIndex::RepairAfterUpdate (concept/concept_index.h); it
// takes the same GraphUpdate once the graph reflects it.
//
// The index owns its data graph (core/ontology_index.h), so these functions
// take the index alone and change the graph and the candidate index
// together; nothing else mutates an index's graph.

#ifndef OSQ_CORE_INDEX_MAINTENANCE_H_
#define OSQ_CORE_INDEX_MAINTENANCE_H_

#include <cstddef>
#include <vector>

#include "core/ontology_index.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// One element of ΔG.
struct GraphUpdate {
  enum class Kind { kInsertEdge, kDeleteEdge };
  Kind kind = Kind::kInsertEdge;
  EdgeTriple edge;

  static GraphUpdate Insert(NodeId from, NodeId to,
                            LabelId label = kDefaultEdgeLabel) {
    return {Kind::kInsertEdge, {from, to, label}};
  }
  static GraphUpdate Delete(NodeId from, NodeId to,
                            LabelId label = kDefaultEdgeLabel) {
    return {Kind::kDeleteEdge, {from, to, label}};
  }
};

struct MaintenanceStats {
  // Updates applied to the data graph (duplicates/missing edges skipped).
  size_t applied = 0;
  size_t skipped = 0;
  // Concept-graph repair work (ConceptIndex::RepairAfterUpdate), summed
  // over updates and concept graphs; 0 on the serving path.  servebench's
  // maint.{aff_blocks,splits,merges}_per_update read them.
  size_t aff_blocks = 0;
  size_t splits = 0;
  size_t merges = 0;

  MaintenanceStats& operator+=(const MaintenanceStats& other) {
    applied += other.applied;
    skipped += other.skipped;
    aff_blocks += other.aff_blocks;
    splits += other.splits;
    merges += other.merges;
    return *this;
  }
};

// Applies the update to the data graph alone; returns false when it is a
// no-op (duplicate insertion / missing deletion).
bool ApplyToGraph(Graph* g, const GraphUpdate& update);

// Applies one update to the index's data graph and repairs the candidate
// index; returns false (and leaves everything unchanged) when the update
// is a no-op (duplicate insertion / missing deletion).
bool ApplyUpdate(OntologyIndex* index, const GraphUpdate& update,
                 MaintenanceStats* stats = nullptr);

// Applies a batch of updates in order.
MaintenanceStats ApplyUpdates(OntologyIndex* index,
                              const std::vector<GraphUpdate>& updates);

// Adds a node to the index's data graph and registers it with the
// candidate index.
NodeId AddNodeWithIndex(OntologyIndex* index, LabelId label);

}  // namespace osq

#endif  // OSQ_CORE_INDEX_MAINTENANCE_H_
