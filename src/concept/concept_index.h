// The paper's ontology index I = {G_o1, ..., G_oN} (§IV-A, algorithm
// OntoIdx): N concept graphs of the same data graph, each built from a
// distinct concept label set so the index captures N different semantic
// perspectives, and their incremental maintenance (§VI, algorithm incIdx).
//
// Nothing on the serving path builds or reads this index: Gview filters at
// the node level over the serving index (core/ontology_index.h), whose
// answer does not depend on the concept graphs (DESIGN.md §3).  The paper
// harnesses (bench/exp_*, bench_micro_index), `osq_cli stats` and the
// concept-graph tests build it to chart its size, build time and repair
// cost (AFF).
//
// incIdx: given a batch of edge insertions/deletions ΔG, every concept
// graph is repaired in place instead of rebuilt: the blocks containing the
// edge endpoints are re-split to restore the signature invariant,
// violations propagate to neighbouring blocks (the paper's
// propUp/propDown), and blocks satisfying the merge condition (same
// concept label, same successor- and predecessor-block sets) are merged
// back.  The cost is measured in AFF — the number of blocks touched —
// matching the paper's O(|AFF|^2 + |I|) bound rather than the size of G.
// The hooks take the update after the data graph already reflects it, so
// one update stream can drive this index and the serving index:
//
//   if (ApplyUpdate(&g, &serving, u, &stats)) {
//     concepts.RepairAfterUpdate(u, &stats);
//   }

#ifndef OSQ_CONCEPT_CONCEPT_INDEX_H_
#define OSQ_CONCEPT_CONCEPT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "concept/concept_graph.h"
#include "core/index_maintenance.h"
#include "core/ontology_index.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"

namespace osq {

// Parameters of the paper's index beyond the similarity function and the
// thread count, which it takes from IndexOptions.
struct ConceptIndexOptions {
  // Similarity threshold beta used to group nodes under concept labels.
  // The paper's experiments use beta = 0.8/0.81 (two ontology hops).
  double beta = 0.81;
  // N: number of concept graphs (card(I)).
  size_t num_concept_graphs = 2;
  // Number of ontology clusters used during concept label selection.
  size_t num_clusters = 8;
  // Seed for the randomized concept-label selection.
  uint64_t seed = 42;
  // Build edge-label-aware concept graphs (ablation; default is the
  // paper's label-unaware index).
  bool edge_label_aware = false;
};

class ConceptIndex {
 public:
  // Builds options.num_concept_graphs concept graphs of `g`, each from
  // concept labels drawn under options.seed, with the similarity function
  // of `index_options`.  Concept-label selection is sequential, so the RNG
  // stream and thus the index are identical for every
  // index_options.num_threads; the graphs build in parallel and their
  // stats merge in graph order.  `g` and `o` are borrowed and must outlive
  // the index.
  static ConceptIndex Build(const Graph& g, const OntologyGraph& o,
                            const IndexOptions& index_options,
                            const ConceptIndexOptions& options,
                            IndexBuildStats* stats = nullptr);

  size_t num_concept_graphs() const { return graphs_.size(); }
  const ConceptGraph& concept_graph(size_t i) const { return graphs_[i]; }

  // |I|: total blocks plus block edges across all concept graphs.
  size_t TotalSize() const;

  // Validates every concept graph; test / debugging aid.
  bool Validate() const;

  // --- incIdx hooks: the data graph must ALREADY reflect the change ------
  // Repairs every concept graph around the endpoints of `update`, adding
  // the AFF blocks, splits and merges to *stats.
  void RepairAfterUpdate(const GraphUpdate& update,
                         MaintenanceStats* stats = nullptr);
  // Registers data node `v`, just added to the graph, with every concept
  // graph.
  void RegisterNewNode(NodeId v);

 private:
  ConceptIndex() = default;

  std::vector<ConceptGraph> graphs_;
};

// incIdx over a graph only `index` tracks: applies each update to `*g` (the
// graph the index was built over) and repairs the index after each one
// that changed it; duplicates / missing edges count as skipped.
MaintenanceStats ApplyUpdates(Graph* g, ConceptIndex* index,
                              const std::vector<GraphUpdate>& updates);

}  // namespace osq

#endif  // OSQ_CONCEPT_CONCEPT_INDEX_H_
