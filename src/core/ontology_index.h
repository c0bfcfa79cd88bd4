// The serving index, sole owner of the serving state: the data graph and
// ontology it indexes, the similarity function, and the candidate-pruning
// index Gview seeds and prunes through (candidate_index.h), all by value.
// A copy is an independent index over its own graph: the copied graph
// shares the original's frozen CSR arrays, which nothing writes, and
// keeps its own labels and thaw overlay (graph/graph.h), so maintaining
// either index leaves the other unchanged.  The graph changes
// only through the maintenance API (core/index_maintenance.h), which
// repairs the candidate index in step.
//
// The paper's ontology index I = {G_o1, ..., G_oN} (§IV-A, OntoIdx) is a
// separate structure, concept/concept_index.h: Gview's answer does not
// depend on the concept graphs, and measured they only slowed it
// (DESIGN.md §3), so nothing on the serving path builds them.

#ifndef OSQ_CORE_ONTOLOGY_INDEX_H_
#define OSQ_CORE_ONTOLOGY_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/candidate_index.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"
#include "ontology/similarity.h"

namespace osq {

struct GraphUpdate;
struct MaintenanceStats;

// Construction / maintenance statistics of one concept graph, filled by
// the paper's index (concept/concept_index.h).
struct ConceptGraphStats {
  size_t initial_blocks = 0;
  size_t final_blocks = 0;
  size_t splits = 0;
  size_t merges = 0;
};

struct IndexBuildStats {
  // Aggregated over all concept graphs; zero for the serving index, which
  // has none.  servebench's index.blocks_per_node reads total_blocks.
  size_t total_blocks = 0;
  size_t total_splits = 0;
  // Per concept graph.
  std::vector<ConceptGraphStats> per_graph;
};

// Builds the similarity function an index with `options` uses.
SimilarityFunction MakeSimilarity(const IndexOptions& options);

class OntologyIndex {
 public:
  // Builds the serving index over `g` and `o`, which it takes over.
  // options.num_threads > 1 computes the node signatures in parallel; the
  // resulting index is identical for every thread count.  `stats` is
  // zeroed: the serving index builds no concept graph.
  static OntologyIndex Build(Graph g, OntologyGraph o,
                             const IndexOptions& options,
                             IndexBuildStats* stats = nullptr);

  // Assembles an index from its parts without recomputing the candidate
  // index — the binary snapshot path (core/snapshot.h), where skipping the
  // signature rebuild is most of the cold-start win.  `candidate_index`
  // must describe exactly `g`.
  static OntologyIndex FromParts(Graph g, OntologyGraph o,
                                 const IndexOptions& options,
                                 CandidateIndex candidate_index);

  const IndexOptions& options() const { return options_; }
  const SimilarityFunction& sim() const { return sim_; }
  const Graph& data_graph() const { return g_; }
  const OntologyGraph& ontology() const { return o_; }

  // Always 0: the serving index has no concept graph.  servebench's
  // index.blocks_per_node reads it.
  size_t num_concept_graphs() const { return 0; }

  // The precomputed candidate-pruning index; Gview seeds and prunes
  // through it (core/filtering.h).
  const CandidateIndex& candidate_index() const { return candidate_index_; }

  // True if at least one data node currently carries `label`.  Used by the
  // filter to discard candidate labels that cannot produce candidates.
  bool LabelOccursInData(LabelId label) const {
    return !candidate_index_.NodesWithLabel(label).empty();
  }

 private:
  OntologyIndex(Graph g, OntologyGraph o, const IndexOptions& options,
                CandidateIndex candidate_index);

  // The maintenance API (core/index_maintenance.h).
  friend bool ApplyUpdate(OntologyIndex* index, const GraphUpdate& update,
                          MaintenanceStats* stats);
  friend NodeId AddNodeWithIndex(OntologyIndex* index, LabelId label);

  Graph g_;
  OntologyGraph o_;
  SimilarityFunction sim_;
  IndexOptions options_;
  CandidateIndex candidate_index_;
};

}  // namespace osq

#endif  // OSQ_CORE_ONTOLOGY_INDEX_H_
