// The ontology index I = {G_o1, ..., G_oN} (paper §IV-A, algorithm
// OntoIdx): N concept graphs of the same data graph, each built from a
// distinct concept label set so the index captures N different semantic
// perspectives.  Built once, queried by Gview (filtering.h) and maintained
// incrementally under data-graph updates (index_maintenance.h).

#ifndef OSQ_CORE_ONTOLOGY_INDEX_H_
#define OSQ_CORE_ONTOLOGY_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/candidate_index.h"
#include "core/concept_graph.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"
#include "ontology/similarity.h"

namespace osq {

struct IndexBuildStats {
  // Aggregated over all concept graphs.
  size_t total_blocks = 0;
  size_t total_splits = 0;
  // Per concept graph.
  std::vector<ConceptGraphStats> per_graph;
};

// Builds the similarity function an index with `options` uses.
SimilarityFunction MakeSimilarity(const IndexOptions& options);

class OntologyIndex {
 public:
  // Builds the index.  `g` and `o` are borrowed and must outlive the index;
  // `g` may later be mutated only through the maintenance API.
  // options.num_threads > 1 builds the concept graphs in parallel; the
  // resulting index is identical for every thread count.
  static OntologyIndex Build(const Graph& g, const OntologyGraph& o,
                             const IndexOptions& options,
                             IndexBuildStats* stats = nullptr);

  // Reassembles an index from restored concept graphs and an already-
  // restored candidate index — the binary snapshot path (core/snapshot.h),
  // where skipping every rebuild is most of the cold-start win.  `graphs`
  // must have been built over the same `g` and `o`, and `candidate_index`
  // exported from an index over the same `g` and `graphs`.
  static OntologyIndex FromLoadedParts(const Graph& g, const OntologyGraph& o,
                                       const IndexOptions& options,
                                       std::vector<ConceptGraph> graphs,
                                       CandidateIndex candidate_index);

  OntologyIndex(OntologyIndex&&) = default;
  OntologyIndex& operator=(OntologyIndex&&) = default;
  OntologyIndex(const OntologyIndex&) = default;
  OntologyIndex& operator=(const OntologyIndex&) = default;

  const IndexOptions& options() const { return options_; }
  const SimilarityFunction& sim() const { return sim_; }
  const Graph& data_graph() const { return *g_; }
  const OntologyGraph& ontology() const { return *o_; }

  size_t num_concept_graphs() const { return graphs_.size(); }
  const ConceptGraph& concept_graph(size_t i) const { return graphs_[i]; }
  ConceptGraph* mutable_concept_graph(size_t i) { return &graphs_[i]; }
  const std::vector<ConceptGraph>& concept_graphs() const { return graphs_; }

  // The precomputed candidate-pruning index (always built alongside the
  // concept graphs; QueryOptions::use_candidate_index controls whether the
  // filter consults it).
  const CandidateIndex& candidate_index() const { return candidate_index_; }

  // |I|: total blocks plus block edges across all concept graphs.
  size_t TotalSize() const;

  // True if at least one data node currently carries `label`.  Used by the
  // filter to discard candidate labels that cannot produce candidates.
  bool LabelOccursInData(LabelId label) const {
    return label < data_label_count_.size() && data_label_count_[label] > 0;
  }
  // Maintenance hook: records the label of a node added after Build.
  void RegisterDataLabel(LabelId label);

  // Maintenance hooks for the candidate index, called by ApplyUpdate /
  // AddNodeWithIndex AFTER the data graph and every concept graph reflect
  // the change: recompute the endpoint node signatures (resp. append the
  // new node's) and re-derive the block signatures of every block the
  // concept-graph repairs touched.
  void RepairCandidateIndexAfterEdge(NodeId from, NodeId to);
  void RegisterNodeInCandidateIndex(NodeId v);

  // Re-points the borrowed data-graph / ontology pointers (here and in
  // every concept graph) at relocated instances.  `g` and `o` must be the
  // same logical graphs the index was built over — only their addresses
  // may differ.  Called by QueryEngine's move operations after the
  // by-value graphs relocate.
  void Rebind(const Graph* g, const OntologyGraph* o);

  // Validates every concept graph; test / debugging aid.
  bool Validate() const;

 private:
  OntologyIndex() = default;

  const Graph* g_ = nullptr;          // not owned
  const OntologyGraph* o_ = nullptr;  // not owned
  SimilarityFunction sim_{0.9};
  IndexOptions options_;
  std::vector<ConceptGraph> graphs_;
  CandidateIndex candidate_index_;
  // data_label_count_[l] = number of data nodes labeled l at build time
  // plus nodes registered since.
  std::vector<uint32_t> data_label_count_;
};

}  // namespace osq

#endif  // OSQ_CORE_ONTOLOGY_INDEX_H_
