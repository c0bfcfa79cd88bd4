// Concept graphs — the building block of the ontology index (paper §IV-A).
//
// A concept graph G_o abstracts a data graph G with respect to an ontology
// graph O, a similarity threshold beta, and a set of *concept labels* C:
//   * the node set is a partition of V(G) into blocks; every member of a
//     block is within similarity beta of the block's concept label;
//   * (b1, b2) is a concept edge iff every node of b1 has a child in b2 and
//     every node of b2 has a parent in b1.
// The construction (the paper's CGraph) additionally guarantees that *any*
// data edge between members of two blocks implies the concept edge, i.e.
// whenever some member of b1 points into b2, all members do.  Equivalently:
// all members of a block share the same successor-block set and the same
// predecessor-block set.  This is the invariant that makes the paper's
// block-level Gview filtering lossless (Prop. 4.2), and it is what
// Validate() checks.  The serving engine filters at the node level instead
// and builds no concept graph; only the paper's index builds them
// (concept/concept_index.h).
//
// We implement CGraph as worklist-driven partition refinement: start from
// the concept-label partition and split any block whose members disagree on
// their (successor blocks, predecessor blocks) signature, re-examining
// neighbors of split blocks until a fixpoint.  The fixpoint is the coarsest
// stable refinement of the initial partition, matching the paper's
// SplitMerge semantics.
//
// Incremental maintenance (paper §VI) reuses the same refinement machinery;
// see ConceptIndex::RepairAfterUpdate.

#ifndef OSQ_CONCEPT_CONCEPT_GRAPH_H_
#define OSQ_CONCEPT_CONCEPT_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/ontology_index.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "ontology/ontology_graph.h"
#include "ontology/similarity.h"

namespace osq {

// Options controlling concept-graph construction.
struct ConceptGraphOptions {
  // Similarity threshold beta for grouping nodes under a concept label.
  double beta = 0.81;
  // When true, refinement signatures include edge labels, producing a finer
  // partition whose blocks also agree on the labels of their block-crossing
  // edges.  The paper's index is label-unaware (false); the aware variant is
  // an ablation (bench exp_ablation_strategies).
  bool edge_label_aware = false;
};

class ConceptGraph {
 public:
  // Builds the concept graph of `g` for the given concept label set.
  // Every data label must be within Radius(beta) of some concept label;
  // nodes whose label is not covered are grouped under their own label
  // (a robustness extension — the paper assumes full coverage).
  // `g`, `o` must outlive the concept graph.
  static ConceptGraph Build(const Graph& g, const OntologyGraph& o,
                            const SimilarityFunction& sim,
                            const ConceptGraphOptions& options,
                            std::vector<LabelId> concept_labels,
                            ConceptGraphStats* stats = nullptr);

  ConceptGraph(const ConceptGraph&) = default;
  ConceptGraph& operator=(const ConceptGraph&) = default;
  ConceptGraph(ConceptGraph&&) = default;
  ConceptGraph& operator=(ConceptGraph&&) = default;

  const ConceptGraphOptions& options() const { return options_; }
  const Graph& data_graph() const { return *g_; }

  // Number of live blocks.
  size_t num_blocks() const { return num_alive_; }
  bool IsAlive(BlockId b) const {
    return b < alive_.size() && alive_[b];
  }

  // Block containing data node v.
  BlockId BlockOf(NodeId v) const;
  // Members of block b (unordered).
  const std::vector<NodeId>& Members(BlockId b) const;
  // Concept label of block b.
  LabelId BlockLabel(BlockId b) const;

  // Live blocks whose concept label is `label` (possibly several after
  // refinement splits).  Empty if none.
  const std::vector<BlockId>& BlocksWithLabel(LabelId label) const;

  // All live block ids, ascending.
  std::vector<BlockId> AliveBlocks() const;

  // Successor / predecessor blocks of b (sorted, unique), derived from one
  // representative member — valid because at the refinement fixpoint every
  // member agrees (see file comment).
  std::vector<BlockId> Successors(BlockId b) const;
  std::vector<BlockId> Predecessors(BlockId b) const;

  // Index size |I| contribution: number of blocks plus block edges.
  size_t SizeNodesPlusEdges() const;

  // Full invariant check (partition well-formed; per-block label coverage;
  // every member of a block has identical succ/pred block signature).
  // O(|E| log |V|); test / debugging aid.
  bool Validate() const;

  // --- Incremental maintenance hooks (paper §VI) -------------------------
  // The data graph must ALREADY reflect the update when these are called;
  // they repair the partition around the touched endpoints using the same
  // split refinement plus mcondition-based merging, and return the number
  // of blocks in the affected area AFF.
  size_t RepairAfterEdgeInsertion(NodeId from, NodeId to,
                                  ConceptGraphStats* stats = nullptr);
  size_t RepairAfterEdgeDeletion(NodeId from, NodeId to,
                                 ConceptGraphStats* stats = nullptr);
  // Registers data node `v` added to the graph after construction; places
  // it in a (possibly new) block compatible with its label.
  void RegisterNewNode(NodeId v);

 private:
  ConceptGraph() = default;

  // Build's setup: stores the borrowed pointers and options, dedups the
  // concept labels, and fills concept_of_label_ by a deterministic
  // multi-source BFS at Radius(beta).
  void InitCore(const Graph& g, const OntologyGraph& o,
                const SimilarityFunction& sim,
                const ConceptGraphOptions& options,
                std::vector<LabelId> concept_labels);

  // Signature of node v: sorted unique (block, edge label) keys of its out-
  // and in-neighborhood (edge label forced to 0 when label-unaware).
  using Signature = std::vector<uint64_t>;
  void NodeSignature(NodeId v, Signature* out_sig, Signature* in_sig) const;

  // Splits block b if members disagree on signatures.  Newly created block
  // ids are appended to `created`; returns true if a split happened.
  bool SplitBlock(BlockId b, std::vector<BlockId>* created);

  // Runs the split fixpoint starting from `worklist`; collects every block
  // id that was examined-and-changed into `affected`.
  void RefineFrom(std::vector<BlockId> worklist,
                  std::vector<BlockId>* affected, ConceptGraphStats* stats);

  // Attempts mcondition merges among `candidates` and their same-label
  // peers; returns number of merges performed.
  size_t MergePass(const std::vector<BlockId>& candidates,
                   ConceptGraphStats* stats);

  // Shared implementation of the §VI repairs: local coarsen + split
  // refinement + residual merges around the endpoints of a changed edge.
  size_t RepairAroundEdge(NodeId from, NodeId to, ConceptGraphStats* stats);

  BlockId NewBlock(LabelId concept_label);
  void ReleaseBlock(BlockId b);

  // Neighbor blocks (union over all members; safe mid-refinement).
  std::vector<BlockId> AllNeighborBlocks(BlockId b) const;

  uint64_t EdgeKey(BlockId block, LabelId edge_label) const;

  const Graph* g_ = nullptr;     // not owned; must outlive the index
  const OntologyGraph* o_ = nullptr;  // not owned; must outlive the index
  SimilarityFunction sim_{0.9};  // by value: cheap, avoids lifetime coupling
  ConceptGraphOptions options_;
  std::vector<LabelId> concept_labels_;

  std::vector<BlockId> block_of_;             // node -> block
  std::vector<std::vector<NodeId>> members_;  // block -> member nodes
  std::vector<LabelId> block_label_;          // block -> concept label
  std::vector<bool> alive_;
  std::vector<BlockId> free_blocks_;
  size_t num_alive_ = 0;

  // concept label -> live blocks with that label
  std::unordered_map<LabelId, std::vector<BlockId>> blocks_by_label_;

  // data label -> assigned concept label (nearest within Radius(beta)).
  std::unordered_map<LabelId, LabelId> concept_of_label_;
};

}  // namespace osq

#endif  // OSQ_CONCEPT_CONCEPT_GRAPH_H_
