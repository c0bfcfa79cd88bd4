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
// predecessor-block set.  This is the invariant that makes Gview filtering
// lossless (Prop. 4.2), and it is what Validate() checks.
//
// We implement CGraph as worklist-driven partition refinement: start from
// the concept-label partition and split any block whose members disagree on
// their (successor blocks, predecessor blocks) signature, re-examining
// neighbors of split blocks until a fixpoint.  The fixpoint is the coarsest
// stable refinement of the initial partition, matching the paper's
// SplitMerge semantics.
//
// Incremental maintenance (paper §VI) reuses the same refinement machinery;
// see index_maintenance.h.

#ifndef OSQ_CORE_CONCEPT_GRAPH_H_
#define OSQ_CORE_CONCEPT_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "ontology/ontology_graph.h"
#include "ontology/similarity.h"

namespace osq {

// Construction / maintenance statistics, reported by benches.
struct ConceptGraphStats {
  size_t initial_blocks = 0;
  size_t final_blocks = 0;
  size_t splits = 0;
  size_t merges = 0;
};

// Options controlling concept-graph construction.
struct ConceptGraphOptions {
  // Similarity threshold beta for grouping nodes under a concept label.
  double beta = 0.81;
  // When true, refinement signatures include edge labels, producing a finer
  // partition whose blocks also agree on the labels of their block-crossing
  // edges.  The paper's index is label-unaware (false); the aware variant is
  // an ablation (bench exp_ablation_strategies).
  bool edge_label_aware = false;
  // Repair locality bounds (§VI): during incremental maintenance, a
  // same-label block group is re-coarsened (merged and re-split to the
  // local optimum) only when it has at most this many blocks; larger groups
  // fall back to pairwise mcondition merging.  Keeps AFF — and repair cost —
  // proportional to the change instead of the label population.
  size_t max_coarsen_group = 8;
  // Pairwise mcondition merging scans a candidate's same-label peers only
  // when the group has at most this many blocks.
  size_t max_merge_peers = 64;
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

  // Complete internal state of a concept graph, as stored in a binary
  // snapshot (core/snapshot.h).  A restore adopts every structure
  // verbatim instead of replaying the concept-label BFS, so a graph
  // maintained after a reload behaves identically to one that was never
  // saved (same free-list order, same block-id allocation, same
  // BlocksWithLabel iteration order).
  struct SnapshotParts {
    std::vector<LabelId> concept_labels;             // sorted unique
    std::vector<std::vector<NodeId>> members;        // block -> member nodes
    std::vector<LabelId> block_label;                // block -> concept label
    std::vector<uint8_t> alive;                      // block -> liveness
    std::vector<BlockId> free_blocks;                // dead ids, stack order
    // concept label -> live blocks, insertion order preserved; entries
    // sorted by label for a canonical encoding.
    std::vector<std::pair<LabelId, std::vector<BlockId>>> blocks_by_label;
    std::vector<std::pair<LabelId, LabelId>> concept_of_label;  // sorted
  };
  SnapshotParts ExportSnapshotParts() const;

  // Rebuilds a concept graph from snapshot parts, skipping both the
  // concept-assignment BFS and partition refinement.  Validates partition
  // well-formedness (every node in exactly one live block, consistent
  // free list / label index) and fails with Corruption on any violation;
  // the deep invariants are covered by the snapshot's content hash.  On
  // success the restored graph is appended to `*out` (appended, not
  // assigned: there is deliberately no way to construct an empty
  // ConceptGraph to assign into).
  [[nodiscard]] static Status FromSnapshotParts(
      const Graph& g, const OntologyGraph& o, const SimilarityFunction& sim,
      const ConceptGraphOptions& options, SnapshotParts parts,
      std::vector<ConceptGraph>* out);

  ConceptGraph(const ConceptGraph&) = default;
  ConceptGraph& operator=(const ConceptGraph&) = default;
  ConceptGraph(ConceptGraph&&) = default;
  ConceptGraph& operator=(ConceptGraph&&) = default;

  double beta() const { return options_.beta; }
  const ConceptGraphOptions& options() const { return options_; }
  const std::vector<LabelId>& concept_labels() const {
    return concept_labels_;
  }
  const Graph& data_graph() const { return *g_; }

  // Number of live blocks.
  size_t num_blocks() const { return num_alive_; }
  // Upper bound on block ids (dead slots included); for dense arrays.
  size_t block_capacity() const { return members_.size(); }
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

  // True if the representative of `b` has an out-edge into block `target`
  // (respecting `edge_label` as AnyNeighborBlock below does).
  bool HasSuccessorBlock(BlockId b, BlockId target, LabelId edge_label) const;
  bool HasPredecessorBlock(BlockId b, BlockId source, LabelId edge_label) const;

  // The neighbour-block scan behind the filter's block fixpoint and seed
  // expansion: calls visit(block) for the block of each out-edge
  // (`forward`) or in-edge of b's representative member, and returns true
  // as soon as visit does.  Edges whose label differs from `edge_label`
  // (unless kInvalidLabel) are skipped when the graph is edge-label aware
  // or b has a single member.  Otherwise EVERY edge of the representative
  // is followed: a label-unaware partition makes members agree on their
  // neighbour blocks but not on the labels of the edges into them, so a
  // member's edge of the wanted label into block c shows up at the
  // representative only as SOME edge into c.
  template <typename Visit>
  bool AnyNeighborBlock(BlockId b, bool forward, LabelId edge_label,
                        Visit&& visit) const {
    OSQ_DCHECK(IsAlive(b));
    const std::vector<NodeId>& ms = members_[b];
    bool check_label = edge_label != kInvalidLabel &&
                       (options_.edge_label_aware || ms.size() == 1);
    NodeId rep = ms[0];
    for (const AdjEntry& e : forward ? g_->OutEdges(rep) : g_->InEdges(rep)) {
      if (check_label && e.label != edge_label) continue;
      if (visit(block_of_[e.node])) return true;
    }
    return false;
  }

  // Out-degree (`forward`) or in-degree of b's representative: the number
  // of entries AnyNeighborBlock scans on a label-unaware graph.
  size_t RepresentativeDegree(BlockId b, bool forward) const {
    OSQ_DCHECK(IsAlive(b));
    NodeId rep = members_[b][0];
    return forward ? g_->OutDegree(rep) : g_->InDegree(rep);
  }

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

  // Re-points the borrowed graph pointers at relocated instances of the
  // same logical graphs (see OntologyIndex::Rebind).
  void Rebind(const Graph* g, const OntologyGraph* o) {
    g_ = g;
    o_ = o;
  }

  // Drains the set of blocks whose membership changed since the last call
  // (created, released, split, merged into, or re-coarsened), sorted
  // ascending; dead ids are included so derived indexes (see
  // core/candidate_index.h) can clear their per-block state.  Build and
  // FromSnapshotParts finish with an empty dirty set.
  std::vector<BlockId> TakeDirtyBlocks();

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

  // Records b in the dirty set (see TakeDirtyBlocks).  Called by every
  // path that rewrites members_ / block_of_.
  void MarkDirty(BlockId b);

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

  // Blocks with membership changes not yet drained by TakeDirtyBlocks.
  std::vector<BlockId> dirty_blocks_;
  std::vector<bool> dirty_flag_;

  // data label -> assigned concept label (nearest within Radius(beta)).
  std::unordered_map<LabelId, LabelId> concept_of_label_;
};

}  // namespace osq

#endif  // OSQ_CORE_CONCEPT_GRAPH_H_
