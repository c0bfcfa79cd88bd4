// Precomputed candidate-pruning index over the data graph (ROADMAP item 1).
//
// For every data node the index keeps a compact *neighborhood signature*:
//   * a 64-bit bitset over hashed (edge label, neighbor node label) pairs,
//     one for the out- and one for the in-neighborhood (the label-pair
//     encoding of l2Match);
//   * exact degree-per-edge-label counts, out and in (the CNI spirit).
// It inverts the node set by label (ascending node lists), so the Gview
// filter (core/filtering.h) seeds with exactly the nodes carrying a
// theta-passing label — found by list lookup instead of a scan — minus
// those whose signature cannot satisfy some incident query edge, and
// rejects expansion candidates by signature before the refinement fixpoint
// ever scans their adjacency.
//
// For an index with concept graphs (OntologyIndex::BuildWithConceptGraphs)
// it also aggregates the member signatures of every block (bitsets OR-ed,
// counts max-ed) and inverts each partition by member label; Gview reads
// neither (its node stage needs no block level), and incIdx keeps them
// repaired.
//
// Losslessness contract (see DESIGN.md §11 for the full argument): every
// signature test is a *necessary* condition for a node to appear in a
// match, so the candidate sets / G_v stay supersets of the match nodes
// (Prop. 4.2).  The tests are:
//   * pair-bit masks — a match of query node u along edge (u, u', l) has a
//     real out-edge labeled l to a node whose label clears theta for u',
//     so the corresponding pair bit is set in its signature; an empty
//     intersection with the mask of all such pairs is a proof of absence
//     (bloom semantics: one-sided error only);
//   * degree counts — query edges from u with one label lead to distinct
//     query nodes, matches are injective, and the data graph holds at most
//     one edge per (from, to, label), so a match of u needs at least the
//     query's per-label degree in distinct data edges.
// Block-level tests aggregate over members, hence reject a block only when
// *no* member could pass — and the concept-graph invariant propagates that
// soundness through the block fixpoint (a match node's block always keeps
// its supporting block edges).
//
// Maintenance: node signatures depend only on the node's own adjacency and
// are recomputed exactly for the two endpoints of every edge update; block
// signatures are recomputed for the blocks the concept-graph repair
// touched (ConceptGraph::TakeDirtyBlocks) plus the endpoints' blocks.
// OntologyIndex drives both from ApplyUpdate, keeping the index exact
// under incIdx± (proven by tests/filter_maintenance_test.cc).  Node label
// mutation outside the maintenance API is unsupported, as for the concept
// graphs themselves.

#ifndef OSQ_CORE_CANDIDATE_INDEX_H_
#define OSQ_CORE_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/concept_graph.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// Sorted-by-label (edge label, count) pairs; the shared shape of degree
// vectors and degree requirements.
using LabelCounts = std::vector<std::pair<LabelId, uint32_t>>;

// One data node's neighborhood signature.
struct NodeSignature {
  uint64_t out_bits = 0;  // hashed (edge label, out-neighbor label) pairs
  uint64_t in_bits = 0;   // hashed (edge label, in-neighbor label) pairs
  LabelCounts out_counts;  // out-degree per edge label
  LabelCounts in_counts;   // in-degree per edge label

  friend bool operator==(const NodeSignature&, const NodeSignature&) = default;
};

// One concept-graph block's aggregated signature: a node-level test can
// reject the whole block only if it would reject every member.
struct BlockSignature {
  uint64_t out_bits = 0;        // OR over members
  uint64_t in_bits = 0;         // OR over members
  std::vector<LabelId> member_labels;  // sorted unique data labels
  LabelCounts max_out_counts;   // per-label max over members
  LabelCounts max_in_counts;    // per-label max over members

  friend bool operator==(const BlockSignature&,
                         const BlockSignature&) = default;
};

// What one query node demands of any data node matching it, precomputed
// once per (query, theta) from the exact candidate-label tables.
struct SignatureRequirement {
  // One entry per incident query edge: the edge label plus the OR of the
  // pair bits of every theta-passing label of the edge's other endpoint.
  // A candidate whose bitset misses a mask entirely cannot be a match.
  std::vector<std::pair<LabelId, uint64_t>> out_masks;
  std::vector<std::pair<LabelId, uint64_t>> in_masks;
  // Minimum degree per edge label (number of incident query edges).
  LabelCounts out_counts;
  LabelCounts in_counts;
};

// Builds the requirement of query node `u`.  `label_sims[w]` is the exact
// candidate-label table of query node w (labels within Radius(theta),
// restricted to labels occurring in the data graph).
SignatureRequirement BuildSignatureRequirement(
    const Graph& query, NodeId u,
    const std::vector<std::unordered_map<LabelId, double>>& label_sims);

// The two primitive tests, inline because the filter runs them per visited
// block / node — thousands of times per query.
inline bool SignatureMasksPass(
    uint64_t bits, const std::vector<std::pair<LabelId, uint64_t>>& masks) {
  for (const auto& [unused_label, mask] : masks) {
    if ((bits & mask) == 0) return false;
  }
  return true;
}

// True when `have` dominates `need` per label; both sorted by label.
inline bool SignatureCountsDominate(const LabelCounts& have,
                                    const LabelCounts& need) {
  size_t i = 0;
  for (const auto& [label, required] : need) {
    while (i < have.size() && have[i].first < label) ++i;
    if (i == have.size() || have[i].first != label ||
        have[i].second < required) {
      return false;
    }
  }
  return true;
}

inline bool SignaturePasses(const NodeSignature& sig,
                            const SignatureRequirement& req) {
  return SignatureMasksPass(sig.out_bits, req.out_masks) &&
         SignatureMasksPass(sig.in_bits, req.in_masks) &&
         SignatureCountsDominate(sig.out_counts, req.out_counts) &&
         SignatureCountsDominate(sig.in_counts, req.in_counts);
}

inline bool SignaturePasses(const BlockSignature& bs,
                            const SignatureRequirement& req) {
  return SignatureMasksPass(bs.out_bits, req.out_masks) &&
         SignatureMasksPass(bs.in_bits, req.in_masks) &&
         SignatureCountsDominate(bs.max_out_counts, req.out_counts) &&
         SignatureCountsDominate(bs.max_in_counts, req.in_counts);
}

class CandidateIndex {
 public:
  CandidateIndex() = default;

  // Bit position of the hashed (edge label, node label) pair.
  static uint32_t PairBit(LabelId edge_label, LabelId node_label);

  // Builds the full index: node signatures in parallel over nodes, block
  // aggregates in parallel over concept graphs (`graphs` may be empty).
  // Identical result for every thread count (all aggregation is
  // commutative and every output vector is canonically sorted).
  static CandidateIndex Build(const Graph& g,
                              const std::vector<ConceptGraph>& graphs,
                              size_t num_threads);

  size_t num_nodes() const { return node_sigs_.size(); }
  size_t num_graphs() const { return per_graph_.size(); }

  // Data nodes labelled `label`, ascending.  Empty if none.
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

  const NodeSignature& node_signature(NodeId v) const {
    return node_sigs_[v];
  }
  const BlockSignature& block_signature(size_t graph_index, BlockId b) const {
    return per_graph_[graph_index].blocks[b];
  }

  // Live blocks of concept graph `graph_index` holding at least one member
  // labeled `label`, ascending.  Empty if none.
  const std::vector<BlockId>& BlocksWithMemberLabel(size_t graph_index,
                                                    LabelId label) const;

  // True when data node v could still match a query node with requirement
  // `req` (necessary condition; never rejects a true match).
  bool NodePasses(NodeId v, const SignatureRequirement& req) const {
    return SignaturePasses(node_sigs_[v], req);
  }
  // True when some member of block b could pass `req`.  The mask test runs
  // against a packed (out_bits, in_bits) mirror — 16 contiguous bytes per
  // block instead of the full signature struct — because the filter's seed
  // stage probes thousands of random blocks and most die on the masks; only
  // mask survivors touch the aggregated count vectors.
  bool BlockPasses(size_t graph_index, BlockId b,
                   const SignatureRequirement& req) const {
    const PerGraph& pg = per_graph_[graph_index];
    const std::pair<uint64_t, uint64_t>& bits = pg.bits[b];
    if (!SignatureMasksPass(bits.first, req.out_masks) ||
        !SignatureMasksPass(bits.second, req.in_masks)) {
      return false;
    }
    const BlockSignature& bs = pg.blocks[b];
    return SignatureCountsDominate(bs.max_out_counts, req.out_counts) &&
           SignatureCountsDominate(bs.max_in_counts, req.in_counts);
  }

  // --- Incremental maintenance (driven by OntologyIndex) -----------------
  // Recomputes both endpoint signatures after an edge insertion/deletion;
  // the data graph must already reflect the change.
  void OnEdgeChanged(const Graph& g, NodeId from, NodeId to);
  // Appends the signature and label-list entry of freshly added node v
  // (must be the next id).
  void OnNodeAdded(const Graph& g, NodeId v);
  // Recomputes the block signatures of `dirty` (sorted unique block ids;
  // dead ids are cleared) against the current partition of `cg`, fixing
  // the member-label inverted index along the way.
  void RepairBlocks(size_t graph_index, const Graph& g, const ConceptGraph& cg,
                    const std::vector<BlockId>& dirty);

  // Exact structural equality — meaningful because every stored vector is
  // canonically sorted, so "maintained incrementally" and "rebuilt from
  // scratch over the same graph and partition" must compare equal.
  friend bool operator==(const CandidateIndex&,
                         const CandidateIndex&) = default;

  // --- Binary snapshot support (core/snapshot.h) --------------------------
  // The signatures are the expensive-to-recompute state; the packed bits
  // mirror, the member-label inverted index and the node label lists are
  // canonical derivations (ascending ids) and are rebuilt on restore, from
  // the parts and the restored data graph `g`, exactly as Build produces
  // them.
  struct SnapshotParts {
    std::vector<NodeSignature> node_sigs;
    std::vector<std::vector<BlockSignature>> per_graph_blocks;
  };
  SnapshotParts ExportSnapshotParts() const;
  static CandidateIndex FromSnapshotParts(const Graph& g,
                                          SnapshotParts parts);

 private:
  struct PerGraph {
    // Indexed by block id (dead slots hold a default signature).
    std::vector<BlockSignature> blocks;
    // Packed (out_bits, in_bits) mirror of blocks[b], kept in lockstep;
    // the mask-test fast path of BlockPasses reads only this.
    std::vector<std::pair<uint64_t, uint64_t>> bits;
    // data label -> live blocks with a member carrying it (sorted); labels
    // with no block are absent, never mapped to an empty list.
    std::unordered_map<LabelId, std::vector<BlockId>> blocks_by_member_label;

    friend bool operator==(const PerGraph&, const PerGraph&) = default;
  };

  NodeSignature ComputeNodeSignature(const Graph& g, NodeId v) const;
  BlockSignature ComputeBlockSignature(const Graph& g, const ConceptGraph& cg,
                                       BlockId b) const;
  void AddToLabelList(const Graph& g, NodeId v);

  std::vector<NodeSignature> node_sigs_;
  // Indexed by data label; trailing labels with no node may be absent.
  std::vector<std::vector<NodeId>> nodes_by_label_;
  std::vector<PerGraph> per_graph_;
};

}  // namespace osq

#endif  // OSQ_CORE_CANDIDATE_INDEX_H_
