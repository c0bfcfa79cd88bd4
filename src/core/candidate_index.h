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
// The signatures need no concept graph: the index has no block level.
//
// Maintenance: node signatures depend only on the node's own adjacency and
// are recomputed exactly for the two endpoints of every edge update.
// OntologyIndex drives this from ApplyUpdate, keeping the index exact
// under edge insertions and deletions (proven by
// tests/filter_maintenance_test.cc).  Node label mutation outside the
// maintenance API is unsupported.

#ifndef OSQ_CORE_CANDIDATE_INDEX_H_
#define OSQ_CORE_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

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
// node — thousands of times per query.
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

class CandidateIndex {
 public:
  CandidateIndex() = default;

  // Bit position of the hashed (edge label, node label) pair.
  static uint32_t PairBit(LabelId edge_label, LabelId node_label);

  // Builds the full index, node signatures in parallel over nodes.
  // Identical result for every thread count (every output vector is
  // canonically sorted).
  static CandidateIndex Build(const Graph& g, size_t num_threads);

  size_t num_nodes() const { return node_sigs_.size(); }

  // Data nodes labelled `label`, ascending.  Empty if none.
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

  const NodeSignature& node_signature(NodeId v) const {
    return node_sigs_[v];
  }
  // True when data node v could still match a query node with requirement
  // `req` (necessary condition; never rejects a true match).
  bool NodePasses(NodeId v, const SignatureRequirement& req) const {
    return SignaturePasses(node_sigs_[v], req);
  }

  // --- Incremental maintenance (driven by OntologyIndex) -----------------
  // Recomputes both endpoint signatures after an edge insertion/deletion;
  // the data graph must already reflect the change.
  void OnEdgeChanged(const Graph& g, NodeId from, NodeId to);
  // Appends the signature and label-list entry of freshly added node v
  // (must be the next id).
  void OnNodeAdded(const Graph& g, NodeId v);

  // Exact structural equality — meaningful because every stored vector is
  // canonically sorted, so "maintained incrementally" and "rebuilt from
  // scratch over the same graph" must compare equal.
  friend bool operator==(const CandidateIndex&,
                         const CandidateIndex&) = default;

  // --- Binary snapshot support (core/snapshot.h) --------------------------
  // The signatures are the expensive-to-recompute state; the node label
  // lists are a canonical derivation (ascending ids) and are rebuilt on
  // restore, from the parts and the restored data graph `g`, exactly as
  // Build produces them.
  struct SnapshotParts {
    std::vector<NodeSignature> node_sigs;
  };
  SnapshotParts ExportSnapshotParts() const;
  static CandidateIndex FromSnapshotParts(const Graph& g,
                                          SnapshotParts parts);

 private:
  NodeSignature ComputeNodeSignature(const Graph& g, NodeId v) const;
  void AddToLabelList(const Graph& g, NodeId v);

  std::vector<NodeSignature> node_sigs_;
  // Indexed by data label; trailing labels with no node may be absent.
  std::vector<std::vector<NodeId>> nodes_by_label_;
};

}  // namespace osq

#endif  // OSQ_CORE_CANDIDATE_INDEX_H_
