// Precomputed candidate-pruning index over the data graph (ROADMAP item 1).
//
// For every data node the index keeps a two-word *neighborhood signature*:
// a 64-bit Bloom filter over (edge label, neighbor node label) pairs, one
// word for the out- and one for the in-neighborhood (the label-pair
// encoding of l2Match).  Each pair sets three bits, all cut from one
// multiplicative hash (PairMask), so the test "does v have an edge with
// label l to a node whose label clears theta?" is a containment test of a
// three-bit mask, sharper than a one-bit overlap (the neighbour-label
// existence test of the Compact Neighborhood Index).  The exact
// per-edge-label degree test (the CNI spirit) needs no stored counts: it
// is read from the node's own adjacency in the data graph, and only for
// nodes whose masks already passed.
// It inverts the node set by label (ascending node lists), so the Gview
// filter (core/filtering.h) seeds with exactly the nodes carrying a
// theta-passing label — found by list lookup instead of a scan — minus
// those whose signature cannot satisfy some incident query edge, and
// rejects expansion candidates by signature before the refinement fixpoint
// ever scans their adjacency.  The filter's candidate loops prefetch a
// node's signature ahead of its test (PrefetchSignature); the hint changes
// no result.
//
// Losslessness contract (see DESIGN.md §11 for the full argument): every
// signature test is a *necessary* condition for a node to appear in a
// match, so the candidate sets / G_v stay supersets of the match nodes
// (Prop. 4.2).  The tests are:
//   * pair masks — a match of query node u along edge (u, u', l) has a
//     real out-edge labeled l to a node whose label clears theta for u',
//     so all three bits of that pair's mask are set in its signature; a
//     signature that contains none of the masks of all such pairs is a
//     proof of absence (Bloom semantics: one-sided error only);
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
// tests/filter_maintenance_test.cc); the degree test reads the current
// adjacency, thaw overlay included, so it needs no repair.  Node label
// mutation outside the maintenance API is unsupported.

#ifndef OSQ_CORE_CANDIDATE_INDEX_H_
#define OSQ_CORE_CANDIDATE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// Sorted-by-label (edge label, count) pairs: a degree requirement.
using LabelCounts = std::vector<std::pair<LabelId, uint32_t>>;

// One data node's neighborhood signature: two words, no heap.
struct NodeSignature {
  uint64_t out_bits = 0;  // PairMask of every (edge label, out-neighbor label)
  uint64_t in_bits = 0;   // PairMask of every (edge label, in-neighbor label)

  friend bool operator==(const NodeSignature&, const NodeSignature&) = default;
};
static_assert(sizeof(NodeSignature) == 16,
              "NodeSignature is two words: the snapshot stores it verbatim");

// The three Bloom bits of the (edge label, node label) pair: the top three
// 6-bit fields of one multiplicative hash of the packed pair (the bits may
// coincide, so a mask has one to three bits).
inline uint64_t PairMask(LabelId edge_label, LabelId node_label) {
  uint64_t x = ((static_cast<uint64_t>(edge_label) << 32) |
                static_cast<uint64_t>(node_label)) *
               0x9E3779B97F4A7C15ULL;
  return (uint64_t{1} << (x >> 58)) | (uint64_t{1} << ((x >> 52) & 63)) |
         (uint64_t{1} << ((x >> 46) & 63));
}

// What one incident query edge demands of a signature word: one of `masks`
// wholly contained in it.
struct EdgeMasks {
  // The PairMask of every theta-passing label of the edge's other
  // endpoint, sorted and de-duplicated, so the requirement does not
  // depend on the label table's iteration order.
  std::vector<uint64_t> masks;
  // OR of `masks`: a word that meets none of its bits contains no mask.
  uint64_t any = 0;
};

// What one query node demands of any data node matching it, precomputed
// once per (query, theta) from the exact candidate-label tables.
struct SignatureRequirement {
  // One entry per incident query edge.  A candidate whose signature word
  // contains none of an entry's masks cannot be a match.
  std::vector<EdgeMasks> out_masks;
  std::vector<EdgeMasks> in_masks;
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
inline bool SignatureMasksPass(uint64_t bits,
                               const std::vector<EdgeMasks>& edges) {
  for (const EdgeMasks& e : edges) {
    if ((bits & e.any) == 0 ||
        std::none_of(e.masks.begin(), e.masks.end(),
                     [bits](uint64_t m) { return (bits & m) == m; })) {
      return false;
    }
  }
  return true;
}

// True when `adj` holds at least the required number of edges of every
// label in `need`.  Each count stops scanning once it is met.
inline bool AdjacencyMeetsCounts(Graph::AdjSpan adj, const LabelCounts& need) {
  for (const auto& [label, required] : need) {
    uint32_t seen = 0;
    for (const AdjEntry* a = adj.begin(); a != adj.end() && seen < required;
         ++a) {
      if (a->label == label) ++seen;
    }
    if (seen < required) return false;
  }
  return true;
}

class CandidateIndex {
 public:
  CandidateIndex() = default;

  // Builds the full index: one pass over the adjacency, node signatures in
  // parallel over nodes.  Identical result for every thread count.
  static CandidateIndex Build(const Graph& g, size_t num_threads);

  size_t num_nodes() const { return node_sigs_.size(); }

  // Data nodes labelled `label`, ascending.  Empty if none.
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

  const NodeSignature& node_signature(NodeId v) const {
    return node_sigs_[v];
  }
  // Cache hint for node_signature(v); changes nothing observable.
  void PrefetchSignature(NodeId v) const {
    __builtin_prefetch(&node_sigs_[v]);
  }

  // The two halves of NodePasses, for callers that prefetch v's adjacency
  // between them: the mask test (signature only) and the degree test
  // (v's adjacency in each direction whose requirement is non-empty).
  bool MasksPass(NodeId v, const SignatureRequirement& req) const {
    const NodeSignature& sig = node_sigs_[v];
    return SignatureMasksPass(sig.out_bits, req.out_masks) &&
           SignatureMasksPass(sig.in_bits, req.in_masks);
  }
  static bool DegreesPass(const Graph& g, NodeId v,
                          const SignatureRequirement& req) {
    return (req.out_counts.empty() ||
            AdjacencyMeetsCounts(g.OutEdges(v), req.out_counts)) &&
           (req.in_counts.empty() ||
            AdjacencyMeetsCounts(g.InEdges(v), req.in_counts));
  }
  // True when data node v of `g` (the graph this index was built over and
  // maintained with) could still match a query node with requirement `req`
  // (necessary condition; never rejects a true match).  The masks are
  // tested first; the degree requirement of a direction is then counted
  // over v's adjacency in that direction, only when it is non-empty.
  bool NodePasses(const Graph& g, NodeId v,
                  const SignatureRequirement& req) const {
    return MasksPass(v, req) && DegreesPass(g, v, req);
  }

  // --- Incremental maintenance (core/index_maintenance.h) ----------------
  // Recomputes both endpoint signatures after an edge insertion/deletion;
  // the data graph must already reflect the change.
  void OnEdgeChanged(const Graph& g, NodeId from, NodeId to);
  // Appends the signature and label-list entry of freshly added node v
  // (must be the next id).
  void OnNodeAdded(const Graph& g, NodeId v);

  // Exact structural equality — meaningful because the signatures are a
  // function of the adjacency and the label lists ascend, so "maintained
  // incrementally" and "rebuilt from scratch over the same graph" must
  // compare equal.
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
  static NodeSignature ComputeNodeSignature(const Graph& g, NodeId v);
  void AddToLabelList(const Graph& g, NodeId v);

  std::vector<NodeSignature> node_sigs_;
  // Indexed by data label; trailing labels with no node may be absent.
  std::vector<std::vector<NodeId>> nodes_by_label_;
};

}  // namespace osq

#endif  // OSQ_CORE_CANDIDATE_INDEX_H_
