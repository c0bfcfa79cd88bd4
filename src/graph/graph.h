// Directed, node- and edge-labeled graph on a compact CSR substrate.
//
// This is the shared substrate for data graphs and query graphs (the paper's
// G = (V, E, L) and Q = (V_q, E_q, L_q)).  Nodes are dense ids assigned by
// AddNode; labels are LabelIds from an external LabelDictionary.  Parallel
// edges with distinct edge labels are allowed (a pair of entities may be
// related in more than one way); an exact duplicate (same endpoints, same
// label) is rejected.
//
// Storage model (frozen / thawed split):
//   * The *frozen* representation is CSR: one flat, sorted AdjEntry array
//     per direction plus a (num_nodes + 1)-sized offset array, always read
//     through plain pointers.  One shared anchor keeps the arrays alive:
//     the heap block GraphBuilder::Build assembled, or a mapped snapshot
//     (core/snapshot.h).  Nothing writes the arrays once they exist, so
//     copies of a graph share them.  GraphBuilder::Build is the one place
//     CSR arrays are assembled; Freeze() and InducedSubgraph build through
//     it.
//   * Mutations (the incIdx± maintenance path, paper §VI) go through a
//     per-node *thaw* overlay: the first edit of a node's adjacency copies
//     its CSR range into a private sorted vector and all further reads and
//     edits of that node use the overlay.  Untouched nodes keep reading the
//     flat arrays.
//   * Freeze() rebuilds the CSR from the current adjacency (QueryEngine
//     freezes the data graph before indexing it); a fully frozen graph is
//     left as it is.
// Both representations keep adjacency sorted by (node, label), so
// membership tests stay logarithmic and EdgeLabelRange stays a contiguous
// view in either mode.
//
// Copying a Graph costs O(|V|) plus its overlay, not O(|E|): the copy
// shares the frozen arrays and gets its own node labels and overlay, so a
// mutation of either graph never shows in the other.

#ifndef OSQ_GRAPH_GRAPH_H_
#define OSQ_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"

namespace osq {

// One directed adjacency entry: an edge to (or from) `node` with `label`.
struct AdjEntry {
  NodeId node;
  LabelId label;

  friend bool operator==(const AdjEntry&, const AdjEntry&) = default;
  friend auto operator<=>(const AdjEntry& a, const AdjEntry& b) {
    if (auto c = a.node <=> b.node; c != 0) return c;
    return a.label <=> b.label;
  }
};
static_assert(sizeof(AdjEntry) == 8, "AdjEntry must stay a packed 8-byte "
                                     "POD: snapshots map it directly");

// Offset type of the CSR arrays (indexes into the entry arrays).
using EdgeIndex = uint64_t;

// A fully-specified directed edge, used for update streams and edge lists.
struct EdgeTriple {
  NodeId from;
  NodeId to;
  LabelId label;

  friend bool operator==(const EdgeTriple&, const EdgeTriple&) = default;
  friend auto operator<=>(const EdgeTriple& a, const EdgeTriple& b) {
    if (auto c = a.from <=> b.from; c != 0) return c;
    if (auto c = a.to <=> b.to; c != 0) return c;
    return a.label <=> b.label;
  }
};

class Graph {
 public:
  // Contiguous, immutable view of one node's adjacency (sorted by
  // (node, label)).  Invalidated by any mutation of that node's edges and
  // by Freeze().
  struct AdjSpan {
    const AdjEntry* first = nullptr;
    const AdjEntry* last = nullptr;

    size_t size() const { return static_cast<size_t>(last - first); }
    bool empty() const { return first == last; }
    const AdjEntry* begin() const { return first; }
    const AdjEntry* end() const { return last; }
    const AdjEntry* data() const { return first; }
    const AdjEntry& operator[](size_t i) const { return first[i]; }
  };

  // EdgeLabelView is the historical name of the verification hot-path view
  // (labels of all edges from one node to another); structurally it is the
  // same span type.
  using EdgeLabelView = AdjSpan;

  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // Adds a node with the given label; returns its id (dense, increasing).
  NodeId AddNode(LabelId label);

  // Adds `count` nodes all labeled `label`; returns the first new id.
  NodeId AddNodes(size_t count, LabelId label);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }
  bool empty() const { return num_nodes_ == 0; }

  bool IsValidNode(NodeId v) const { return v < num_nodes_; }

  LabelId NodeLabel(NodeId v) const;
  void SetNodeLabel(NodeId v, LabelId label);

  // Inserts edge (from, to, label).  Returns false (and leaves the graph
  // unchanged) if the identical edge already exists.
  bool AddEdge(NodeId from, NodeId to, LabelId label = kDefaultEdgeLabel);

  // Removes edge (from, to, label).  Returns false if it does not exist.
  bool RemoveEdge(NodeId from, NodeId to, LabelId label = kDefaultEdgeLabel);

  bool HasEdge(NodeId from, NodeId to, LabelId label) const;

  // True if any edge from `from` to `to` exists, regardless of label.
  bool HasEdgeAnyLabel(NodeId from, NodeId to) const;

  // Out-neighbors of v as (node, edge label) pairs sorted by (node, label).
  AdjSpan OutEdges(NodeId v) const {
    int32_t s = out_slot_[v];
    if (s >= 0) {
      const std::vector<AdjEntry>& d = dyn_out_[static_cast<size_t>(s)];
      return {d.data(), d.data() + d.size()};
    }
    return CsrSpan(v, out_offsets_, out_entries_);
  }
  // In-neighbors of v: entry.node is the source of an edge into v.
  AdjSpan InEdges(NodeId v) const {
    int32_t s = in_slot_[v];
    if (s >= 0) {
      const std::vector<AdjEntry>& d = dyn_in_[static_cast<size_t>(s)];
      return {d.data(), d.data() + d.size()};
    }
    return CsrSpan(v, in_offsets_, in_entries_);
  }

  size_t OutDegree(NodeId v) const { return OutEdges(v).size(); }
  size_t InDegree(NodeId v) const { return InEdges(v).size(); }
  size_t Degree(NodeId v) const { return OutDegree(v) + InDegree(v); }

  // Lightweight iterable view of all edges in (from, to, label) order.
  // No allocation; invalidated by any mutation.  Prefer this over
  // EdgeList() whenever a single pass suffices.
  class EdgeRange {
   public:
    class iterator {
     public:
      iterator(const Graph* g, NodeId v) : g_(g), v_(v) { Settle(); }

      EdgeTriple operator*() const {
        const AdjEntry& e = span_[i_];
        return {v_, e.node, e.label};
      }
      iterator& operator++() {
        ++i_;
        if (i_ >= span_.size()) {
          ++v_;
          i_ = 0;
          Settle();
        }
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.v_ == b.v_ && a.i_ == b.i_;
      }

     private:
      // Advances v_ past nodes with no out-edges; caches the span.
      void Settle() {
        while (v_ < g_->num_nodes()) {
          span_ = g_->OutEdges(v_);
          if (!span_.empty()) return;
          ++v_;
        }
        span_ = AdjSpan{};
      }

      const Graph* g_;
      NodeId v_;
      size_t i_ = 0;
      AdjSpan span_{};
    };

    explicit EdgeRange(const Graph* g) : g_(g) {}
    iterator begin() const { return iterator(g_, 0); }
    iterator end() const {
      return iterator(g_, static_cast<NodeId>(g_->num_nodes()));
    }
    size_t size() const { return g_->num_edges(); }
    bool empty() const { return g_->num_edges() == 0; }

   private:
    const Graph* g_;
  };
  EdgeRange Edges() const { return EdgeRange(this); }

  // All edges materialized in (from, to, label) order.  O(|E|) and
  // allocates; kept for callers that genuinely need a mutable vector
  // (shuffling update streams, structural comparison in tests).
  std::vector<EdgeTriple> EdgeList() const;

  // Labels of all edges from `from` to `to`, ascending.  O(log + #labels).
  std::vector<LabelId> EdgeLabelsBetween(NodeId from, NodeId to) const;

  // Contiguous run of adjacency entries for the edges from `from` to `to`
  // (their .label fields are the ascending edge labels).  An allocation-free
  // view into the sorted out-adjacency; invalidated by graph mutation.
  // This is the verification hot path — KMatch calls it for every
  // (candidate, assigned-node) pair.
  EdgeLabelView EdgeLabelRange(NodeId from, NodeId to) const {
    AdjSpan adj = OutEdges(from);
    const AdjEntry* lo =
        std::lower_bound(adj.begin(), adj.end(), AdjEntry{to, 0});
    const AdjEntry* hi = lo;
    while (hi != adj.end() && hi->node == to) ++hi;
    return {lo, hi};
  }

  // --- Freeze / thaw ------------------------------------------------------

  // Rebuilds the CSR arrays from the current adjacency (through
  // GraphBuilder::Build).  After Freeze() all reads hit the flat arrays;
  // the next mutation re-thaws the touched nodes.  O(|V| + |E|); no-op
  // when nothing is thawed and the CSR already covers every node.
  void Freeze();

  // True when every node reads from the frozen CSR arrays (no overlay).
  bool fully_frozen() const {
    return num_thawed_ == 0 && csr_nodes_ == num_nodes_;
  }
  // Number of nodes whose adjacency currently lives in the thaw overlay
  // (out- and in-thaws counted separately); diagnostics / tests.
  size_t num_thawed() const { return num_thawed_; }

  // Adopts a frozen CSR image without copying the arrays (the zero-copy
  // snapshot load path, core/snapshot.h); the node labels are copied.  The
  // arrays must outlive every copy of the returned graph — `anchor` is
  // held for exactly that — and must already satisfy the Graph
  // invariants: offsets monotone with offsets[n] == num_edges, adjacency
  // sorted by (node, label) with no exact duplicates, out/in mirrored.
  // The snapshot layer bounds-checks the structure before trusting it;
  // semantic mirroring is covered by the snapshot's content hash.
  static Graph FromFrozenCsr(size_t num_nodes, size_t num_edges,
                             const LabelId* labels,
                             const EdgeIndex* out_offsets,
                             const AdjEntry* out_entries,
                             const EdgeIndex* in_offsets,
                             const AdjEntry* in_entries,
                             std::shared_ptr<const void> anchor);

  // True when the CSR arrays live in a snapshot mapping (FromFrozenCsr)
  // rather than in a block GraphBuilder::Build assembled.
  bool is_snapshot_backed() const { return snapshot_backed_; }

  // Internal consistency check (out/in mirrors agree, sorted, counts
  // match).  Used by tests; O(|V| + |E| log |E|).
  bool CheckConsistency() const;

 private:
  friend class GraphBuilder;

  AdjSpan CsrSpan(NodeId v, const EdgeIndex* offsets,
                  const AdjEntry* entries) const {
    if (v >= csr_nodes_) return {};  // node added after the last Freeze
    return {entries + offsets[v], entries + offsets[v + 1]};
  }

  // Moves node v's adjacency (one direction) into the overlay and returns
  // the mutable vector.  Idempotent.
  std::vector<AdjEntry>* ThawOut(NodeId v);
  std::vector<AdjEntry>* ThawIn(NodeId v);

  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  std::vector<LabelId> labels_;

  // Frozen CSR over nodes [0, csr_nodes_), read-only.  csr_anchor_ keeps
  // the arrays alive (GraphBuilder::Build's block or a snapshot mapping)
  // and is shared by copies.
  size_t csr_nodes_ = 0;
  const EdgeIndex* out_offsets_ = nullptr;
  const AdjEntry* out_entries_ = nullptr;
  const EdgeIndex* in_offsets_ = nullptr;
  const AdjEntry* in_entries_ = nullptr;
  std::shared_ptr<const void> csr_anchor_;
  bool snapshot_backed_ = false;

  // Thaw overlay: slot >= 0 means the adjacency lives in dyn_*[slot].
  // Nodes >= csr_nodes_ with slot -1 have no edges in that direction yet.
  std::vector<int32_t> out_slot_;
  std::vector<int32_t> in_slot_;
  std::vector<std::vector<AdjEntry>> dyn_out_;
  std::vector<std::vector<AdjEntry>> dyn_in_;
  size_t num_thawed_ = 0;  // out- and in-thaws counted separately
};

// Bulk constructor: collect nodes and edges in any order, then Build()
// sorts once, drops exact duplicates and emits a fully frozen CSR graph.
// O(V + E log E) total, O(V + E) when the edges arrive in (from, to,
// label) order — the path loaders, generators, Freeze() and
// InducedSubgraph use instead of per-edge sorted insertion.
class GraphBuilder {
 public:
  NodeId AddNode(LabelId label) {
    NodeId id = static_cast<NodeId>(labels_.size());
    labels_.push_back(label);
    return id;
  }
  NodeId AddNodes(size_t count, LabelId label) {
    NodeId first = static_cast<NodeId>(labels_.size());
    labels_.resize(labels_.size() + count, label);
    return first;
  }
  void ReserveEdges(size_t n) { edges_.reserve(n); }
  // Endpoints must already be added; exact duplicates are dropped by
  // Build().
  void AddEdge(NodeId from, NodeId to, LabelId label = kDefaultEdgeLabel) {
    edges_.push_back({from, to, label});
  }

  size_t num_nodes() const { return labels_.size(); }
  size_t num_pending_edges() const { return edges_.size(); }

  // Consumes the builder.
  Graph Build() &&;

 private:
  friend class Graph;  // Freeze() hands its labels over without a copy

  std::vector<LabelId> labels_;
  std::vector<EdgeTriple> edges_;
};

}  // namespace osq

#endif  // OSQ_GRAPH_GRAPH_H_
