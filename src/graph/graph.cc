#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace osq {

namespace {

// Inserts `entry` into the sorted vector `adj`; returns false if present.
bool SortedInsert(std::vector<AdjEntry>* adj, AdjEntry entry) {
  auto it = std::lower_bound(adj->begin(), adj->end(), entry);
  if (it != adj->end() && *it == entry) {
    return false;
  }
  adj->insert(it, entry);
  return true;
}

// Removes `entry` from the sorted vector `adj`; returns false if absent.
bool SortedErase(std::vector<AdjEntry>* adj, AdjEntry entry) {
  auto it = std::lower_bound(adj->begin(), adj->end(), entry);
  if (it == adj->end() || *it != entry) {
    return false;
  }
  adj->erase(it);
  return true;
}

bool SpanContains(Graph::AdjSpan adj, AdjEntry entry) {
  return std::binary_search(adj.begin(), adj.end(), entry);
}

// The heap block behind the CSR pointers of a graph GraphBuilder::Build
// assembled.
struct CsrBlock {
  std::vector<EdgeIndex> out_offsets;
  std::vector<AdjEntry> out_entries;
  std::vector<EdgeIndex> in_offsets;
  std::vector<AdjEntry> in_entries;
};

}  // namespace

NodeId Graph::AddNode(LabelId label) {
  NodeId id = static_cast<NodeId>(num_nodes_);
  labels_.push_back(label);
  out_slot_.push_back(-1);
  in_slot_.push_back(-1);
  ++num_nodes_;
  return id;
}

NodeId Graph::AddNodes(size_t count, LabelId label) {
  NodeId first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  labels_.resize(num_nodes_, label);
  out_slot_.resize(num_nodes_, -1);
  in_slot_.resize(num_nodes_, -1);
  return first;
}

LabelId Graph::NodeLabel(NodeId v) const {
  OSQ_DCHECK(IsValidNode(v));
  return labels_[v];
}

void Graph::SetNodeLabel(NodeId v, LabelId label) {
  OSQ_DCHECK(IsValidNode(v));
  labels_[v] = label;
}

std::vector<AdjEntry>* Graph::ThawOut(NodeId v) {
  int32_t s = out_slot_[v];
  if (s >= 0) return &dyn_out_[static_cast<size_t>(s)];
  AdjSpan frozen = CsrSpan(v, out_offsets_, out_entries_);
  out_slot_[v] = static_cast<int32_t>(dyn_out_.size());
  dyn_out_.emplace_back(frozen.begin(), frozen.end());
  ++num_thawed_;
  return &dyn_out_.back();
}

std::vector<AdjEntry>* Graph::ThawIn(NodeId v) {
  int32_t s = in_slot_[v];
  if (s >= 0) return &dyn_in_[static_cast<size_t>(s)];
  AdjSpan frozen = CsrSpan(v, in_offsets_, in_entries_);
  in_slot_[v] = static_cast<int32_t>(dyn_in_.size());
  dyn_in_.emplace_back(frozen.begin(), frozen.end());
  ++num_thawed_;
  return &dyn_in_.back();
}

bool Graph::AddEdge(NodeId from, NodeId to, LabelId label) {
  OSQ_DCHECK(IsValidNode(from));
  OSQ_DCHECK(IsValidNode(to));
  if (!SortedInsert(ThawOut(from), {to, label})) {
    return false;
  }
  bool inserted = SortedInsert(ThawIn(to), {from, label});
  OSQ_DCHECK(inserted);
  (void)inserted;
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(NodeId from, NodeId to, LabelId label) {
  OSQ_DCHECK(IsValidNode(from));
  OSQ_DCHECK(IsValidNode(to));
  // Probe before thawing: a miss must not leave `from` needlessly thawed.
  if (!SpanContains(OutEdges(from), {to, label})) {
    return false;
  }
  bool erased_out = SortedErase(ThawOut(from), {to, label});
  OSQ_DCHECK(erased_out);
  (void)erased_out;
  bool erased_in = SortedErase(ThawIn(to), {from, label});
  OSQ_DCHECK(erased_in);
  (void)erased_in;
  --num_edges_;
  return true;
}

bool Graph::HasEdge(NodeId from, NodeId to, LabelId label) const {
  OSQ_DCHECK(IsValidNode(from));
  OSQ_DCHECK(IsValidNode(to));
  return SpanContains(OutEdges(from), {to, label});
}

bool Graph::HasEdgeAnyLabel(NodeId from, NodeId to) const {
  OSQ_DCHECK(IsValidNode(from));
  OSQ_DCHECK(IsValidNode(to));
  AdjSpan adj = OutEdges(from);
  const AdjEntry* it =
      std::lower_bound(adj.begin(), adj.end(), AdjEntry{to, 0});
  return it != adj.end() && it->node == to;
}

std::vector<EdgeTriple> Graph::EdgeList() const {
  std::vector<EdgeTriple> edges;
  edges.reserve(num_edges_);
  for (const EdgeTriple& e : Edges()) {
    edges.push_back(e);
  }
  return edges;
}

std::vector<LabelId> Graph::EdgeLabelsBetween(NodeId from, NodeId to) const {
  OSQ_DCHECK(IsValidNode(from));
  OSQ_DCHECK(IsValidNode(to));
  std::vector<LabelId> labels;
  for (const AdjEntry& e : EdgeLabelRange(from, to)) {
    labels.push_back(e.label);
  }
  return labels;
}

void Graph::Freeze() {
  if (fully_frozen()) return;
  GraphBuilder builder;
  builder.labels_ = std::move(labels_);
  builder.ReserveEdges(num_edges_);
  for (const EdgeTriple& e : Edges()) {
    builder.AddEdge(e.from, e.to, e.label);
  }
  *this = std::move(builder).Build();
}

Graph Graph::FromFrozenCsr(size_t num_nodes, size_t num_edges,
                           const LabelId* labels,
                           const EdgeIndex* out_offsets,
                           const AdjEntry* out_entries,
                           const EdgeIndex* in_offsets,
                           const AdjEntry* in_entries,
                           std::shared_ptr<const void> anchor) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.num_edges_ = num_edges;
  g.labels_.assign(labels, labels + num_nodes);
  g.out_slot_.assign(num_nodes, -1);
  g.in_slot_.assign(num_nodes, -1);
  g.csr_nodes_ = num_nodes;
  g.out_offsets_ = out_offsets;
  g.out_entries_ = out_entries;
  g.in_offsets_ = in_offsets;
  g.in_entries_ = in_entries;
  g.csr_anchor_ = std::move(anchor);
  g.snapshot_backed_ = true;
  return g;
}

bool Graph::CheckConsistency() const {
  size_t out_count = 0;
  size_t in_count = 0;
  if (csr_nodes_ > num_nodes_) return false;
  if (csr_nodes_ > 0 && (out_offsets_[0] != 0 || in_offsets_[0] != 0)) {
    return false;
  }
  for (NodeId v = 0; v < csr_nodes_; ++v) {
    if (out_offsets_[v] > out_offsets_[v + 1] ||
        in_offsets_[v] > in_offsets_[v + 1]) {
      return false;
    }
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    AdjSpan out = OutEdges(v);
    AdjSpan in = InEdges(v);
    if (!std::is_sorted(out.begin(), out.end())) return false;
    if (!std::is_sorted(in.begin(), in.end())) return false;
    if (std::adjacent_find(out.begin(), out.end()) != out.end()) return false;
    if (std::adjacent_find(in.begin(), in.end()) != in.end()) return false;
    out_count += out.size();
    in_count += in.size();
    for (const AdjEntry& e : out) {
      if (!IsValidNode(e.node)) return false;
      if (!SpanContains(InEdges(e.node), {v, e.label})) return false;
    }
    for (const AdjEntry& e : in) {
      if (!IsValidNode(e.node)) return false;
      if (!SpanContains(OutEdges(e.node), {v, e.label})) return false;
    }
  }
  return out_count == num_edges_ && in_count == num_edges_;
}

Graph GraphBuilder::Build() && {
  const size_t n = labels_.size();
  for (const EdgeTriple& e : edges_) {
    OSQ_CHECK(e.from < n && e.to < n);
  }

  // Out direction: sort by (from, to, label) unless the edges came in that
  // order (Freeze, InducedSubgraph), dedupe, emit CSR.
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    std::sort(edges_.begin(), edges_.end());
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  auto csr = std::make_shared<CsrBlock>();
  csr->out_offsets.assign(n + 1, 0);
  csr->out_entries.reserve(edges_.size());
  for (const EdgeTriple& e : edges_) {
    ++csr->out_offsets[e.from + 1];
    csr->out_entries.push_back({e.to, e.label});
  }
  for (NodeId v = 0; v < n; ++v) {
    csr->out_offsets[v + 1] += csr->out_offsets[v];
  }

  // In direction: counting sort by target preserves the (from, label)
  // order within each target bucket because `edges_` is already sorted.
  csr->in_offsets.assign(n + 1, 0);
  for (const EdgeTriple& e : edges_) {
    ++csr->in_offsets[e.to + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    csr->in_offsets[v + 1] += csr->in_offsets[v];
  }
  csr->in_entries.resize(edges_.size());
  std::vector<EdgeIndex> cursor(csr->in_offsets.begin(),
                                csr->in_offsets.end() - 1);
  for (const EdgeTriple& e : edges_) {
    csr->in_entries[cursor[e.to]++] = {e.from, e.label};
  }

  Graph g;
  g.num_nodes_ = n;
  g.num_edges_ = edges_.size();
  g.labels_ = std::move(labels_);
  g.out_slot_.assign(n, -1);
  g.in_slot_.assign(n, -1);
  g.csr_nodes_ = n;
  g.out_offsets_ = csr->out_offsets.data();
  g.out_entries_ = csr->out_entries.data();
  g.in_offsets_ = csr->in_offsets.data();
  g.in_entries_ = csr->in_entries.data();
  g.csr_anchor_ = std::move(csr);
  edges_.clear();
  return g;
}

}  // namespace osq
