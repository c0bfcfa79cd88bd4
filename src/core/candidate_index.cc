#include "core/candidate_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace osq {

namespace {

// Collapses an unsorted (label, 1) run list into sorted per-label counts.
void SortAndCombine(LabelCounts* counts) {
  std::sort(counts->begin(), counts->end());
  size_t out = 0;
  for (size_t i = 0; i < counts->size();) {
    size_t j = i;
    uint32_t total = 0;
    while (j < counts->size() && (*counts)[j].first == (*counts)[i].first) {
      total += (*counts)[j].second;
      ++j;
    }
    (*counts)[out++] = {(*counts)[i].first, total};
    i = j;
  }
  counts->resize(out);
}

// The masks of query edge (label `edge_label`) towards the node whose
// candidate-label table is `sims`.
EdgeMasks MasksOfEdge(LabelId edge_label,
                      const std::unordered_map<LabelId, double>& sims) {
  EdgeMasks e;
  for (const auto& [label, unused_sim] : sims) {
    e.masks.push_back(PairMask(edge_label, label));
  }
  std::sort(e.masks.begin(), e.masks.end());
  e.masks.erase(std::unique(e.masks.begin(), e.masks.end()), e.masks.end());
  for (uint64_t mask : e.masks) e.any |= mask;
  return e;
}

}  // namespace

SignatureRequirement BuildSignatureRequirement(
    const Graph& query, NodeId u,
    const std::vector<std::unordered_map<LabelId, double>>& label_sims) {
  SignatureRequirement req;
  for (const AdjEntry& e : query.OutEdges(u)) {
    req.out_masks.push_back(MasksOfEdge(e.label, label_sims[e.node]));
    req.out_counts.push_back({e.label, 1});
  }
  for (const AdjEntry& e : query.InEdges(u)) {
    req.in_masks.push_back(MasksOfEdge(e.label, label_sims[e.node]));
    req.in_counts.push_back({e.label, 1});
  }
  SortAndCombine(&req.out_counts);
  SortAndCombine(&req.in_counts);
  return req;
}

NodeSignature CandidateIndex::ComputeNodeSignature(const Graph& g,
                                                   NodeId v) {
  NodeSignature sig;
  for (const AdjEntry& e : g.OutEdges(v)) {
    sig.out_bits |= PairMask(e.label, g.NodeLabel(e.node));
  }
  for (const AdjEntry& e : g.InEdges(v)) {
    sig.in_bits |= PairMask(e.label, g.NodeLabel(e.node));
  }
  return sig;
}

CandidateIndex CandidateIndex::Build(const Graph& g, size_t num_threads) {
  CandidateIndex index;
  index.node_sigs_.resize(g.num_nodes());
  ParallelFor(num_threads, g.num_nodes(), [&](size_t v) {
    index.node_sigs_[v] = ComputeNodeSignature(g, static_cast<NodeId>(v));
  });
  for (NodeId v = 0; v < g.num_nodes(); ++v) index.AddToLabelList(g, v);
  return index;
}

CandidateIndex::SnapshotParts CandidateIndex::ExportSnapshotParts() const {
  SnapshotParts parts;
  parts.node_sigs = node_sigs_;
  return parts;
}

CandidateIndex CandidateIndex::FromSnapshotParts(const Graph& g,
                                                 SnapshotParts parts) {
  CandidateIndex index;
  index.node_sigs_ = std::move(parts.node_sigs);
  for (NodeId v = 0; v < g.num_nodes(); ++v) index.AddToLabelList(g, v);
  return index;
}

void CandidateIndex::AddToLabelList(const Graph& g, NodeId v) {
  LabelId label = g.NodeLabel(v);
  if (label >= nodes_by_label_.size()) nodes_by_label_.resize(label + 1);
  nodes_by_label_[label].push_back(v);
}

const std::vector<NodeId>& CandidateIndex::NodesWithLabel(
    LabelId label) const {
  static const std::vector<NodeId>* const kEmpty = new std::vector<NodeId>();
  return label < nodes_by_label_.size() ? nodes_by_label_[label] : *kEmpty;
}

void CandidateIndex::OnEdgeChanged(const Graph& g, NodeId from, NodeId to) {
  OSQ_CHECK(from < node_sigs_.size() && to < node_sigs_.size());
  node_sigs_[from] = ComputeNodeSignature(g, from);
  node_sigs_[to] = ComputeNodeSignature(g, to);
}

void CandidateIndex::OnNodeAdded(const Graph& g, NodeId v) {
  OSQ_CHECK(v == node_sigs_.size());  // ids are dense and registered in order
  node_sigs_.push_back(ComputeNodeSignature(g, v));
  AddToLabelList(g, v);  // v is the largest id, so the list stays sorted
}

}  // namespace osq
