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

}  // namespace

uint32_t CandidateIndex::PairBit(LabelId edge_label, LabelId node_label) {
  // splitmix64-style finalizer over the packed pair; top-quality avalanche
  // is overkill, but it is cheap and keeps the 64 buckets well spread for
  // the small dense label ids the dictionary hands out.
  uint64_t x =
      (static_cast<uint64_t>(edge_label) << 32) | static_cast<uint64_t>(node_label);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x & 63);
}

SignatureRequirement BuildSignatureRequirement(
    const Graph& query, NodeId u,
    const std::vector<std::unordered_map<LabelId, double>>& label_sims) {
  SignatureRequirement req;
  for (const AdjEntry& e : query.OutEdges(u)) {
    uint64_t mask = 0;
    // OR is commutative, so the unordered iteration cannot make the mask
    // nondeterministic.
    for (const auto& [label, unused_sim] : label_sims[e.node]) {
      mask |= uint64_t{1} << CandidateIndex::PairBit(e.label, label);
    }
    req.out_masks.push_back({e.label, mask});
    req.out_counts.push_back({e.label, 1});
  }
  for (const AdjEntry& e : query.InEdges(u)) {
    uint64_t mask = 0;
    for (const auto& [label, unused_sim] : label_sims[e.node]) {
      mask |= uint64_t{1} << CandidateIndex::PairBit(e.label, label);
    }
    req.in_masks.push_back({e.label, mask});
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
    sig.out_bits |= uint64_t{1} << PairBit(e.label, g.NodeLabel(e.node));
  }
  for (const AdjEntry& e : g.InEdges(v)) {
    sig.in_bits |= uint64_t{1} << PairBit(e.label, g.NodeLabel(e.node));
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
