#include "core/candidate_index.h"

#include <algorithm>

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

// acc := per-label max(acc, add); both sorted by label.
void MaxMerge(LabelCounts* acc, const LabelCounts& add) {
  LabelCounts merged;
  merged.reserve(acc->size() + add.size());
  size_t i = 0;
  size_t j = 0;
  while (i < acc->size() || j < add.size()) {
    if (j == add.size() ||
        (i < acc->size() && (*acc)[i].first < add[j].first)) {
      merged.push_back((*acc)[i++]);
    } else if (i == acc->size() || add[j].first < (*acc)[i].first) {
      merged.push_back(add[j++]);
    } else {
      merged.push_back(
          {(*acc)[i].first, std::max((*acc)[i].second, add[j].second)});
      ++i;
      ++j;
    }
  }
  *acc = std::move(merged);
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
                                                   NodeId v) const {
  NodeSignature sig;
  for (const AdjEntry& e : g.OutEdges(v)) {
    sig.out_bits |= uint64_t{1} << PairBit(e.label, g.NodeLabel(e.node));
    sig.out_counts.push_back({e.label, 1});
  }
  for (const AdjEntry& e : g.InEdges(v)) {
    sig.in_bits |= uint64_t{1} << PairBit(e.label, g.NodeLabel(e.node));
    sig.in_counts.push_back({e.label, 1});
  }
  SortAndCombine(&sig.out_counts);
  SortAndCombine(&sig.in_counts);
  return sig;
}

BlockSignature CandidateIndex::ComputeBlockSignature(const Graph& g,
                                                     const ConceptGraph& cg,
                                                     BlockId b) const {
  BlockSignature bs;
  for (NodeId v : cg.Members(b)) {
    const NodeSignature& ns = node_sigs_[v];
    bs.out_bits |= ns.out_bits;
    bs.in_bits |= ns.in_bits;
    bs.member_labels.push_back(g.NodeLabel(v));
    MaxMerge(&bs.max_out_counts, ns.out_counts);
    MaxMerge(&bs.max_in_counts, ns.in_counts);
  }
  std::sort(bs.member_labels.begin(), bs.member_labels.end());
  bs.member_labels.erase(
      std::unique(bs.member_labels.begin(), bs.member_labels.end()),
      bs.member_labels.end());
  return bs;
}

CandidateIndex CandidateIndex::Build(const Graph& g,
                                     const std::vector<ConceptGraph>& graphs,
                                     size_t num_threads) {
  CandidateIndex index;
  index.node_sigs_.resize(g.num_nodes());
  ParallelFor(num_threads, g.num_nodes(), [&](size_t v) {
    index.node_sigs_[v] =
        index.ComputeNodeSignature(g, static_cast<NodeId>(v));
  });
  for (NodeId v = 0; v < g.num_nodes(); ++v) index.AddToLabelList(g, v);
  index.per_graph_.resize(graphs.size());
  ParallelFor(num_threads, graphs.size(), [&](size_t i) {
    const ConceptGraph& cg = graphs[i];
    PerGraph& pg = index.per_graph_[i];
    pg.blocks.assign(cg.block_capacity(), BlockSignature{});
    pg.bits.assign(cg.block_capacity(), {0, 0});
    // Ascending block ids keep every inverted list sorted by construction.
    for (BlockId b : cg.AliveBlocks()) {
      pg.blocks[b] = index.ComputeBlockSignature(g, cg, b);
      pg.bits[b] = {pg.blocks[b].out_bits, pg.blocks[b].in_bits};
      for (LabelId label : pg.blocks[b].member_labels) {
        pg.blocks_by_member_label[label].push_back(b);
      }
    }
  });
  return index;
}

CandidateIndex::SnapshotParts CandidateIndex::ExportSnapshotParts() const {
  SnapshotParts parts;
  parts.node_sigs = node_sigs_;
  parts.per_graph_blocks.reserve(per_graph_.size());
  for (const PerGraph& pg : per_graph_) {
    parts.per_graph_blocks.push_back(pg.blocks);
  }
  return parts;
}

CandidateIndex CandidateIndex::FromSnapshotParts(const Graph& g,
                                                 SnapshotParts parts) {
  CandidateIndex index;
  index.node_sigs_ = std::move(parts.node_sigs);
  for (NodeId v = 0; v < g.num_nodes(); ++v) index.AddToLabelList(g, v);
  index.per_graph_.resize(parts.per_graph_blocks.size());
  for (size_t i = 0; i < parts.per_graph_blocks.size(); ++i) {
    PerGraph& pg = index.per_graph_[i];
    pg.blocks = std::move(parts.per_graph_blocks[i]);
    pg.bits.reserve(pg.blocks.size());
    // Ascending block ids keep every inverted list sorted, matching Build.
    for (BlockId b = 0; b < pg.blocks.size(); ++b) {
      const BlockSignature& bs = pg.blocks[b];
      pg.bits.emplace_back(bs.out_bits, bs.in_bits);
      for (LabelId label : bs.member_labels) {
        pg.blocks_by_member_label[label].push_back(b);
      }
    }
  }
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

const std::vector<BlockId>& CandidateIndex::BlocksWithMemberLabel(
    size_t graph_index, LabelId label) const {
  static const std::vector<BlockId>* const kEmpty =
      new std::vector<BlockId>();
  const PerGraph& pg = per_graph_[graph_index];
  auto it = pg.blocks_by_member_label.find(label);
  if (it == pg.blocks_by_member_label.end()) {
    return *kEmpty;
  }
  return it->second;
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

void CandidateIndex::RepairBlocks(size_t graph_index, const Graph& g,
                                  const ConceptGraph& cg,
                                  const std::vector<BlockId>& dirty) {
  PerGraph& pg = per_graph_[graph_index];
  if (pg.blocks.size() < cg.block_capacity()) {
    pg.blocks.resize(cg.block_capacity());
    pg.bits.resize(cg.block_capacity(), {0, 0});
  }
  for (BlockId b : dirty) {
    OSQ_CHECK(b < pg.blocks.size());
    // Unhook the stale signature from the inverted index, erasing lists
    // that empty out so the structure stays identical to a fresh build.
    for (LabelId label : pg.blocks[b].member_labels) {
      auto it = pg.blocks_by_member_label.find(label);
      OSQ_CHECK(it != pg.blocks_by_member_label.end());
      auto pos = std::lower_bound(it->second.begin(), it->second.end(), b);
      OSQ_CHECK(pos != it->second.end() && *pos == b);
      it->second.erase(pos);
      if (it->second.empty()) {
        pg.blocks_by_member_label.erase(it);
      }
    }
    if (!cg.IsAlive(b)) {
      pg.blocks[b] = BlockSignature{};
      pg.bits[b] = {0, 0};
      continue;
    }
    pg.blocks[b] = ComputeBlockSignature(g, cg, b);
    pg.bits[b] = {pg.blocks[b].out_bits, pg.blocks[b].in_bits};
    for (LabelId label : pg.blocks[b].member_labels) {
      std::vector<BlockId>& list = pg.blocks_by_member_label[label];
      list.insert(std::lower_bound(list.begin(), list.end(), b), b);
    }
  }
}

}  // namespace osq
