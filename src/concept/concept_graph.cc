#include "concept/concept_graph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "common/check.h"

namespace osq {

namespace {

// Repair locality bounds (§VI): during incremental maintenance, a
// same-label block group is re-coarsened (merged and re-split to the local
// optimum) only when it has at most kMaxCoarsenGroup blocks; larger groups
// fall back to pairwise mcondition merging, which scans a candidate's
// same-label peers only when the group has at most kMaxMergePeers blocks.
// Keeps AFF — and repair cost — proportional to the change instead of the
// label population.
constexpr size_t kMaxCoarsenGroup = 8;
constexpr size_t kMaxMergePeers = 64;

// Removes one occurrence of `value` from `v` (order not preserved).
template <typename T>
void SwapRemove(std::vector<T>* v, const T& value) {
  auto it = std::find(v->begin(), v->end(), value);
  OSQ_DCHECK(it != v->end());
  *it = v->back();
  v->pop_back();
}

}  // namespace

uint64_t ConceptGraph::EdgeKey(BlockId block, LabelId edge_label) const {
  uint64_t label_part =
      options_.edge_label_aware ? static_cast<uint64_t>(edge_label) : 0u;
  return (static_cast<uint64_t>(block) << 32) | label_part;
}

BlockId ConceptGraph::NewBlock(LabelId concept_label) {
  BlockId b;
  if (!free_blocks_.empty()) {
    b = free_blocks_.back();
    free_blocks_.pop_back();
    members_[b].clear();
    block_label_[b] = concept_label;
    alive_[b] = true;
  } else {
    b = static_cast<BlockId>(members_.size());
    members_.emplace_back();
    block_label_.push_back(concept_label);
    alive_.push_back(true);
  }
  ++num_alive_;
  blocks_by_label_[concept_label].push_back(b);
  return b;
}

void ConceptGraph::ReleaseBlock(BlockId b) {
  OSQ_DCHECK(IsAlive(b));
  OSQ_DCHECK(members_[b].empty());
  alive_[b] = false;
  --num_alive_;
  SwapRemove(&blocks_by_label_[block_label_[b]], b);
  free_blocks_.push_back(b);
}

void ConceptGraph::InitCore(const Graph& g, const OntologyGraph& o,
                            const SimilarityFunction& sim,
                            const ConceptGraphOptions& options,
                            std::vector<LabelId> concept_labels) {
  g_ = &g;
  o_ = &o;
  sim_ = sim;
  options_ = options;
  std::sort(concept_labels.begin(), concept_labels.end());
  concept_labels.erase(
      std::unique(concept_labels.begin(), concept_labels.end()),
      concept_labels.end());
  concept_labels_ = std::move(concept_labels);

  // Assign every ontology label within Radius(beta) of a concept label to
  // its nearest concept via one multi-source BFS (ties: BFS arrival order,
  // which is deterministic given the sorted concept list).
  uint32_t radius = sim.Radius(options.beta);
  std::unordered_map<LabelId, uint32_t> dist;
  std::deque<LabelId> queue;
  for (LabelId c : concept_labels_) {
    concept_of_label_[c] = c;
    dist[c] = 0;
    queue.push_back(c);
  }
  while (!queue.empty()) {
    LabelId l = queue.front();
    queue.pop_front();
    uint32_t d = dist[l];
    if (d >= radius) continue;
    for (LabelId m : o.Neighbors(l)) {
      if (dist.count(m) > 0) continue;
      dist[m] = d + 1;
      concept_of_label_[m] = concept_of_label_[l];
      queue.push_back(m);
    }
  }
}

ConceptGraph ConceptGraph::Build(const Graph& g, const OntologyGraph& o,
                                 const SimilarityFunction& sim,
                                 const ConceptGraphOptions& options,
                                 std::vector<LabelId> concept_labels,
                                 ConceptGraphStats* stats) {
  ConceptGraph cg;
  cg.InitCore(g, o, sim, options, std::move(concept_labels));

  // Initial partition: one block per concept label in use.  Data labels the
  // concept_lbl set does not cover become their own concept label (robustness
  // extension; the paper's selection strategy guarantees full coverage).
  cg.block_of_.assign(g.num_nodes(), kInvalidBlock);
  std::unordered_map<LabelId, BlockId> block_of_concept;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    LabelId label = g.NodeLabel(v);
    auto it = cg.concept_of_label_.find(label);
    LabelId concept_lbl;
    if (it != cg.concept_of_label_.end()) {
      concept_lbl = it->second;
    } else {
      concept_lbl = label;
      cg.concept_of_label_[label] = label;
      cg.concept_labels_.insert(
          std::lower_bound(cg.concept_labels_.begin(),
                           cg.concept_labels_.end(), label),
          label);
    }
    auto bit = block_of_concept.find(concept_lbl);
    BlockId b;
    if (bit == block_of_concept.end()) {
      b = cg.NewBlock(concept_lbl);
      block_of_concept.emplace(concept_lbl, b);
    } else {
      b = bit->second;
    }
    cg.block_of_[v] = b;
    cg.members_[b].push_back(v);
  }

  ConceptGraphStats local_stats;
  local_stats.initial_blocks = cg.num_alive_;

  // Refine to the coarsest stable partition.
  std::vector<BlockId> worklist = cg.AliveBlocks();
  std::vector<BlockId> affected;
  cg.RefineFrom(std::move(worklist), &affected, &local_stats);

  local_stats.final_blocks = cg.num_alive_;
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return cg;
}

BlockId ConceptGraph::BlockOf(NodeId v) const {
  OSQ_DCHECK(v < block_of_.size());
  return block_of_[v];
}

const std::vector<NodeId>& ConceptGraph::Members(BlockId b) const {
  OSQ_DCHECK(IsAlive(b));
  return members_[b];
}

LabelId ConceptGraph::BlockLabel(BlockId b) const {
  OSQ_DCHECK(IsAlive(b));
  return block_label_[b];
}

const std::vector<BlockId>& ConceptGraph::BlocksWithLabel(
    LabelId label) const {
  static const std::vector<BlockId>* const kEmpty =
      new std::vector<BlockId>();
  auto it = blocks_by_label_.find(label);
  if (it == blocks_by_label_.end()) {
    return *kEmpty;
  }
  return it->second;
}

std::vector<BlockId> ConceptGraph::AliveBlocks() const {
  std::vector<BlockId> blocks;
  blocks.reserve(num_alive_);
  for (BlockId b = 0; b < alive_.size(); ++b) {
    if (alive_[b]) blocks.push_back(b);
  }
  return blocks;
}

std::vector<BlockId> ConceptGraph::Successors(BlockId b) const {
  OSQ_DCHECK(IsAlive(b));
  OSQ_DCHECK(!members_[b].empty());
  NodeId rep = members_[b][0];
  std::vector<BlockId> succ;
  for (const AdjEntry& e : g_->OutEdges(rep)) {
    succ.push_back(block_of_[e.node]);
  }
  std::sort(succ.begin(), succ.end());
  succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  return succ;
}

std::vector<BlockId> ConceptGraph::Predecessors(BlockId b) const {
  OSQ_DCHECK(IsAlive(b));
  OSQ_DCHECK(!members_[b].empty());
  NodeId rep = members_[b][0];
  std::vector<BlockId> pred;
  for (const AdjEntry& e : g_->InEdges(rep)) {
    pred.push_back(block_of_[e.node]);
  }
  std::sort(pred.begin(), pred.end());
  pred.erase(std::unique(pred.begin(), pred.end()), pred.end());
  return pred;
}

size_t ConceptGraph::SizeNodesPlusEdges() const {
  size_t total = num_alive_;
  for (BlockId b = 0; b < alive_.size(); ++b) {
    if (alive_[b]) total += Successors(b).size();
  }
  return total;
}

void ConceptGraph::NodeSignature(NodeId v, Signature* out_sig,
                                 Signature* in_sig) const {
  out_sig->clear();
  in_sig->clear();
  for (const AdjEntry& e : g_->OutEdges(v)) {
    out_sig->push_back(EdgeKey(block_of_[e.node], e.label));
  }
  for (const AdjEntry& e : g_->InEdges(v)) {
    in_sig->push_back(EdgeKey(block_of_[e.node], e.label));
  }
  std::sort(out_sig->begin(), out_sig->end());
  out_sig->erase(std::unique(out_sig->begin(), out_sig->end()),
                 out_sig->end());
  std::sort(in_sig->begin(), in_sig->end());
  in_sig->erase(std::unique(in_sig->begin(), in_sig->end()), in_sig->end());
}

bool ConceptGraph::SplitBlock(BlockId b, std::vector<BlockId>* created) {
  if (members_[b].size() <= 1) return false;
  // Group members by their full neighborhood signature.
  std::map<std::pair<Signature, Signature>, std::vector<NodeId>> groups;
  Signature out_sig;
  Signature in_sig;
  for (NodeId v : members_[b]) {
    NodeSignature(v, &out_sig, &in_sig);
    groups[{out_sig, in_sig}].push_back(v);
  }
  if (groups.size() <= 1) return false;

  // The largest group keeps the block id to minimize downstream churn.
  auto largest = groups.begin();
  for (auto it = groups.begin(); it != groups.end(); ++it) {
    if (it->second.size() > largest->second.size()) largest = it;
  }
  members_[b] = std::move(largest->second);
  LabelId label = block_label_[b];
  for (auto it = groups.begin(); it != groups.end(); ++it) {
    if (it == largest) continue;
    BlockId nb = NewBlock(label);
    members_[nb] = std::move(it->second);
    for (NodeId v : members_[nb]) {
      block_of_[v] = nb;
    }
    created->push_back(nb);
  }
  return true;
}

std::vector<BlockId> ConceptGraph::AllNeighborBlocks(BlockId b) const {
  std::vector<BlockId> result;
  for (NodeId v : members_[b]) {
    for (const AdjEntry& e : g_->OutEdges(v)) result.push_back(block_of_[e.node]);
    for (const AdjEntry& e : g_->InEdges(v)) result.push_back(block_of_[e.node]);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

void ConceptGraph::RefineFrom(std::vector<BlockId> worklist,
                              std::vector<BlockId>* affected,
                              ConceptGraphStats* stats) {
  std::deque<BlockId> queue(worklist.begin(), worklist.end());
  std::vector<bool> queued(members_.size(), false);
  for (BlockId b : worklist) {
    if (b < queued.size()) queued[b] = true;
  }
  auto push = [&](BlockId b) {
    if (b >= queued.size()) queued.resize(members_.size(), false);
    if (!queued[b]) {
      queued[b] = true;
      queue.push_back(b);
    }
  };
  std::vector<BlockId> created;
  while (!queue.empty()) {
    BlockId b = queue.front();
    queue.pop_front();
    if (b < queued.size()) queued[b] = false;
    if (!IsAlive(b)) continue;
    created.clear();
    if (!SplitBlock(b, &created)) continue;
    if (stats != nullptr) stats->splits += created.size();
    affected->push_back(b);
    // The split changed the block membership seen by every neighbor of the
    // old block (and, via intra-block edges, by b and the new blocks
    // themselves) — re-examine all of them.
    push(b);
    for (BlockId nb : created) {
      affected->push_back(nb);
      push(nb);
    }
    for (BlockId nb : AllNeighborBlocks(b)) push(nb);
    for (BlockId cb : created) {
      for (BlockId nb : AllNeighborBlocks(cb)) push(nb);
    }
  }
  std::sort(affected->begin(), affected->end());
  affected->erase(std::unique(affected->begin(), affected->end()),
                  affected->end());
}

size_t ConceptGraph::MergePass(const std::vector<BlockId>& candidates,
                               ConceptGraphStats* stats) {
  size_t merges = 0;
  std::deque<BlockId> queue(candidates.begin(), candidates.end());
  while (!queue.empty()) {
    BlockId b = queue.front();
    queue.pop_front();
    if (!IsAlive(b)) continue;
    // mcondition: same concept label, same successor-block set, same
    // predecessor-block set.
    const std::vector<BlockId>& peers = BlocksWithLabel(block_label_[b]);
    if (peers.size() > kMaxMergePeers) continue;
    std::vector<BlockId> succ_b = Successors(b);
    std::vector<BlockId> pred_b = Predecessors(b);
    BlockId target = kInvalidBlock;
    for (BlockId p : peers) {
      if (p == b || !IsAlive(p)) continue;
      if (Successors(p) == succ_b && Predecessors(p) == pred_b) {
        target = p;
        break;
      }
    }
    if (target == kInvalidBlock) continue;
    // Merge b into target.
    for (NodeId v : members_[b]) {
      block_of_[v] = target;
      members_[target].push_back(v);
    }
    members_[b].clear();
    ReleaseBlock(b);
    ++merges;
    if (stats != nullptr) ++stats->merges;
    // The merge may unlock merges among the neighbors of the merged block.
    queue.push_back(target);
    for (BlockId nb : AllNeighborBlocks(target)) queue.push_back(nb);
  }
  return merges;
}

size_t ConceptGraph::RepairAroundEdge(NodeId from, NodeId to,
                                      ConceptGraphStats* stats) {
  OSQ_CHECK(from < block_of_.size() && to < block_of_.size());
  // 1. Local re-coarsening (the paper's merge side of SplitMerge): collapse
  //    all same-label blocks around the touched endpoints into one block
  //    per concept label.  Pairwise mcondition merging alone cannot undo
  //    mutually dependent splits (merging {b1,b1'} requires {b2,b2'} merged
  //    first and vice versa); collapsing then re-splitting reaches the
  //    coarsest local fixpoint directly, and is sound because merging never
  //    breaks *other* blocks' signature uniformity while the refinement
  //    below restores it for the collapsed ones.
  std::vector<BlockId> seeds = {block_of_[from], block_of_[to]};
  std::vector<LabelId> labels;
  for (BlockId b : seeds) {
    labels.push_back(block_label_[b]);
    for (BlockId nb : AllNeighborBlocks(b)) {
      labels.push_back(block_label_[nb]);
    }
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  std::vector<BlockId> worklist;
  for (LabelId label : labels) {
    std::vector<BlockId> group = BlocksWithLabel(label);
    if (group.empty()) continue;
    if (group.size() > kMaxCoarsenGroup) continue;  // too costly
    BlockId keep = group[0];
    for (size_t i = 1; i < group.size(); ++i) {
      BlockId victim = group[i];
      for (NodeId v : members_[victim]) {
        block_of_[v] = keep;
        members_[keep].push_back(v);
      }
      members_[victim].clear();
      ReleaseBlock(victim);
      if (stats != nullptr) ++stats->merges;
    }
    worklist.push_back(keep);
  }
  worklist.push_back(block_of_[from]);
  worklist.push_back(block_of_[to]);

  // 2. Split refinement back to a stable partition.
  std::vector<BlockId> affected;
  RefineFrom(worklist, &affected, stats);

  // 3. Residual pairwise merges among the touched blocks.
  std::vector<BlockId> merge_candidates = affected;
  merge_candidates.insert(merge_candidates.end(), worklist.begin(),
                          worklist.end());
  MergePass(merge_candidates, stats);

  // AFF (paper §VI): distinct blocks touched by the repair.
  affected.insert(affected.end(), worklist.begin(), worklist.end());
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected.size();
}

size_t ConceptGraph::RepairAfterEdgeInsertion(NodeId from, NodeId to,
                                              ConceptGraphStats* stats) {
  return RepairAroundEdge(from, to, stats);
}

size_t ConceptGraph::RepairAfterEdgeDeletion(NodeId from, NodeId to,
                                             ConceptGraphStats* stats) {
  // Symmetric to insertion: both repairs re-establish signature uniformity
  // around the endpoints, whatever the direction of the change.
  return RepairAroundEdge(from, to, stats);
}

void ConceptGraph::RegisterNewNode(NodeId v) {
  OSQ_CHECK(g_->IsValidNode(v));
  OSQ_CHECK(v == block_of_.size());  // nodes must be registered in order
  LabelId label = g_->NodeLabel(v);
  auto it = concept_of_label_.find(label);
  LabelId concept_lbl;
  if (it != concept_of_label_.end()) {
    concept_lbl = it->second;
  } else {
    // Look for a covering concept label within Radius(beta); otherwise the
    // label becomes its own concept (same policy as Build).
    concept_lbl = label;
    uint32_t best = kInfiniteDistance;
    for (const LabelDistance& ld :
         o_->BallAround(label, sim_.Radius(options_.beta))) {
      if (ld.distance < best &&
          std::binary_search(concept_labels_.begin(), concept_labels_.end(),
                             ld.label)) {
        best = ld.distance;
        concept_lbl = ld.label;
      }
    }
    if (concept_lbl == label) {
      concept_labels_.insert(
          std::lower_bound(concept_labels_.begin(), concept_labels_.end(),
                           label),
          label);
    }
    concept_of_label_[label] = concept_lbl;
  }
  BlockId b = NewBlock(concept_lbl);
  block_of_.push_back(b);
  members_[b].push_back(v);
  // A fresh node has no edges; merge it with an existing edge-free block of
  // the same concept label if one exists.
  MergePass({b}, nullptr);
}

bool ConceptGraph::Validate() const {
  // 1. Partition well-formedness.
  if (block_of_.size() != g_->num_nodes()) return false;
  std::vector<size_t> seen(members_.size(), 0);
  for (NodeId v = 0; v < block_of_.size(); ++v) {
    BlockId b = block_of_[v];
    if (!IsAlive(b)) return false;
    ++seen[b];
  }
  size_t alive_count = 0;
  for (BlockId b = 0; b < members_.size(); ++b) {
    if (!alive_[b]) {
      if (!members_[b].empty()) return false;  // dead blocks hold no members
      continue;
    }
    ++alive_count;
    if (members_[b].empty()) return false;
    if (members_[b].size() != seen[b]) return false;
    for (NodeId v : members_[b]) {
      if (block_of_[v] != b) return false;
      // 2. Label coverage: member similar to the concept label within beta.
      if (sim_.Similarity(*o_, g_->NodeLabel(v), block_label_[b],
                          options_.beta) <= 0.0) {
        return false;
      }
    }
    // 3. Signature uniformity across members.
    Signature ref_out;
    Signature ref_in;
    NodeSignature(members_[b][0], &ref_out, &ref_in);
    Signature out_sig;
    Signature in_sig;
    for (size_t i = 1; i < members_[b].size(); ++i) {
      NodeSignature(members_[b][i], &out_sig, &in_sig);
      if (out_sig != ref_out || in_sig != ref_in) return false;
    }
  }
  if (alive_count != num_alive_) return false;
  // 4. blocks_by_label_ consistency.
  size_t by_label_total = 0;
  for (const auto& [label, blocks] : blocks_by_label_) {
    for (BlockId b : blocks) {
      if (!IsAlive(b) || block_label_[b] != label) return false;
      ++by_label_total;
    }
  }
  return by_label_total == num_alive_;
}

}  // namespace osq
