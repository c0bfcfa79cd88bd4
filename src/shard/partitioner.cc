#include "shard/partitioner.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "graph/graph_algorithms.h"

namespace osq {

namespace {

// splitmix64 finalizer: deterministic, uniform, cheap.  The shard of a
// node must be a pure function of its id so every process partitions
// identically (no RNG state, no placement feedback).
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t OwnerOfId(NodeId global, ShardPolicy policy, size_t num_shards,
                 size_t initial_nodes, size_t range_block) {
  if (num_shards <= 1) return 0;
  if (policy == ShardPolicy::kRange && global < initial_nodes) {
    size_t owner = global / range_block;
    return owner < num_shards ? owner : num_shards - 1;
  }
  return static_cast<size_t>(MixId(global) % num_shards);
}

size_t RangeBlock(size_t initial_nodes, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  size_t block = (initial_nodes + num_shards - 1) / num_shards;
  return block == 0 ? 1 : block;
}

// Undirected BFS relaxation from `sources` (already at their final
// depths), bounded by `radius`.  Improves depth[] in place and reports
// every node whose depth dropped from kUnreachable (a new member) through
// `on_new_member`, in BFS discovery order.
template <typename Fn>
void RelaxDepths(const Graph& g, uint32_t radius,
                 std::vector<uint32_t>* depth, std::deque<NodeId> frontier,
                 Fn&& on_new_member) {
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop_front();
    uint32_t next = (*depth)[v] + 1;
    if (next > radius) continue;
    auto visit = [&](NodeId n) {
      if (next < (*depth)[n]) {
        bool was_member = (*depth)[n] != kUnreachable;
        (*depth)[n] = next;
        if (!was_member) on_new_member(n);
        frontier.push_back(n);
      }
    };
    for (const AdjEntry& e : g.OutEdges(v)) visit(e.node);
    for (const AdjEntry& e : g.InEdges(v)) visit(e.node);
  }
}

}  // namespace

GraphPartitioner::GraphPartitioner(const Graph& g, const ShardOptions& options)
    : graph_(g),
      options_(options),
      initial_nodes_(g.num_nodes()),
      range_block_(RangeBlock(g.num_nodes(), options.num_shards)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
}

size_t GraphPartitioner::OwnerOf(NodeId global) const {
  return OwnerOfId(global, options_.policy, options_.num_shards,
                   initial_nodes_, range_block_);
}

ShardPlan GraphPartitioner::Partition() const {
  ShardPlan plan;
  plan.options = options_;
  plan.initial_nodes = initial_nodes_;
  plan.shards.resize(options_.num_shards);

  for (size_t s = 0; s < options_.num_shards; ++s) {
    ShardSpec& spec = plan.shards[s];
    std::vector<uint32_t> depth(graph_.num_nodes(), kUnreachable);
    std::deque<NodeId> frontier;
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      if (OwnerOf(v) == s) {
        depth[v] = 0;
        frontier.push_back(v);
      }
    }
    RelaxDepths(graph_, options_.halo_radius, &depth, std::move(frontier),
                [](NodeId) {});
    std::vector<NodeId> members;
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      if (depth[v] == kUnreachable) continue;
      members.push_back(v);
      spec.owned.push_back(depth[v] == 0 ? 1 : 0);
    }
    // members is ascending by construction, so the induced subgraph's
    // local ids preserve global order (N=1 degenerates to the identity).
    spec.sub = InducedSubgraph(graph_, members);
  }
  return plan;
}

PivotChoice ChoosePivot(const Graph& query) {
  PivotChoice best;
  best.eccentricity = kUnreachable;
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    std::vector<uint32_t> dist = UndirectedBfsDistances(query, u);
    uint32_t ecc = 0;
    for (uint32_t d : dist) ecc = std::max(ecc, d);
    if (ecc < best.eccentricity) {
      best.pivot = u;
      best.eccentricity = ecc;
    }
  }
  return best;
}

UpdateRouter::UpdateRouter(const Graph& g, const ShardPlan& plan)
    : reference_(g),
      options_(plan.options),
      initial_nodes_(plan.initial_nodes),
      range_block_(RangeBlock(plan.initial_nodes, plan.options.num_shards)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  depth_.assign(options_.num_shards,
                std::vector<uint32_t>(g.num_nodes(), kUnreachable));
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    const ShardSpec& spec = plan.shards[s];
    // Rebuild depths with one owned-set BFS per shard (the plan only
    // records membership, not distances).
    std::deque<NodeId> frontier;
    const std::vector<NodeId>& members = spec.sub.to_original;
    for (size_t i = 0; i < members.size(); ++i) {
      if (spec.owned[i] != 0) {
        depth_[s][members[i]] = 0;
        frontier.push_back(members[i]);
      }
    }
    RelaxDepths(reference_, options_.halo_radius, &depth_[s],
                std::move(frontier), [](NodeId) {});
  }
}

bool UpdateRouter::IsMember(size_t shard, NodeId global) const {
  return shard < depth_.size() && global < depth_[shard].size() &&
         depth_[shard][global] != kUnreachable;
}

void UpdateRouter::GrowMembership(size_t shard, NodeId from, NodeId to,
                                  ShardDelta* delta) {
  std::vector<uint32_t>& depth = depth_[shard];
  std::deque<NodeId> frontier;
  // The new edge can only shorten distances through its endpoints; seed
  // the relaxation with whichever endpoint improves.
  auto seed = [&](NodeId a, NodeId b) {
    if (depth[a] == kUnreachable) return;
    uint32_t next = depth[a] + 1;
    if (next <= options_.halo_radius && next < depth[b]) {
      bool was_member = depth[b] != kUnreachable;
      depth[b] = next;
      if (!was_member) delta->node_adds.push_back(ShardDelta::NodeAdd{
          b, reference_.NodeLabel(b), OwnerOfId(b, options_.policy,
                                                options_.num_shards,
                                                initial_nodes_,
                                                range_block_) == shard});
      frontier.push_back(b);
    }
  };
  seed(from, to);
  seed(to, from);
  RelaxDepths(reference_, options_.halo_radius, &depth, std::move(frontier),
              [&](NodeId n) {
                delta->node_adds.push_back(ShardDelta::NodeAdd{
                    n, reference_.NodeLabel(n),
                    OwnerOfId(n, options_.policy, options_.num_shards,
                              initial_nodes_, range_block_) == shard});
              });
  if (delta->node_adds.empty()) return;
  // Every new member must arrive with all of its induced edges so the
  // shard graph stays exactly induced(reference, members).  Membership is
  // already final in depth[], so edges between two new members are
  // emitted once: when the *second* endpoint (in node_adds order) is
  // processed, guarded by the emitted set below (sized by the delta, not
  // by |V|; only probed, never iterated).
  std::unordered_set<NodeId> added;
  added.reserve(delta->node_adds.size());
  for (const ShardDelta::NodeAdd& add : delta->node_adds) {
    NodeId n = add.global;
    for (const AdjEntry& e : reference_.OutEdges(n)) {
      if (depth[e.node] == kUnreachable) continue;
      if (added.count(e.node) != 0) continue;  // counterpart emitted it
      delta->updates.push_back(GraphUpdate::Insert(n, e.node, e.label));
    }
    for (const AdjEntry& e : reference_.InEdges(n)) {
      if (depth[e.node] == kUnreachable) continue;
      if (added.count(e.node) != 0) continue;
      delta->updates.push_back(GraphUpdate::Insert(e.node, n, e.label));
    }
    added.insert(n);
  }
}

std::vector<ShardDelta> UpdateRouter::Route(const GraphUpdate& update,
                                            bool* applied) {
  std::vector<ShardDelta> deltas(options_.num_shards);
  NodeId a = update.edge.from;
  NodeId b = update.edge.to;
  bool changed;
  if (update.kind == GraphUpdate::Kind::kInsertEdge) {
    changed = reference_.AddEdge(a, b, update.edge.label);
  } else {
    changed = reference_.RemoveEdge(a, b, update.edge.label);
  }
  if (applied != nullptr) *applied = changed;
  if (!changed) return deltas;  // duplicate insert / missing delete: no-op

  for (size_t s = 0; s < options_.num_shards; ++s) {
    ShardDelta& delta = deltas[s];
    if (update.kind == GraphUpdate::Kind::kInsertEdge) {
      GrowMembership(s, a, b, &delta);
      // The new members arrived with all their induced edges (which
      // include this one when it touches a new member); otherwise route
      // the edge iff both endpoints are members.
      bool covered = false;
      for (const ShardDelta::NodeAdd& add : delta.node_adds) {
        if (add.global == a || add.global == b) covered = true;
      }
      if (!covered && depth_[s][a] != kUnreachable &&
          depth_[s][b] != kUnreachable) {
        delta.updates.push_back(update);
      }
    } else {
      // Deletion: membership never shrinks (stale-superset halos are
      // sound); drop the edge wherever both endpoints live.
      if (depth_[s][a] != kUnreachable && depth_[s][b] != kUnreachable) {
        delta.updates.push_back(update);
      }
    }
  }
  return deltas;
}

std::vector<ShardDelta> UpdateRouter::RouteAddNode(LabelId label,
                                                   NodeId* global) {
  std::vector<ShardDelta> deltas(options_.num_shards);
  NodeId id = reference_.AddNode(label);
  if (global != nullptr) *global = id;
  size_t owner = OwnerOfId(id, options_.policy, options_.num_shards,
                           initial_nodes_, range_block_);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    depth_[s].push_back(s == owner ? 0 : kUnreachable);
  }
  deltas[owner].node_adds.push_back(ShardDelta::NodeAdd{id, label, true});
  return deltas;
}

}  // namespace osq
