// Graph partitioning for the sharded scatter-gather serving tier
// (DESIGN.md §13).
//
// GraphPartitioner splits the data graph into N shards.  Every node has
// exactly one *owner* shard, chosen by a deterministic policy (hash or
// contiguous id ranges); each shard additionally replicates a *halo* — all
// nodes within `halo_radius` undirected hops of its owned set — and
// materializes the subgraph induced by owned ∪ halo.  Because a match is
// contained in the undirected ball of radius ecc(pivot) around the node
// matched to the query's pivot (every query edge is realized by a data
// edge), a shard can verify every match whose pivot image it owns without
// any cross-shard chatter, provided ecc(pivot) <= halo_radius.  The
// coordinator deduplicates by restricting the pivot's candidate list to
// owned nodes, so each global match is produced by exactly one shard.
//
// UpdateRouter keeps the invariants alive under the edge-update write path:
// it owns a reference copy of the global graph plus per-shard hop-distance
// tables, and translates each global update into per-shard deltas —
// membership growth (a new edge can pull nodes into a halo; the router
// emits the node plus all of its induced edges) and edge routing to every
// shard containing both endpoints.  Deletions leave distance tables stale
// on the low side, which makes member sets *supersets* of the true
// radius-ball — sound for match containment, merely less minimal.

#ifndef OSQ_SHARD_PARTITIONER_H_
#define OSQ_SHARD_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/index_maintenance.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"

namespace osq {

// How node ownership is assigned.  Both policies are pure functions of
// (node id, num_shards), so every run — and every process — partitions
// identically.
enum class ShardPolicy {
  // owner = splitmix64(id) % N: uniform, placement-independent.
  kHash,
  // Contiguous id blocks over the initial node range: owner = id / block.
  // Nodes created after partitioning fall outside the ranges and are
  // hash-routed.
  kRange,
};

struct ShardOptions {
  size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  // Halo depth in undirected hops.  Queries whose pivot eccentricity
  // exceeds this are rejected by the coordinator (the shard could miss
  // match nodes).  2 covers every star/triangle/path-of-5 shape.
  uint32_t halo_radius = 2;
};

// One shard's slice of the global graph.
struct ShardSpec {
  // Global ids of the shard's nodes (owned ∪ halo), ascending.  The
  // induced shard graph numbers its nodes by position in this list, so a
  // single shard over the whole graph is the identity mapping.
  std::vector<NodeId> members;
  // owned[i] != 0 iff members[i] is owned by this shard (not halo).
  std::vector<char> owned;
  // The subgraph of the global graph induced by `members`
  // (sub.to_original[local] == members[local]).
  Subgraph sub;
};

struct ShardPlan {
  ShardOptions options;
  // Node count at partition time; the range policy derives its block size
  // from it, and later-created nodes are hash-routed.
  size_t initial_nodes = 0;
  std::vector<ShardSpec> shards;
};

class GraphPartitioner {
 public:
  // `num_shards` == 0 is treated as 1.
  GraphPartitioner(const Graph& g, const ShardOptions& options);

  // Owner shard of a global node id (also defined for ids created after
  // partitioning — the range policy hash-routes those).
  [[nodiscard]] size_t OwnerOf(NodeId global) const;

  // Builds the full plan: ownership, halo BFS, induced shard subgraphs.
  [[nodiscard]] ShardPlan Partition() const;

  const ShardOptions& options() const { return options_; }

 private:
  const Graph& graph_;
  ShardOptions options_;
  size_t initial_nodes_;
  size_t range_block_;  // kRange block size, ceil(initial / N)
};

// The query node to scatter on: the one minimizing undirected eccentricity
// within the query graph (ties: lowest id).  `eccentricity` is
// kUnreachable for disconnected queries (rejected by ValidateQuery before
// any shard work).
struct PivotChoice {
  NodeId pivot = 0;
  uint32_t eccentricity = 0;
};
PivotChoice ChoosePivot(const Graph& query);

// One shard's portion of a routed global mutation, in GLOBAL node ids.
// Apply order: every `node_adds` entry first (ascending position), then
// `updates` in order — edges may reference nodes added by the same delta.
struct ShardDelta {
  struct NodeAdd {
    NodeId global;
    LabelId label;
    bool owned;
  };
  std::vector<NodeAdd> node_adds;
  std::vector<GraphUpdate> updates;

  bool empty() const { return node_adds.empty() && updates.empty(); }
};

// Translates global mutations into per-shard deltas while maintaining the
// membership invariants (see file comment).  Single-writer: the
// coordinator calls it under its exclusive snapshot lock.
class UpdateRouter {
 public:
  // `g` is copied as the reference graph; `plan` must come from the same
  // partitioner configuration the shards were built with.
  UpdateRouter(const Graph& g, const ShardPlan& plan);

  // Routes one edge update.  Returns one delta per shard (empty deltas
  // for unaffected shards) and sets *applied to whether the update
  // changed the reference graph (duplicates / missing edges are no-ops
  // and route nowhere).
  [[nodiscard]] std::vector<ShardDelta> Route(const GraphUpdate& update,
                                              bool* applied);

  // Creates a new global node and routes it to its owner shard (depth 0).
  // Returns the new global id via *global.
  [[nodiscard]] std::vector<ShardDelta> RouteAddNode(LabelId label,
                                                     NodeId* global);

  // Membership probe (tests / diagnostics).
  [[nodiscard]] bool IsMember(size_t shard, NodeId global) const;

  const Graph& reference() const { return reference_; }

 private:
  void GrowMembership(size_t shard, NodeId from, NodeId to,
                      ShardDelta* delta);

  Graph reference_;
  ShardOptions options_;
  size_t initial_nodes_;
  size_t range_block_;
  // depth_[s][v] = undirected hops from shard s's owned set to v at the
  // time v was (last) relaxed; kUnreachable = not a member.  Never grows
  // on deletion (stale-superset halos are sound).
  std::vector<std::vector<uint32_t>> depth_;
};

}  // namespace osq

#endif  // OSQ_SHARD_PARTITIONER_H_
