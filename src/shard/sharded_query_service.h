// ShardedQueryService — scatter-gather serving across N graph shards
// (DESIGN.md §13).
//
// The coordinator owns one per-shard engine adapter per shard (built from
// a GraphPartitioner plan) and serves queries by scattering the same query
// to every shard on the shared thread pool, then merging the per-shard
// top-K streams.  Merge determinism: every shard returns its exact top-K
// under the MatchBetter total order with canonical scores and global node
// ids, and the per-shard match sets partition the global match set (pivot
// ownership dedup, see shard/shard_engine.h) — so concatenate + sort +
// trim is bit-identical to a single-engine evaluation, for every shard
// count and both partitioning policies.
//
// Snapshot isolation uses a VERSION VECTOR, one component per shard: the
// writer applies each routed update batch under the exclusive snapshot
// lock (all shards mutate inside one critical section = one consistent
// cut), readers capture the vector under the shared lock, and the result
// cache stamps entries with the full vector — one stale shard component
// invalidates the entry (serve/result_cache.h).
//
// The serving front end — admission, the write-intent gate and snapshot
// lock, the result cache and ServeStats — is the same ServingCore the
// single-engine QueryService runs (serve/serving_core.h); ShardSet below
// is its backend.
//
// Degradation: the service-level deadline propagates to every shard; the
// first shard to exceed it cancels its siblings (their results come back
// remapped to deadline_exceeded, not cancelled, since the caller never
// asked to cancel) and completeness is max-precedence-merged.  A shard
// failed by the ShardFaultHook test seam contributes
// StopReason::kShardUnavailable; partial results are returned but never
// cached.

#ifndef OSQ_SHARD_SHARDED_QUERY_SERVICE_H_
#define OSQ_SHARD_SHARDED_QUERY_SERVICE_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_maintenance.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"
#include "serve/result_cache.h"
#include "serve/serving_core.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"

namespace osq {

// A merged QueryResult plus per-request serving metadata (the sharded
// analogue of ServedResult).
struct ShardedServedResult {
  QueryResult result;
  bool cache_hit = false;
  bool shed = false;
  // Per-shard snapshot cut the result reflects.
  VersionVector version;
  // Shards that contributed nothing (fault hook / engine unavailability).
  size_t shards_failed = 0;
  double wait_us = 0.0;
  double serve_us = 0.0;
};

// Test seam: called at the start of each shard's scatter task; a non-OK
// status fails that shard for this request (the coordinator degrades
// instead of hanging).  Install before serving traffic.
using ShardFaultHook = std::function<Status(size_t shard)>;

// The ServingCore backend over N shards: scatter-gather evaluation with
// pivot admission, routed updates, and the fault-injection seam.
class ShardSet {
 public:
  using Served = ShardedServedResult;

  // Partitions `g` per `shard_options` and builds one engine per shard.
  // `g` and `ontology` are copied (each shard owns its slice).
  ShardSet(const Graph& g, const OntologyGraph& ontology,
           const IndexOptions& index_options,
           const ShardOptions& shard_options);

  // Per-shard snapshot cut.
  VersionVector Version() const;
  // Scatter-gather evaluation.  Queries whose pivot eccentricity exceeds
  // the configured halo_radius are rejected with kInvalidArgument (a
  // shard could miss match nodes).
  void Evaluate(const Graph& query, const QueryOptions& options,
                Served* served) const;
  // Routed to the owning shard(s); the caller holds the snapshot lock, so
  // readers see the whole routed batch or none of it.
  MaintenanceStats ApplyUpdates(const std::vector<GraphUpdate>& updates);
  NodeId AddNode(LabelId label);

  void set_fault_hook(ShardFaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  // Delegation target: the public constructor computes the plan once; the
  // router copies what it needs from it, then the shard engines consume
  // its specs.
  ShardSet(const Graph& g, const OntologyGraph& ontology,
           const IndexOptions& index_options, ShardPlan plan);

  void ApplyDeltas(const std::vector<ShardDelta>& deltas);

  ShardOptions shard_options_;
  std::vector<ShardEngine> shards_;
  UpdateRouter router_;
  ShardFaultHook fault_hook_;
};

class ShardedQueryService : public ServingCore<ShardSet> {
 public:
  ShardedQueryService(const Graph& g, const OntologyGraph& ontology,
                      const IndexOptions& index_options,
                      const ShardOptions& shard_options,
                      const ServeOptions& serve_options = ServeOptions{})
      : ServingCore(ShardSet(g, ontology, index_options, shard_options),
                    serve_options) {}

  // Current per-shard snapshot cut; never waits behind a writer.
  VersionVector version() const { return version_vector(); }

  size_t num_shards() const { return version_vector().v.size(); }

  // Install the fault-injection seam.  Not synchronized against in-flight
  // queries — call before serving traffic (tests only).
  void set_fault_hook(ShardFaultHook hook) {
    backend_unsynchronized().set_fault_hook(std::move(hook));
  }
};

}  // namespace osq

#endif  // OSQ_SHARD_SHARDED_QUERY_SERVICE_H_
