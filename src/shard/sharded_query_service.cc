#include "shard/sharded_query_service.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/filtering.h"
#include "core/match.h"
#include "core/query_engine.h"
#include "graph/query_graph.h"

namespace osq {

namespace {

void MergeShardStats(const QueryResult& from, QueryResult* into) {
  into->filter_stats += from.filter_stats;
  into->verify_stats += from.verify_stats;
  into->filter_ms += from.filter_ms;
  into->verify_ms += from.verify_ms;
}

}  // namespace

ShardSet::ShardSet(const Graph& g, const OntologyGraph& ontology,
                   const IndexOptions& index_options,
                   const ShardOptions& shard_options)
    : ShardSet(g, ontology, index_options,
               GraphPartitioner(g, shard_options).Partition()) {}

ShardSet::ShardSet(const Graph& g, const OntologyGraph& ontology,
                   const IndexOptions& index_options, ShardPlan plan)
    : shard_options_(plan.options), router_(g, plan) {
  // router_ is built (in the initializer list) before the specs move out.
  shards_.reserve(plan.shards.size());
  for (ShardSpec& spec : plan.shards) {
    shards_.emplace_back(std::move(spec), ontology, index_options);
  }
}

VersionVector ShardSet::Version() const {
  VersionVector v;
  v.v.reserve(shards_.size());
  for (const ShardEngine& shard : shards_) {
    v.v.push_back(shard.version());
  }
  return v;
}

void ShardSet::Evaluate(const Graph& query, const QueryOptions& options,
                        Served* served) const {
  QueryResult& merged = served->result;
  merged.status = ValidateQueryRequest(query, options);
  if (!merged.status.ok()) return;
  PivotChoice pivot = ChoosePivot(query);
  if (pivot.eccentricity > shard_options_.halo_radius) {
    merged.status = Status::InvalidArgument(
        "query radius " + std::to_string(pivot.eccentricity) +
        " exceeds shard halo_radius " +
        std::to_string(shard_options_.halo_radius) +
        ": a shard could miss match nodes");
    return;
  }

  // Each shard evaluates under a shared cancel token: the caller's when
  // it supplied one, otherwise a private token that lets the first shard
  // to exceed the deadline cancel its siblings.
  QueryOptions child = options;
  const bool own_token = !child.cancel.cancellable();
  if (own_token) child.cancel = CancelToken::Cancellable();
  std::atomic<bool> deadline_tripped{false};
  // Fix the absolute deadline ONCE for the whole fan-out: a shard that
  // starts late (stalled sibling on a small pool) must see the same
  // expiry, not a fresh per-shard budget.
  const Deadline deadline = Deadline::AfterMillis(options.deadline_ms);
  // Query preprocessing (ontology balls) depends only on the shared
  // ontology, so it too is computed once and reused by every shard —
  // per-request setup cost stays O(1) in the shard count.
  const QuerySimTables shared_sims =
      shards_.front().PrepareQuery(query, options);

  const size_t n = shards_.size();
  std::vector<QueryResult> results(n);
  std::vector<char> failed(n, 0);
  ParallelFor(n, n, [&](size_t i) {
    if (fault_hook_ != nullptr) {
      Status s = fault_hook_(i);
      if (!s.ok()) {
        failed[i] = 1;
        return;
      }
    }
    results[i] =
        shards_[i].Query(query, pivot.pivot, child, deadline, &shared_sims);
    if (own_token &&
        results[i].completeness == StopReason::kDeadlineExceeded) {
      deadline_tripped.store(true, std::memory_order_relaxed);
      child.cancel.RequestCancel();
    }
  });

  size_t ok_shards = 0;
  StopReason completeness = StopReason::kNone;
  for (size_t i = 0; i < n; ++i) {
    if (failed[i] != 0) {
      completeness =
          MergeStopReason(completeness, StopReason::kShardUnavailable);
      ++served->shards_failed;
      continue;
    }
    StopReason c = results[i].completeness;
    // Sibling-cancel remap: when OUR private token fired because a shard
    // hit the deadline, the siblings' "cancelled" really means
    // "deadline_exceeded" — the caller never asked to cancel.
    if (own_token && c == StopReason::kCancelled &&
        deadline_tripped.load(std::memory_order_relaxed)) {
      c = StopReason::kDeadlineExceeded;
    }
    completeness = MergeStopReason(completeness, c);
    merged.matches.insert(merged.matches.end(), results[i].matches.begin(),
                          results[i].matches.end());
    MergeShardStats(results[i], &merged);
    ++ok_shards;
  }
  if (ok_shards == 0 && n > 0) {
    merged.status = Status::Unavailable("all shards unavailable");
    merged.matches.clear();
    merged.completeness = StopReason::kShardUnavailable;
    return;
  }
  merged.completeness = completeness;

  // Per-shard match sets are disjoint (pivot ownership) and each is the
  // shard's exact top-K under MatchBetter on global ids with canonical
  // scores, so the global top-K is a sort + trim of the concatenation —
  // bit-identical to the single-engine answer.
  std::sort(merged.matches.begin(), merged.matches.end(), MatchBetter{});
  if (options.k > 0 && merged.matches.size() > options.k) {
    merged.matches.resize(options.k);
  }
}

void ShardSet::ApplyDeltas(const std::vector<ShardDelta>& deltas) {
  for (size_t s = 0; s < deltas.size() && s < shards_.size(); ++s) {
    for (const ShardDelta::NodeAdd& add : deltas[s].node_adds) {
      shards_[s].AddNodeGlobal(add.global, add.label, add.owned);
    }
    for (const GraphUpdate& update : deltas[s].updates) {
      // The router only emits updates whose endpoints are shard members
      // and whose effect is fresh; a false return here would mean a
      // routing bug, surfaced by the differential suite rather than a
      // crash in production.
      (void)shards_[s].ApplyUpdateGlobal(update);
    }
  }
}

MaintenanceStats ShardSet::ApplyUpdates(
    const std::vector<GraphUpdate>& updates) {
  MaintenanceStats stats;
  for (const GraphUpdate& update : updates) {
    bool applied = false;
    ApplyDeltas(router_.Route(update, &applied));
    if (applied) {
      ++stats.applied;
    } else {
      ++stats.skipped;
    }
  }
  return stats;
}

NodeId ShardSet::AddNode(LabelId label) {
  NodeId global = kInvalidNode;
  ApplyDeltas(router_.RouteAddNode(label, &global));
  return global;
}

}  // namespace osq
