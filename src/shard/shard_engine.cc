#include "shard/shard_engine.h"

#include <utility>

#include "core/filtering.h"

namespace osq {

ShardEngine::ShardEngine(ShardSpec spec, const OntologyGraph& ontology,
                         const IndexOptions& index_options)
    : engine_(std::move(spec.sub.graph), ontology, index_options),
      to_global_(std::move(spec.sub.to_original)),
      owned_(std::move(spec.owned)) {
  for (char o : owned_) num_owned_ += o != 0 ? 1 : 0;
  // Dense global -> local map, built once (members are ascending);
  // AddNodeGlobal extends it.
  from_global_.assign(to_global_.empty() ? 0 : to_global_.back() + 1,
                      kInvalidNode);
  for (NodeId local = 0; local < to_global_.size(); ++local) {
    from_global_[to_global_[local]] = local;
  }
}

QuerySimTables ShardEngine::PrepareQuery(const Graph& query,
                                         const QueryOptions& options) const {
  return ComputeQuerySimTables(engine_.index().ontology(),
                               engine_.index().sim(), query, options.theta);
}

QueryResult ShardEngine::Query(const Graph& query, NodeId pivot,
                               const QueryOptions& options,
                               const Deadline& deadline,
                               const QuerySimTables* shared_sims) const {
  // The ownership restriction is pushed INTO the filter: seeding the pivot
  // from owned nodes only lets both refinement fixpoints propagate the cut
  // to the other query nodes, so per-shard filter cost tracks the shard's
  // partition instead of re-running the full filter on the halo-inflated
  // subgraph (this is what keeps N-shard scatter overhead structural).
  PivotRestriction restriction;
  restriction.query_node = pivot;
  restriction.allowed = &owned_;
  // Matches come back in global ids, and the shard keeps its top k by
  // global id: halo growth appends members out of global order, so
  // shard-local ids would break ties at the k-th score differently from
  // one engine over the whole graph.
  EvalInputs inputs;
  inputs.deadline = &deadline;
  inputs.restriction = &restriction;
  inputs.sims = shared_sims;
  inputs.ids = &to_global_;
  return engine_.Query(query, options, inputs);
}

void ShardEngine::AddNodeGlobal(NodeId global, LabelId label, bool owned) {
  if (LocalOf(global) != kInvalidNode) return;  // already a member
  NodeId local = engine_.AddNode(label);
  if (to_global_.size() <= local) to_global_.resize(local + 1, kInvalidNode);
  to_global_[local] = global;
  if (from_global_.size() <= global) {
    from_global_.resize(global + 1, kInvalidNode);
  }
  from_global_[global] = local;
  if (owned_.size() <= local) owned_.resize(local + 1, 0);
  owned_[local] = owned ? 1 : 0;
  if (owned) ++num_owned_;
}

bool ShardEngine::ApplyUpdateGlobal(const GraphUpdate& update) {
  NodeId from = LocalOf(update.edge.from);
  NodeId to = LocalOf(update.edge.to);
  if (from == kInvalidNode || to == kInvalidNode) return false;
  GraphUpdate local = update;
  local.edge.from = from;
  local.edge.to = to;
  return engine_.ApplyUpdate(local);
}

}  // namespace osq
