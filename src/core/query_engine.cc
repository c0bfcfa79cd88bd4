#include "core/query_engine.h"

#include <utility>

#include "common/timer.h"
#include "graph/query_graph.h"
#include "query/pattern_parser.h"

namespace osq {

Status ValidateQueryRequest(const Graph& query, const QueryOptions& options) {
  if (!(options.theta > 0.0 && options.theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in (0, 1]");
  }
  return ValidateQuery(query);
}

namespace {

// Compacts the data graph, so that queries read flat CSR arrays, and
// indexes it; *ms receives the wall time of both.
OntologyIndex FreezeAndBuild(Graph g, OntologyGraph o,
                             const IndexOptions& options, double* ms) {
  WallTimer timer;
  g.Freeze();
  OntologyIndex index =
      OntologyIndex::Build(std::move(g), std::move(o), options);
  *ms = timer.ElapsedMillis();
  return index;
}

}  // namespace

QueryEngine::QueryEngine(Graph g, OntologyGraph o,
                         const IndexOptions& options)
    : index_(FreezeAndBuild(std::move(g), std::move(o), options,
                            &index_build_ms_)) {}

QueryEngine::QueryEngine(OntologyIndex index) : index_(std::move(index)) {}

QueryResult EvaluateQuery(const OntologyIndex& index, const Graph& query,
                          const QueryOptions& options,
                          const EvalInputs& inputs,
                          std::optional<FilterResult>* filter_out) {
  QueryResult result;
  result.status = ValidateQueryRequest(query, options);
  if (!result.status.ok()) {
    return result;
  }
  // One control block per query: the absolute deadline is fixed here (or
  // by the caller) so filtering and verification share the same budget.
  ExecControl exec;
  exec.deadline = inputs.deadline != nullptr
                      ? *inputs.deadline
                      : Deadline::AfterMillis(options.deadline_ms);
  exec.cancel = options.cancel;
  // A stop that is already due must not buy a fresh round of work: the
  // amortized in-loop polls would let a small graph run to completion
  // before the first stride fires (e.g. a shard that starts after its
  // siblings spent the shared deadline).
  result.completeness = exec.Check();
  if (!result.complete()) return result;
  WallTimer timer;
  FilterResult filter = GviewFilter(index, query, options, &exec,
                                    inputs.restriction, inputs.sims);
  result.filter_ms = timer.ElapsedMillis();
  result.filter_stats = filter.stats;
  timer.Restart();
  result.matches = KMatch(query, filter, options, &result.verify_stats,
                          &exec, inputs.ids);
  result.verify_ms = timer.ElapsedMillis();
  result.completeness =
      MergeStopReason(filter.stats.stopped, result.verify_stats.stopped);
  if (filter_out != nullptr) *filter_out = std::move(filter);
  return result;
}

QueryResult QueryEngine::Query(const Graph& query,
                               const QueryOptions& options,
                               const EvalInputs& inputs) const {
  return EvaluateQuery(index_, query, options, inputs);
}

QueryResult QueryEngine::QueryPattern(std::string_view pattern,
                                      LabelDictionary* dict,
                                      const QueryOptions& options) const {
  ParsedPattern parsed;
  Status status = ParsePattern(pattern, dict, &parsed);
  if (!status.ok()) {
    QueryResult result;
    result.status = std::move(status);
    return result;
  }
  return Query(parsed.query, options);
}

bool QueryEngine::ApplyUpdate(const GraphUpdate& update,
                              MaintenanceStats* stats) {
  bool applied = osq::ApplyUpdate(&index_, update, stats);
  if (applied) ++version_;
  return applied;
}

MaintenanceStats QueryEngine::ApplyUpdates(
    const std::vector<GraphUpdate>& updates) {
  MaintenanceStats stats = osq::ApplyUpdates(&index_, updates);
  if (stats.applied > 0) ++version_;
  return stats;
}

NodeId QueryEngine::AddNode(LabelId label) {
  ++version_;
  return AddNodeWithIndex(&index_, label);
}

}  // namespace osq
