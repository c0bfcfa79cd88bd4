#include "core/query_engine.h"

#include <utility>

#include "common/timer.h"
#include "graph/query_graph.h"
#include "query/pattern_parser.h"

namespace osq {

QueryEngine::QueryEngine(Graph g, OntologyGraph o,
                         const IndexOptions& options)
    : graph_(std::move(g)), ontology_(std::move(o)) {
  WallTimer timer;
  // Compact the data graph before indexing: every query after this point
  // reads flat CSR arrays.
  graph_.Freeze();
  index_ = std::make_unique<OntologyIndex>(
      OntologyIndex::Build(graph_, ontology_, options, &build_stats_));
  index_build_ms_ = timer.ElapsedMillis();
}

QueryEngine QueryEngine::FromPrebuilt(Graph g, OntologyGraph o,
                                      std::unique_ptr<OntologyIndex> index) {
  QueryEngine engine;
  engine.graph_ = std::move(g);
  engine.ontology_ = std::move(o);
  engine.index_ = std::move(index);
  engine.index_->Rebind(&engine.graph_, &engine.ontology_);
  return engine;
}

QueryEngine::QueryEngine(QueryEngine&& other) noexcept
    : graph_(std::move(other.graph_)),
      ontology_(std::move(other.ontology_)),
      index_(std::move(other.index_)),
      build_stats_(std::move(other.build_stats_)),
      index_build_ms_(other.index_build_ms_),
      version_(other.version_) {
  if (index_ != nullptr) index_->Rebind(&graph_, &ontology_);
}

QueryEngine& QueryEngine::operator=(QueryEngine&& other) noexcept {
  if (this == &other) return *this;
  graph_ = std::move(other.graph_);
  ontology_ = std::move(other.ontology_);
  index_ = std::move(other.index_);
  build_stats_ = std::move(other.build_stats_);
  index_build_ms_ = other.index_build_ms_;
  version_ = other.version_;
  if (index_ != nullptr) index_->Rebind(&graph_, &ontology_);
  return *this;
}

QueryResult QueryEngine::Query(const Graph& query,
                               const QueryOptions& options,
                               const EvalInputs& inputs) const {
  QueryResult result;
  result.status = ValidateQuery(query);
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
  FilterResult filter = GviewFilter(*index_, query, options, &exec,
                                    inputs.restriction, inputs.sims);
  result.filter_ms = timer.ElapsedMillis();
  result.filter_stats = filter.stats;
  timer.Restart();
  result.matches = KMatch(query, filter, options, &result.verify_stats,
                          &exec, inputs.ids);
  result.verify_ms = timer.ElapsedMillis();
  result.completeness =
      MergeStopReason(filter.stats.stopped, result.verify_stats.stopped);
  return result;
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
  bool applied = osq::ApplyUpdate(&graph_, index_.get(), update, stats);
  if (applied) ++version_;
  return applied;
}

MaintenanceStats QueryEngine::ApplyUpdates(
    const std::vector<GraphUpdate>& updates) {
  MaintenanceStats stats = osq::ApplyUpdates(&graph_, index_.get(), updates);
  if (stats.applied > 0) ++version_;
  return stats;
}

NodeId QueryEngine::AddNode(LabelId label) {
  ++version_;
  return AddNodeWithIndex(&graph_, index_.get(), label);
}

}  // namespace osq
