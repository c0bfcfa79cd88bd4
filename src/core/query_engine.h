// QueryEngine — the library's main entry point.
//
// Holds the serving index by value — the index owns the data graph and
// its ontology graph (core/ontology_index.h) — builds it once (paper
// Fig. 4, "index construction"), and evaluates ontology-based subgraph
// queries with the filtering-and-verification pipeline (Gview + KMatch).
// Supports dynamic data graphs through the incremental maintenance API
// (paper §VI).  Copies and moves are the compiler's: a move carries the
// index and its graphs along, and a copy is an independent engine whose
// data graph shares the original's frozen CSR arrays (never written) and
// keeps its own labels and thaw overlay (graph/graph.h), so updating
// either engine leaves the other unchanged.
//
// Typical use:
//   LabelDictionary dict;
//   ... build Graph g and OntologyGraph o sharing `dict` ...
//   QueryEngine engine(std::move(g), std::move(o), IndexOptions{});
//   QueryResult r = engine.Query(query, {.theta = 0.9, .k = 10});
//   for (const Match& m : r.matches) ...

#ifndef OSQ_CORE_QUERY_ENGINE_H_
#define OSQ_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/filtering.h"
#include "core/index_maintenance.h"
#include "core/kmatch.h"
#include "core/match.h"
#include "core/ontology_index.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/label_dictionary.h"
#include "ontology/ontology_graph.h"

namespace osq {

struct QueryResult {
  // Non-OK when the query graph was rejected (empty / disconnected).
  Status status;
  // Top-K matches, best first (original data-graph node ids).
  std::vector<Match> matches;
  // The completeness contract (DESIGN.md §9): kNone means `matches` is
  // the exact answer.  kDeadlineExceeded / kCancelled mean the evaluation
  // was interrupted — every returned match is still fully verified and
  // valid, but the set may be a strict subset of the true top-K (and is
  // timing-dependent).  Partial results must never be cached or otherwise
  // treated as the exact answer.
  StopReason completeness = StopReason::kNone;
  FilterStats filter_stats;
  KMatchStats verify_stats;
  // Phase timings, milliseconds.
  double filter_ms = 0.0;
  double verify_ms = 0.0;

  bool complete() const { return completeness == StopReason::kNone; }
};

// Inputs to one evaluation that the caller fixes outside QueryOptions.  A
// plain Query leaves them empty; the sharded tier's per-shard call sets
// all of them (shard/shard_engine.h).
struct EvalInputs {
  // Absolute deadline shared with sibling evaluations; null = a budget of
  // options.deadline_ms counted from the call.
  const Deadline* deadline = nullptr;
  // Passed through to GviewFilter (core/filtering.h).
  const PivotRestriction* restriction = nullptr;
  const QuerySimTables* sims = nullptr;
  // ids[v] is the id reported for data node v; passed to KMatch as its
  // id_map, so ties at the k-th score break on these ids.  Null = the
  // data graph's own ids.
  const std::vector<NodeId>* ids = nullptr;
};

// InvalidArgument when options.theta is outside (0, 1] or `query` is not a
// valid query graph (ValidateQuery); Ok otherwise.  Every evaluation entry
// point (QueryEngine::Query, ShardSet::Evaluate) checks a request with it
// first.
[[nodiscard]] Status ValidateQueryRequest(const Graph& query,
                                          const QueryOptions& options);

// The evaluation QueryEngine::Query runs, over any serving index:
// ValidateQueryRequest, one ExecControl for the whole run (a stop that is
// already due returns at once with that completeness), GviewFilter, KMatch
// and the merged completeness.  A non-null `filter_out` receives the
// Gview output that KMatch verified (EXPLAIN lists its candidates); it
// stays empty when the request is rejected or stopped before filtering.
[[nodiscard]] QueryResult EvaluateQuery(
    const OntologyIndex& index, const Graph& query,
    const QueryOptions& options, const EvalInputs& inputs = {},
    std::optional<FilterResult>* filter_out = nullptr);

class QueryEngine {
 public:
  // Takes ownership of the graphs; the index is built immediately.
  QueryEngine(Graph g, OntologyGraph o, const IndexOptions& options);

  // Serves an already-built index (the snapshot load path,
  // core/snapshot.h).
  explicit QueryEngine(OntologyIndex index);

  // The graphs live inside the index; the engine forwards to it.
  const Graph& graph() const { return index_.data_graph(); }
  const OntologyGraph& ontology() const { return index_.ontology(); }
  const OntologyIndex& index() const { return index_; }
  // All zero: the serving index builds no concept graph.  servebench's
  // index.blocks_per_node reads total_blocks.
  const IndexBuildStats& build_stats() const { return build_stats_; }
  double index_build_ms() const { return index_build_ms_; }

  // Evaluates `query` (paper's KMatch over the Gview-extracted G_v) with
  // EvaluateQuery.  A request ValidateQueryRequest rejects fails with its
  // status.  An evaluation whose deadline has already passed, or whose
  // token is already cancelled, returns at once with that completeness and
  // no work done.  [[nodiscard]]: QueryResult carries the error status;
  // dropping it would silently swallow failures.
  [[nodiscard]] QueryResult Query(const Graph& query,
                                  const QueryOptions& options,
                                  const EvalInputs& inputs = {}) const;

  // Convenience: parses `pattern` (see query/pattern_parser.h, e.g.
  // "(t:tourists)-[guide]->(m:museum)") against `dict` and evaluates it.
  // Parse failures surface in QueryResult::status.
  [[nodiscard]] QueryResult QueryPattern(std::string_view pattern,
                                         LabelDictionary* dict,
                                         const QueryOptions& options) const;

  // Dynamic updates: mutate the data graph and incrementally repair the
  // index (never rebuilds from scratch).
  bool ApplyUpdate(const GraphUpdate& update,
                   MaintenanceStats* stats = nullptr);
  MaintenanceStats ApplyUpdates(const std::vector<GraphUpdate>& updates);
  NodeId AddNode(LabelId label);

  // Monotone mutation counter: starts at 0 and advances by one for every
  // mutating call that changed the graph (an ApplyUpdates batch counts
  // once, no matter how many updates it contains; no-op calls do not
  // count).  The serving layer uses it as the snapshot version for cache
  // invalidation (serve/serving_core.h).
  uint64_t version() const { return version_; }

 private:
  // Declared before index_: the constructor's index build writes it.
  double index_build_ms_ = 0.0;
  OntologyIndex index_;
  IndexBuildStats build_stats_;
  uint64_t version_ = 0;
};

}  // namespace osq

#endif  // OSQ_CORE_QUERY_ENGINE_H_
