// Human-readable query diagnostics ("EXPLAIN" for the ontology-based
// querying pipeline): per-query-node candidate labels with similarities,
// candidate counts per phase, G_v size, and the resulting top matches.
// Intended for interactive debugging of why a query does or does not
// match (e.g. through the osq_cli tool).

#ifndef OSQ_CORE_EXPLAIN_H_
#define OSQ_CORE_EXPLAIN_H_

#include <string>

#include "core/ontology_index.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/label_dictionary.h"

namespace osq {

struct ExplainOptions {
  // Maximum candidate nodes / matches listed per section.
  size_t max_listed = 5;
};

// Runs QueryEngine::Query's own evaluation (EvaluateQuery) for `query` and
// renders a report; a request that ValidateQueryRequest rejects is
// reported with its status instead.  The run honours options.deadline_ms
// and options.cancel, and the verification line names the stop reason
// ("complete" when the answer is exact).  Does not mutate
// anything; safe on any valid engine state.
std::string ExplainQuery(const OntologyIndex& index, const Graph& query,
                         const QueryOptions& options,
                         const LabelDictionary& dict,
                         const ExplainOptions& eopts = {});

}  // namespace osq

#endif  // OSQ_CORE_EXPLAIN_H_
