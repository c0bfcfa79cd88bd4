// QueryService — the single-engine serving tier: the shared serving front
// end (serve/serving_core.h) over one QueryEngine.
//
// QueryEngine::Query is const but unsynchronized: calling it while
// ApplyUpdate mutates the graph/index is a data race.  The front end puts
// the engine behind its reader/writer snapshot protocol, so N client
// threads query concurrently while update batches apply atomically, and
// adds the versioned result cache, admission control and ServeStats.  The
// version is the engine's own mutation counter (QueryEngine::version()):
// one mutating batch advances it by one.  See DESIGN.md §8.

#ifndef OSQ_SERVE_QUERY_SERVICE_H_
#define OSQ_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/index_maintenance.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "serve/result_cache.h"
#include "serve/serving_core.h"

namespace osq {

// A QueryResult plus per-request serving metadata.
struct ServedResult {
  QueryResult result;
  // True when the result came out of the cache without touching the engine.
  bool cache_hit = false;
  // True when the request was rejected at admission (max_inflight exceeded);
  // result.status is kUnavailable and no evaluation happened.
  bool shed = false;
  // Snapshot version the result reflects (monotone; one mutating batch
  // advances it by one).
  uint64_t version = 0;
  // Time spent waiting to acquire the shared snapshot lock, microseconds.
  double wait_us = 0.0;
  // End-to-end service time (wait + cache probe + engine), microseconds.
  double serve_us = 0.0;
};

// The ServingCore backend over one engine.
class EngineBackend {
 public:
  using Served = ServedResult;

  explicit EngineBackend(QueryEngine engine) : engine_(std::move(engine)) {}

  VersionVector Version() const {
    return VersionVector::Scalar(engine_.version());
  }
  void Evaluate(const Graph& query, const QueryOptions& options,
                Served* served) const {
    served->result = engine_.Query(query, options);
  }
  MaintenanceStats ApplyUpdates(const std::vector<GraphUpdate>& updates) {
    return engine_.ApplyUpdates(updates);
  }
  NodeId AddNode(LabelId label) { return engine_.AddNode(label); }

  const QueryEngine& engine() const { return engine_; }

 private:
  QueryEngine engine_;
};

class QueryService : public ServingCore<EngineBackend> {
 public:
  // Takes ownership of a fully built engine.
  explicit QueryService(QueryEngine engine,
                        const ServeOptions& options = ServeOptions{})
      : ServingCore(EngineBackend(std::move(engine)), options) {}

  // Current snapshot version: the wrapped engine's version, so 0 for a
  // freshly built one.
  uint64_t version() const { return version_sum(); }

  // Direct engine access for setup / inspection.  NOT synchronized —
  // callers must guarantee no concurrent Query/Apply* is in flight.
  const QueryEngine& engine_unsynchronized() const {
    return backend_unsynchronized().engine();
  }
};

}  // namespace osq

#endif  // OSQ_SERVE_QUERY_SERVICE_H_
