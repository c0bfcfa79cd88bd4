// UpdateSink — the ingest pipeline's application boundary.
//
// IngestPipeline (ingest_pipeline.h) batches a stream of GraphUpdates and
// hands each batch to an UpdateSink, which must apply it ATOMICALLY with
// respect to concurrent readers: one ApplyBatch call is one snapshot cut.
// Both serving tiers already provide exactly that contract through the
// serving core's ApplyUpdates (exclusive snapshot lock, one version
// advance per batch), so the adapter here is a thin non-owning wrapper.
// The indirection keeps src/ingest/ free of a hard dependency on the
// sharded tier and gives tests a seam for counting/faulting batch
// applications.

#ifndef OSQ_INGEST_UPDATE_SINK_H_
#define OSQ_INGEST_UPDATE_SINK_H_

#include <vector>

#include "core/index_maintenance.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"

namespace osq {

class UpdateSink {
 public:
  virtual ~UpdateSink() = default;

  // Applies `batch` as one atomic snapshot cut.  Must be safe to call
  // concurrently with the sink's readers (the pipeline serializes its own
  // ApplyBatch calls — at most one is in flight at a time).
  virtual MaintenanceStats ApplyBatch(
      const std::vector<GraphUpdate>& batch) = 0;
};

// Sink over either serving tier (QueryService or ShardedQueryService):
// one ApplyBatch is one ApplyUpdates call, i.e. one exclusive section and
// one consistent cut — on the sharded tier the batch is router-split per
// shard inside it.  Does not own the service.
template <class Service>
class ServiceSink final : public UpdateSink {
 public:
  explicit ServiceSink(Service* service) : service_(service) {}

  MaintenanceStats ApplyBatch(
      const std::vector<GraphUpdate>& batch) override {
    return service_->ApplyUpdates(batch);
  }

 private:
  Service* service_;
};

using QueryServiceSink = ServiceSink<QueryService>;
using ShardedServiceSink = ServiceSink<ShardedQueryService>;

class IngestPipeline;

// Copies the pipeline gauges into a serving-layer stats snapshot
// (ServeStats::ingest_*), joining write-path and read-path observability in
// one report.  Lives here — not on IngestPipeline — because update_sink is
// the one sanctioned ingest<->serving bridge (osq-layering); the rest of
// src/ingest stays free of serving-tier includes.
void AugmentServeStats(const IngestPipeline& pipeline, ServeStats* stats);

}  // namespace osq

#endif  // OSQ_INGEST_UPDATE_SINK_H_
