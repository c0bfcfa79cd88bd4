// Observability for the serving layer (serve/serving_core.h).
//
// The serving core records every request into lock-free log-bucketed
// latency histograms (cache hits, cold queries, degraded queries, reads
// during a write) plus a set of monotonic counters; Stats() folds them
// into a plain ServeStats value with interpolated percentiles.  All
// recording uses relaxed atomics — counters are independent monotone
// facts, not synchronization — so the hot path never takes a lock for
// stats and stays ThreadSanitizer-clean.

#ifndef OSQ_SERVE_SERVE_STATS_H_
#define OSQ_SERVE_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace osq {

// Converts a microsecond duration to 0.1 us ticks, rounding to nearest.
// Counters accumulate ticks rather than floating-point sums so relaxed
// fetch_add stays exact; rounding (not truncation) keeps the expected
// value of the sum equal to the sum of the expected values — with
// truncation, sub-0.1 us lock waits accumulate to zero and wait totals
// systematically undercount under high QPS.
inline uint64_t ToTenthUs(double us) {
  return us > 0.0 ? static_cast<uint64_t>(us * 10.0 + 0.5) : 0;
}

// Percentile summary of one latency population, microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

// A point-in-time snapshot of a serving tier's counters.
//
// Accounting invariant (pinned by serve_stats_test):
//
//   queries == cache_hits + cache_misses
//   queries == complete + deadline_exceeded + cancelled + shard_unavailable
//   total_requests() == queries + shed
//
// `queries` counts requests that were ADMITTED — they reached the cache or
// the engine and recorded a latency sample (hit_latency.count +
// miss_latency.count + degraded_latency.count == queries).  Shed requests
// were rejected at admission before touching the lock, cache, or engine:
// they are counted only in `shed`, record no latency, and are visible in
// the end-to-end request total exclusively via total_requests().
struct ServeStats {
  // Requests served, split by how they were answered.
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Completion-status split of the served queries (cache hits are always
  // complete — partial results are never cached).
  uint64_t complete = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  // Queries degraded because one or more shards failed (sharded serving
  // tier only; always 0 for a single-engine QueryService).
  uint64_t shard_unavailable = 0;
  // Requests rejected at admission (ServeOptions::max_inflight exceeded);
  // NOT included in `queries` — they never reached the engine or cache.
  uint64_t shed = 0;
  // Cache churn: capacity evictions vs entries dropped because an update
  // advanced the snapshot version past them.  Invalidations count both the
  // writer's eager sweep and stale entries dropped lazily at lookup time.
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  // Mutations: one batch per ApplyUpdate/ApplyUpdates/AddNode call that
  // changed the graph.  `updates_applied` counts individual EDGE updates
  // only; node additions are tracked separately in `nodes_added` (both
  // advance the snapshot version — a single-node query can match a fresh
  // node — but conflating them would misstate the edge-churn rate).
  uint64_t update_batches = 0;
  uint64_t updates_applied = 0;
  uint64_t nodes_added = 0;
  // Snapshot version at snapshot time (monotone, bumped per batch): the
  // engine's version on one engine, the per-shard versions summed on the
  // sharded tier.
  uint64_t version = 0;
  // Total time requests spent waiting to acquire the reader (resp. writer)
  // side of the snapshot lock, microseconds.
  double read_wait_us = 0.0;
  double write_wait_us = 0.0;
  // Total time writers spent doing maintenance work INSIDE the exclusive
  // lock (graph mutation + incremental index repair + cache sweep),
  // microseconds.  write_apply_us / update_batches is the online
  // maintenance cost per snapshot cut — the measured form of the paper's
  // incremental-vs-recompute claim; write_wait_us is serving contention,
  // deliberately excluded.
  double write_apply_us = 0.0;
  // Live-ingest observability, filled by the free AugmentServeStats bridge
  // (src/ingest/update_sink.h); zero for a service without a pipeline.
  // backlog = updates accepted but not yet applied (gauge); applied_lag =
  // age of the oldest update in the most recently applied batch at the
  // moment it became visible (gauge); coalescing ratio = updates absorbed
  // per snapshot cut (submitted that retired / batches).
  uint64_t ingest_backlog = 0;
  double ingest_applied_lag_ms = 0.0;
  double ingest_coalescing_ratio = 0.0;

  // End-to-end service latency (lock wait + cache probe + engine), split
  // by completion status: cache hits, complete cold evaluations, and
  // degraded (deadline_exceeded / cancelled) evaluations.
  LatencySummary hit_latency;
  LatencySummary miss_latency;
  LatencySummary degraded_latency;
  // Subset of admitted reads that overlapped a write burst — a writer was
  // pending or in progress when the read arrived or when it acquired the
  // shared lock.  Every such read is ALSO in exactly one of the three
  // populations above; this split shows how p99 degrades under writes.
  LatencySummary burst_read_latency;

  // All requests that entered the service, admitted or not.
  uint64_t total_requests() const { return queries + shed; }

  // Cache invalidations per mutating batch (staleness pressure on the
  // result cache); 0 when no batch has been applied.
  double cache_invalidation_rate() const {
    return update_batches > 0 ? static_cast<double>(cache_invalidations) /
                                    static_cast<double>(update_batches)
                              : 0.0;
  }

  // Multi-line human-readable rendering for CLI / bench output.
  std::string ToString() const;
};

// Concurrent latency histogram: geometric buckets with ratio 2^(1/4)
// starting at 1 us, so 96 buckets span 1 us .. ~16.8 s with <= 19 %
// relative quantile error.  Record() is wait-free (relaxed fetch_add plus
// a CAS max); Summarize() interpolates percentiles within a bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 96;

  void Record(double us);
  LatencySummary Summarize() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_tenth_us_{0};  // sum in 0.1 us ticks
  std::atomic<uint64_t> max_tenth_us_{0};
};

// RAII decrement of a relaxed gauge; the increment is the caller's.  Used
// by the serving layers to keep "writers pending or writing" gauges exact
// across every early return.
class GaugeDecrementGuard {
 public:
  explicit GaugeDecrementGuard(std::atomic<uint64_t>& gauge)
      : gauge_(gauge) {}
  ~GaugeDecrementGuard() { gauge_.fetch_sub(1, std::memory_order_relaxed); }
  GaugeDecrementGuard(const GaugeDecrementGuard&) = delete;
  GaugeDecrementGuard& operator=(const GaugeDecrementGuard&) = delete;

 private:
  std::atomic<uint64_t>& gauge_;
};

}  // namespace osq

#endif  // OSQ_SERVE_SERVE_STATS_H_
