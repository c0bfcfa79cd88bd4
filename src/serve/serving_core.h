// ServingCore — the one serving front end shared by both serving tiers
// (DESIGN.md §8).  QueryService (serve/query_service.h) runs it over one
// QueryEngine; ShardedQueryService (shard/sharded_query_service.h) over a
// set of shards.  Everything between a client call and the backend lives
// here, once:
//
//   * Snapshot isolation.  Readers hold a std::shared_mutex in shared mode
//     for the whole evaluation, so every query observes exactly one
//     snapshot, never a half-applied batch.  Writers hold it exclusively;
//     each mutating call that changes the data advances the backend's
//     version stamp ("one batch = one version" per touched component).
//   * Writer fairness.  glibc's shared_mutex prefers readers, so a stream
//     of closed-loop readers can keep the shared side continuously held
//     and starve a writer.  A write-intent gate (a plain mutex) bounds the
//     writer's wait: writers take the gate first and hold it across the
//     exclusive acquisition, while every reader briefly passes through the
//     gate before taking the shared lock.  Once a writer owns the gate no
//     NEW reader can reach the shared lock, so the writer waits only for
//     the readers already past the gate to drain.
//   * The result cache (serve/result_cache.h), keyed by QuerySignature and
//     stamped with the backend's VersionVector.  An entry is served only
//     if its stamp equals the one the reader observes under the shared
//     lock, so a stale result can never be returned; writers also sweep
//     superseded entries eagerly.  Only complete, OK results are cached:
//     a degraded result reflects where a clock, cancel or failed shard
//     interrupted the work, and serving it later would drop matches.
//   * Admission (DESIGN.md §9).  ServeOptions::max_inflight bounds the
//     queries admitted at once; excess requests are shed with kUnavailable
//     before touching the lock, backend or cache.  A shed result still
//     carries the current version.  ServeOptions::default_deadline_ms
//     applies to requests that carry no deadline of their own.
//   * ServeStats accounting: relaxed counters and latency histograms,
//     read by Stats() at any time without taking the snapshot lock.
//
// The backend is the only state the snapshot lock guards.  Its contract:
//
//   using Served = ...;  // result type with the fields result, cache_hit,
//                        // shed, version, wait_us, serve_us
//   VersionVector Version() const;
//   void Evaluate(const Graph& query, const QueryOptions& options,
//                 Served* served) const;  // fills served->result
//   MaintenanceStats ApplyUpdates(const std::vector<GraphUpdate>& updates);
//   NodeId AddNode(LabelId label);
//
// plus a move constructor.

#ifndef OSQ_SERVE_SERVING_CORE_H_
#define OSQ_SERVE_SERVING_CORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/index_maintenance.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"

namespace osq {

// Writes a snapshot stamp into a served result's version field: the whole
// vector, or its component sum where the tier reports a scalar.
inline void AssignVersion(const VersionVector& stamp, VersionVector* out) {
  *out = stamp;
}
inline void AssignVersion(const VersionVector& stamp, uint64_t* out) {
  *out = stamp.sum();
}

template <class Backend>
class ServingCore {
 public:
  using Served = typename Backend::Served;

  // Evaluates `query` against the current snapshot.  Safe to call from
  // any number of threads concurrently with each other and with the
  // mutating calls below.  [[nodiscard]]: the result carries the status
  // (including Unavailable shed signals) — dropping it hides overload.
  [[nodiscard]] Served Query(const Graph& query, const QueryOptions& options) {
    Served served;
    WallTimer total;

    // Admission control: count this request against the in-flight bound
    // and shed before taking the lock, so overload cannot pile up lock
    // waiters.  The gauge may transiently overshoot the bound between the
    // fetch_add and the rollback, but admitted requests never do.
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (options_.max_inflight > 0 &&
        inflight_.load(std::memory_order_relaxed) > options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      served.shed = true;
      served.result.status = Status::Unavailable(
          "query shed: service at max_inflight capacity");
      AssignVersion(version_vector(), &served.version);
      served.serve_us = total.ElapsedMicros();
      shed_.fetch_add(1, std::memory_order_relaxed);
      return served;
    }

    // A request without its own deadline inherits the configured default.
    // The signature ignores deadlines (a complete result is
    // deadline-invariant), so this never splits cache keys; it is built
    // before the lock to keep the critical section short.
    QueryOptions effective = options;
    if (effective.deadline_ms <= 0.0 && options_.default_deadline_ms > 0.0) {
      effective.deadline_ms = options_.default_deadline_ms;
    }
    std::string key = QuerySignature(query, effective);

    WallTimer wait;
    // Burst classification: sample the writer gauge on arrival and again
    // after acquiring the shared lock, so a read that either waited behind
    // a writer or ran concurrently with one lands in the burst split.
    bool write_burst = writers_pending_.load(std::memory_order_relaxed) > 0;
    {
      // Write-intent gate: acquiring and immediately releasing it stalls
      // this reader behind any writer that holds it.
      std::scoped_lock<std::mutex> gate(writer_gate_);
    }
    std::shared_lock<std::shared_mutex> lock(mu_);
    served.wait_us = wait.ElapsedMicros();
    write_burst =
        write_burst || writers_pending_.load(std::memory_order_relaxed) > 0;
    VersionVector stamp = backend_.Version();
    AssignVersion(stamp, &served.version);
    if (cache_.Lookup(key, stamp, &served.result)) {
      served.cache_hit = true;
    } else {
      backend_.Evaluate(query, effective, &served);
      if (served.result.status.ok() && served.result.complete()) {
        cache_.Insert(key, stamp, served.result);
      }
    }
    lock.unlock();
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    served.serve_us = total.ElapsedMicros();
    RecordRead(served, write_burst);
    return served;
  }

  // Mutations.  Each call that changes the data applies atomically with
  // respect to Query (readers see all of it or none of it) and advances
  // the version stamp.  ApplyUpdate adds its effect to *stats when given.
  bool ApplyUpdate(const GraphUpdate& update,
                   MaintenanceStats* stats = nullptr) {
    MaintenanceStats batch = ApplyUpdates({update});
    if (stats != nullptr) *stats += batch;
    return batch.applied > 0;
  }
  // [[nodiscard]]: the stats carry the applied/skipped split — dropping
  // them hides a batch that silently no-opped.
  [[nodiscard]] MaintenanceStats ApplyUpdates(
      const std::vector<GraphUpdate>& updates) {
    MaintenanceStats stats;
    Write([&](Backend& backend) {
      stats = backend.ApplyUpdates(updates);
      updates_applied_.fetch_add(stats.applied, std::memory_order_relaxed);
      return stats.applied > 0;  // a no-op batch keeps the snapshot
    });
    return stats;
  }
  // A new node is observable (a single-node query can match it), so the
  // add advances the version, which sweeps every cached entry.
  NodeId AddNode(LabelId label) {
    NodeId id = kInvalidNode;
    Write([&](Backend& backend) {
      id = backend.AddNode(label);
      nodes_added_.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
    return id;
  }

  // Point-in-time counters; callable concurrently with traffic and never
  // waits behind a writer.  ServeStats::version is the sum of the
  // version stamp's components.
  ServeStats Stats() const {
    ServeStats s;
    s.queries = queries_.load(std::memory_order_relaxed);
    s.cache_hits = hits_.load(std::memory_order_relaxed);
    s.cache_misses = misses_.load(std::memory_order_relaxed);
    s.complete = complete_.load(std::memory_order_relaxed);
    s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.shard_unavailable = shard_unavailable_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.cache_evictions = cache_.evictions();
    // Invalidations = writers' eager sweeps plus entries dropped lazily at
    // lookup time when their stamp no longer matched.
    s.cache_invalidations = invalidations_.load(std::memory_order_relaxed) +
                            cache_.stale_drops();
    s.update_batches = update_batches_.load(std::memory_order_relaxed);
    s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
    s.nodes_added = nodes_added_.load(std::memory_order_relaxed);
    s.version = version_sum();
    s.read_wait_us = TenthUsToUs(read_wait_tenth_us_);
    s.write_wait_us = TenthUsToUs(write_wait_tenth_us_);
    s.write_apply_us = TenthUsToUs(write_apply_tenth_us_);
    s.hit_latency = hit_latency_.Summarize();
    s.miss_latency = miss_latency_.Summarize();
    s.degraded_latency = degraded_latency_.Summarize();
    s.burst_read_latency = burst_read_latency_.Summarize();
    return s;
  }

  size_t cache_size() const { return cache_.size(); }

  // Queries currently admitted and executing (cache probe + backend).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 protected:
  ServingCore(Backend backend, const ServeOptions& options)
      : options_(options),
        backend_(std::move(backend)),
        stamp_(backend_.Version()),
        version_(stamp_.sum()),
        cache_(options.cache_capacity) {}

  // The last published version stamp and its component sum.  Neither
  // waits behind a writer.
  VersionVector version_vector() const {
    std::lock_guard<std::mutex> lock(stamp_mu_);
    return stamp_;
  }
  uint64_t version_sum() const {
    return version_.load(std::memory_order_acquire);
  }

  // Direct backend access for setup and inspection.  NOT synchronized —
  // callers must guarantee no concurrent Query or mutation is in flight.
  const Backend& backend_unsynchronized() const {
    // NOLINTNEXTLINE(osq-guarded-access): documented escape hatch — callers forbid concurrent traffic
    return backend_;
  }
  Backend& backend_unsynchronized() {
    return const_cast<Backend&>(std::as_const(*this).backend_unsynchronized());
  }

 private:
  static double TenthUsToUs(const std::atomic<uint64_t>& ticks) {
    return static_cast<double>(ticks.load(std::memory_order_relaxed)) / 10.0;
  }

  // The one write path: the gate, then the exclusive lock, then
  // `mutate(backend_)`.  When it reports a change, the new stamp is
  // published and superseded cache entries are swept.
  template <class Mutate>
  void Write(Mutate&& mutate) {
    WallTimer wait;
    writers_pending_.fetch_add(1, std::memory_order_relaxed);
    GaugeDecrementGuard pending(writers_pending_);
    std::scoped_lock<std::mutex> gate(writer_gate_);
    std::unique_lock<std::shared_mutex> lock(mu_);
    write_wait_tenth_us_.fetch_add(ToTenthUs(wait.ElapsedMicros()),
                                   std::memory_order_relaxed);
    WallTimer apply;
    const bool changed = mutate(backend_);
    update_batches_.fetch_add(1, std::memory_order_relaxed);
    if (changed) {
      VersionVector stamp = backend_.Version();
      version_.store(stamp.sum(), std::memory_order_release);
      invalidations_.fetch_add(cache_.Invalidate(stamp),
                               std::memory_order_relaxed);
      std::lock_guard<std::mutex> published(stamp_mu_);
      stamp_ = std::move(stamp);
    }
    write_apply_tenth_us_.fetch_add(ToTenthUs(apply.ElapsedMicros()),
                                    std::memory_order_relaxed);
  }

  // Completion, hit/miss and latency accounting of one admitted read.
  void RecordRead(const Served& served, bool write_burst) {
    read_wait_tenth_us_.fetch_add(ToTenthUs(served.wait_us),
                                  std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
    switch (served.result.completeness) {
      case StopReason::kNone:
        complete_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StopReason::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StopReason::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StopReason::kShardUnavailable:
        shard_unavailable_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (served.cache_hit) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_latency_.Record(served.serve_us);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (served.result.complete()) {
        miss_latency_.Record(served.serve_us);
      } else {
        degraded_latency_.Record(served.serve_us);
      }
    }
    if (write_burst) burst_read_latency_.Record(served.serve_us);
  }

  const ServeOptions options_;
  // Lock order is always gate THEN mu_ THEN stamp_mu_; readers never hold
  // the gate and mu_ together.
  std::mutex writer_gate_ OSQ_ACQUIRED_BEFORE(mu_);
  mutable std::shared_mutex mu_ OSQ_ACQUIRED_BEFORE(stamp_mu_);
  Backend backend_ OSQ_GUARDED_BY(mu_);
  // The stamp as of the last write, for readers that must not wait behind
  // a writer (shed responses, version accessors).
  mutable std::mutex stamp_mu_;
  VersionVector stamp_ OSQ_GUARDED_BY(stamp_mu_);
  std::atomic<uint64_t> version_;  // stamp_.sum(), lock-free
  // Internally synchronized (own mutex) — deliberately not GUARDED_BY.
  ResultCache cache_;

  // Admission gauge: queries past the shed check and not yet finished.
  std::atomic<size_t> inflight_{0};
  // Writers pending or writing: incremented before a writer queues on the
  // gate, decremented after its locks release.  Readers sample it to
  // classify themselves into the write-burst latency split.
  std::atomic<uint64_t> writers_pending_{0};

  // Counters (relaxed; see serve_stats.h for the rationale).
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> complete_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> shard_unavailable_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> update_batches_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> nodes_added_{0};
  std::atomic<uint64_t> read_wait_tenth_us_{0};
  std::atomic<uint64_t> write_wait_tenth_us_{0};
  std::atomic<uint64_t> write_apply_tenth_us_{0};
  LatencyHistogram hit_latency_;
  LatencyHistogram miss_latency_;
  LatencyHistogram degraded_latency_;
  LatencyHistogram burst_read_latency_;
};

}  // namespace osq

#endif  // OSQ_SERVE_SERVING_CORE_H_
