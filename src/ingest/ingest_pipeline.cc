#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"

namespace osq {

namespace {

std::chrono::steady_clock::duration LingerDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

IngestPipeline::IngestPipeline(UpdateSink* sink,
                               const IngestOptions& options)
    : sink_(sink), options_(options) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

IngestPipeline::~IngestPipeline() { Stop(); }

bool IngestPipeline::Submit(const GraphUpdate& update) {
  bool accepted = false;
  {
    std::scoped_lock<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stop_) {
      ++stats_.rejected;
      return false;
    }
    if (options_.max_pending > 0 &&
        pending_.size() >= options_.max_pending) {
      ++stats_.rejected;
      return false;
    }
    TripleKey key{update.edge.from, update.edge.to, update.edge.label};
    TripleState& state = triple_states_[key];
    if (state.pending > 0 && state.last_kind == update.kind) {
      // The last pending update on this triple already puts the edge in
      // the state this one asks for — applying it would be a no-op.
      ++stats_.coalesced;
      return true;
    }
    state.last_kind = update.kind;
    ++state.pending;
    pending_.push_back(Pending{update, Clock::now()});
    ++accepted_seq_;
    ++stats_.accepted;
    stats_.backlog = pending_.size();
    accepted = true;
  }
  if (accepted) worker_cv_.notify_one();
  return accepted;
}

size_t IngestPipeline::SubmitAll(const std::vector<GraphUpdate>& updates) {
  size_t taken = 0;
  for (const GraphUpdate& update : updates) {
    if (!Submit(update)) break;
    ++taken;
  }
  return taken;
}

void IngestPipeline::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = accepted_seq_;
  flush_target_ = std::max(flush_target_, target);
  worker_cv_.notify_one();
  retired_cv_.wait(lock, [&] { return retired_seq_ >= target; });
}

void IngestPipeline::Stop() {
  // The worker drains the whole queue before exiting on stop_, so Stop()
  // implies Flush().  Claiming the thread handle under the lock makes
  // Stop() idempotent and safe against concurrent callers.
  std::thread claimed;
  {
    std::scoped_lock<std::mutex> lock(mu_);
    stop_ = true;
    if (worker_.joinable()) claimed = std::move(worker_);
  }
  worker_cv_.notify_one();
  if (claimed.joinable()) claimed.join();
}

void IngestPipeline::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<GraphUpdate> batch;
  for (;;) {
    worker_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Linger: give the batch a chance to fill, but never hold an update
    // past max_linger_ms from the oldest pending accept — and skip the
    // wait entirely when a Flush/Stop wants the queue drained now.
    const Clock::time_point cut_by =
        pending_.front().accepted_at + LingerDuration(options_.max_linger_ms);
    while (!stop_ && retired_seq_ >= flush_target_ &&
           pending_.size() < options_.max_batch) {
      if (worker_cv_.wait_until(lock, cut_by) == std::cv_status::timeout) {
        break;
      }
      if (pending_.empty()) break;  // spurious wake after a drain
    }
    if (pending_.empty()) continue;

    batch.clear();
    const Clock::time_point oldest = pending_.front().accepted_at;
    while (!pending_.empty() && batch.size() < options_.max_batch) {
      const Pending& front = pending_.front();
      batch.push_back(front.update);
      TripleKey key{front.update.edge.from, front.update.edge.to,
                    front.update.edge.label};
      auto it = triple_states_.find(key);
      if (it != triple_states_.end() && --it->second.pending == 0) {
        triple_states_.erase(it);
      }
      pending_.pop_front();
    }
    stats_.backlog = pending_.size();

    // Apply outside the queue lock: the sink's own snapshot lock is the
    // expensive wait, and producers must be able to keep queueing (and
    // hitting backpressure honestly) while maintenance runs.
    lock.unlock();
    WallTimer apply_timer;
    MaintenanceStats applied = sink_->ApplyBatch(batch);
    const double apply_ms = apply_timer.ElapsedMillis();
    const double lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - oldest)
            .count();
    lock.lock();

    ++stats_.batches;
    stats_.applied += applied.applied;
    stats_.skipped += applied.skipped;
    stats_.apply_ms += apply_ms;
    stats_.applied_lag_ms = lag_ms;
    stats_.max_applied_lag_ms = std::max(stats_.max_applied_lag_ms, lag_ms);
    retired_seq_ += batch.size();
    retired_cv_.notify_all();
  }
}

IngestStats IngestPipeline::Stats() const {
  std::scoped_lock<std::mutex> lock(mu_);
  return stats_;
}

std::string IngestStats::ToString() const {
  std::string out;
  char line[220];
  std::snprintf(line, sizeof(line),
                "ingest: %llu submitted (%llu accepted, %llu coalesced, "
                "%llu rejected), backlog %llu\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(coalesced),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(backlog));
  out.append(line);
  std::snprintf(line, sizeof(line),
                "apply: %llu batches (%llu applied, %llu skipped), "
                "%.2fms in sink, %.2f updates/cut\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(applied),
                static_cast<unsigned long long>(skipped), apply_ms,
                coalescing_ratio());
  out.append(line);
  std::snprintf(line, sizeof(line),
                "staleness: applied lag %.2fms (max %.2fms)\n",
                applied_lag_ms, max_applied_lag_ms);
  out.append(line);
  return out;
}

}  // namespace osq
