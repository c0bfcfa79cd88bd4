// Fixed-size thread pool and data-parallel loop helper.
//
// The engine parallelizes three pipelines — index construction across
// nodes (and across the paper's concept graphs), Gview filtering across
// query nodes, and KMatch verification across first-order-node candidates.  All of them are
// expressed as ParallelFor over an index range; the pool exists so query
// evaluation never pays thread start-up cost on the hot path.
//
// Concurrency contract:
//   * ParallelFor(num_threads, n, fn) runs fn(0) .. fn(n-1) exactly once
//     each, on the calling thread plus at most num_threads - 1 workers of
//     the shared process-wide pool.  num_threads <= 1 (or n <= 1) runs
//     inline with zero synchronization, so the default QueryOptions /
//     IndexOptions (num_threads = 1) are bit-for-bit the sequential code.
//   * The call returns only after every fn invocation finished.  The first
//     exception thrown by any fn is rethrown on the calling thread (the
//     remaining indices are still drained, so the pool stays consistent).
//   * Calls from inside a pool worker run inline (no nested fan-out); this
//     makes nested parallelism deadlock-free by construction.
//
// Every call site is responsible for determinism: fn(i) may only write
// state owned by index i, and reductions must merge per-index results in
// index order.

#ifndef OSQ_COMMON_THREAD_POOL_H_
#define OSQ_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace osq {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (0 is allowed; ParallelFor then runs
  // everything on the caller).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, n), using at most `max_workers` threads
  // in total (callers included).  See the file comment for the contract.
  void ParallelFor(size_t max_workers, size_t n,
                   const std::function<void(size_t)>& fn);

  // Process-wide pool with hardware_concurrency() - 1 workers, created on
  // first use.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();
  void Submit(std::function<void()> task) OSQ_EXCLUDES(mu_);

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_ OSQ_GUARDED_BY(mu_);
  bool stopping_ OSQ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // immutable after construction
};

// Resolves an options num_threads field: 0 means "all hardware threads",
// any other value is taken literally.
size_t ResolveNumThreads(size_t requested);

// Convenience wrapper over ThreadPool::Shared().ParallelFor.
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

// Spawns `n` dedicated threads running fn(0) .. fn(n-1) concurrently and
// joins them all; the first exception thrown by any fn is rethrown on the
// caller after every thread finished.  Unlike ParallelFor — work-sharing
// of short data-parallel shards on the process-wide pool — this gives
// every fn its own thread for its whole lifetime, which is what
// long-running concurrent actors need: closed-loop load generators and
// the reader/writer threads of the serving stress tests.  n == 0 is a
// no-op; n == 1 still spawns (the actor may block indefinitely).
void RunConcurrently(size_t n, const std::function<void(size_t)>& fn);

}  // namespace osq

#endif  // OSQ_COMMON_THREAD_POOL_H_
