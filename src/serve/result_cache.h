// Versioned LRU cache of full QueryResults, keyed by a canonical query
// signature (serve/result_cache.h:QuerySignature).
//
// Invalidation correctness is version-based: every entry is stamped with
// the snapshot version vector it was computed at, and Lookup() only
// returns an entry whose stamp equals the caller's current vector — so
// even if the eager Invalidate() pass after an update were skipped or
// raced, a stale result could never be served (the stamp check is the
// proof obligation; eager invalidation is just cleanup that frees
// capacity sooner).  See DESIGN.md §8.
//
// The stamp is a VersionVector, one monotone component per independently
// versioned snapshot source.  A single-engine QueryService uses a
// one-component vector (VersionVector::Scalar); the sharded serving tier
// stamps one component per shard, so an entry computed before ANY single
// shard advanced is recognized as stale — a scalar max or sum could alias
// distinct cuts (DESIGN.md §13).
//
// The cache is internally synchronized with a single mutex; entries are
// full QueryResult copies, so a returned result is immune to later
// evictions.

#ifndef OSQ_SERVE_RESULT_CACHE_H_
#define OSQ_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "graph/graph.h"

namespace osq {

// Canonical cache key: a deterministic serialization of the query graph
// (node labels in id order + the sorted edge-triple list) concatenated
// with every QueryOptions field that can influence the QueryResult —
// theta, k, semantics, lazy_candidates, use_candidate_index,
// max_search_steps.  num_threads is
// deliberately excluded: results are thread-count invariant by contract
// (DESIGN.md §7), so a result computed at any thread count answers all of
// them.  Structurally identical queries hash equal regardless of how the
// caller built them; isomorphic-but-reordered queries are treated as
// distinct (full canonicalization would cost a graph-isomorphism test per
// request).
std::string QuerySignature(const Graph& query, const QueryOptions& options);

// Snapshot stamp: one monotone version counter per independently advancing
// snapshot source.  Equality is component-wise; because every component is
// monotone, stamp != current implies the entry can never become valid
// again.  Comparing vectors of different lengths is a caller bug (the
// shard count of a service is fixed at construction) and simply compares
// unequal.
struct VersionVector {
  std::vector<uint64_t> v;

  // One-component vector for single-engine services.
  static VersionVector Scalar(uint64_t version) {
    return VersionVector{{version}};
  }

  // Total of the components: the scalar a one-engine stamp carries, or
  // the applied batches summed over shards.
  uint64_t sum() const {
    uint64_t total = 0;
    for (uint64_t component : v) total += component;
    return total;
  }

  friend bool operator==(const VersionVector& a, const VersionVector& b) {
    return a.v == b.v;
  }
  friend bool operator!=(const VersionVector& a, const VersionVector& b) {
    return !(a == b);
  }
};

class ResultCache {
 public:
  // capacity == 0 disables the cache (Lookup always misses, Insert drops).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Copies the entry for `key` into *out and returns true when present
  // and stamped with exactly `version`.  An entry found with any other
  // stamp is dropped on the spot (it can never become valid again —
  // every component is monotone).
  bool Lookup(const std::string& key, const VersionVector& version,
              QueryResult* out);

  // Inserts (or refreshes) `key` -> (`version`, `result`), evicting the
  // least-recently-used entry when over capacity.
  void Insert(const std::string& key, const VersionVector& version,
              const QueryResult& result);

  // Drops every entry whose stamp differs from the writer's `current`
  // vector in any component; returns the number dropped.  Called by the
  // writer after a mutation, under the exclusive snapshot lock.
  size_t Invalidate(const VersionVector& current);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const;
  // Stale entries dropped lazily at Lookup time (version-stamp mismatch);
  // the serving layer folds these into its invalidation counter so eager
  // sweeps and lazy drops are reported uniformly.
  uint64_t stale_drops() const;

 private:
  struct Entry {
    std::string key;
    VersionVector version;
    QueryResult result;
  };

  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<Entry> lru_ OSQ_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> by_key_
      OSQ_GUARDED_BY(mu_);
  size_t capacity_;  // immutable after construction
  uint64_t evictions_ OSQ_GUARDED_BY(mu_) = 0;
  uint64_t stale_drops_ OSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace osq

#endif  // OSQ_SERVE_RESULT_CACHE_H_
