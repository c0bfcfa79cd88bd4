#include "serve/result_cache.h"

#include <cinttypes>
#include <cstdio>

namespace osq {

std::string QuerySignature(const Graph& query, const QueryOptions& options) {
  std::string sig;
  sig.reserve(32 + 8 * query.num_nodes() + 16 * query.num_edges());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n%zu|", query.num_nodes());
  sig.append(buf);
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    std::snprintf(buf, sizeof(buf), "%u,", query.NodeLabel(u));
    sig.append(buf);
  }
  sig.append("|");
  // Edges() iterates in (from, to, label) order, so structurally equal
  // graphs serialize identically no matter the insertion order.
  for (const EdgeTriple& e : query.Edges()) {
    std::snprintf(buf, sizeof(buf), "%u>%u:%u;", e.from, e.to, e.label);
    sig.append(buf);
  }
  // %.17g round-trips doubles exactly.
  std::snprintf(buf, sizeof(buf), "|t%.17g|k%zu|s%d|m%zu", options.theta,
                options.k, static_cast<int>(options.semantics),
                options.max_search_steps);
  sig.append(buf);
  return sig;
}

bool ResultCache::Lookup(const std::string& key, const VersionVector& version,
                         QueryResult* out) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  if (it->second->version != version) {
    lru_.erase(it->second);
    by_key_.erase(it);
    ++stale_drops_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
  *out = it->second->result;
  return true;
}

void ResultCache::Insert(const std::string& key, const VersionVector& version,
                         const QueryResult& result) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    it->second->version = version;
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, version, result});
  by_key_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

size_t ResultCache::Invalidate(const VersionVector& current) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->version != current) {
      by_key_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t ResultCache::stale_drops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_drops_;
}

}  // namespace osq
