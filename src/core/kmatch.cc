#include "core/kmatch.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>

#include "common/check.h"
#include "common/scratch_slots.h"
#include "common/thread_pool.h"

namespace osq {

namespace {

// Slack applied when comparing optimistic score bounds against the current
// K-th best.  A branch is abandoned only when its bound falls below the
// K-th score by MORE than this, so (a) equal-score matches are always
// explored and the pool is the exact top-K under the MatchBetter total
// order, and (b) the last-bit jitter between the running depth-order score
// sum used for bounds and the canonical node-id-order sum recorded on
// matches (floating-point addition is not associative) can never prune a
// match that belongs in the answer.
constexpr double kScoreEps = 1e-12;

// Label-run comparisons over the allocation-free adjacency views.  Labels
// within one (from, to) run are strictly ascending (the graph rejects
// duplicate edges), so both are linear scans.
bool LabelsEqual(Graph::EdgeLabelView a, Graph::EdgeLabelView b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.first[i].label != b.first[i].label) return false;
  }
  return true;
}

bool LabelsInclude(Graph::EdgeLabelView sup, Graph::EdgeLabelView sub) {
  const AdjEntry* s = sup.begin();
  for (const AdjEntry& e : sub) {
    while (s != sup.end() && s->label < e.label) ++s;
    if (s == sup.end() || s->label != e.label) return false;
    ++s;
  }
  return true;
}

// The query neighbour whose image generates a depth's candidates: order
// node `node` was placed earlier, and the query edge runs node -> order[d]
// when `out` is true, order[d] -> node otherwise.  `node == kInvalidNode`
// (depth 0, or a query node with no placed neighbour) scans the whole
// candidate list.
struct Anchor {
  NodeId node = kInvalidNode;
  bool out = true;
};

// Read-only state shared by every root-partition search of one query:
// the matching order, its optimistic suffix bounds, the per-depth anchors
// and candidate space, and the inputs.  `exec` (possibly null) is
// the query's shared deadline / cancellation block; each worker polls it
// through its own CancelCheck.  `ids` (possibly null = identity) maps
// target nodes to the ids matches report; the pool orders ties by those
// ids, so the top-K is exact in the caller's id space rather than the
// target's.
struct SearchContext {
  const Graph& query;
  const Graph& target;
  const std::vector<std::vector<Candidate>>& candidates;
  const QueryOptions& options;
  const ExecControl* exec;
  const std::vector<NodeId>* ids;
  std::vector<NodeId> order;
  std::vector<double> suffix_best;
  std::vector<Anchor> anchors;  // indexed by depth
  // The candidate space: at a depth d with an anchor p, row i lists the
  // candidates of order[d] adjacent to candidates[p][i] along the anchor
  // edge, as ascending ranks into candidates[order[d]]:
  // ranks[offsets[row_base[d] + i] .. offsets[row_base[d] + i + 1]).
  std::vector<size_t> row_base;  // indexed by depth
  std::vector<size_t> offsets;
  std::vector<uint32_t> ranks;

  NodeId Reported(NodeId v) const { return ids == nullptr ? v : (*ids)[v]; }
};

// Query-node matching order: start at the node with the fewest candidates,
// then greedily extend by (most assigned neighbors, fewest candidates) so
// partial assignments stay connected and constrained.  Assigned-neighbor
// counts are maintained incrementally when a node is placed instead of
// being recounted from the adjacency every iteration.
void BuildOrder(SearchContext* ctx) {
  const Graph& query = ctx->query;
  size_t nq = query.num_nodes();
  std::vector<bool> placed(nq, false);
  // conn[u] = number of edges (counted per label, both directions) between
  // u and already-placed nodes; matches the old recount semantics exactly.
  std::vector<size_t> conn(nq, 0);
  ctx->order.clear();
  ctx->order.reserve(nq);
  auto cand_size = [&](NodeId u) { return ctx->candidates[u].size(); };
  auto place = [&](NodeId u) {
    ctx->order.push_back(u);
    placed[u] = true;
    for (const AdjEntry& e : query.OutEdges(u)) ++conn[e.node];
    for (const AdjEntry& e : query.InEdges(u)) ++conn[e.node];
  };
  NodeId first = 0;
  for (NodeId u = 1; u < nq; ++u) {
    if (cand_size(u) < cand_size(first)) first = u;
  }
  place(first);
  while (ctx->order.size() < nq) {
    NodeId best = kInvalidNode;
    for (NodeId u = 0; u < nq; ++u) {
      if (placed[u]) continue;
      if (best == kInvalidNode || conn[u] > conn[best] ||
          (conn[u] == conn[best] && cand_size(u) < cand_size(best))) {
        best = u;
      }
    }
    place(best);
  }
}

// suffix_best[i] = maximum total similarity attainable by query nodes
// order[i..]; candidates are sorted by descending sim, so entry 0 is each
// node's optimum.
void BuildSuffixBounds(SearchContext* ctx) {
  size_t nq = ctx->order.size();
  ctx->suffix_best.assign(nq + 1, 0.0);
  for (size_t i = nq; i > 0; --i) {
    ctx->suffix_best[i - 1] =
        ctx->suffix_best[i] + ctx->candidates[ctx->order[i - 1]][0].sim;
  }
}

// Per-depth anchors and the candidate space.  Every order prefix is
// connected (BuildOrder), so a weakly connected query has an anchor at
// every depth > 0: the earliest-placed query neighbour of order[d].
// Under both semantics a candidate that passes Consistent shares a data
// edge with the anchor's image in the query edge's direction, so the row
// of that image holds every successful extension, in candidate-list
// (descending-sim) order.  Built once per query on the calling thread,
// one ScratchSlots lease per depth: inserting the depth's candidate list
// in order makes each slot its rank.
void BuildCandidateSpace(SearchContext* ctx) {
  const Graph& query = ctx->query;
  const Graph& target = ctx->target;
  size_t nq = query.num_nodes();
  ctx->anchors.assign(nq, Anchor{});
  ctx->row_base.assign(nq, 0);
  for (size_t d = 1; d < nq; ++d) {
    NodeId q = ctx->order[d];
    Anchor& anchor = ctx->anchors[d];
    for (size_t i = 0; i < d && anchor.node == kInvalidNode; ++i) {
      NodeId p = ctx->order[i];
      if (!query.EdgeLabelRange(p, q).empty()) {
        anchor = Anchor{p, true};
      } else if (!query.EdgeLabelRange(q, p).empty()) {
        anchor = Anchor{p, false};
      }
    }
    if (anchor.node == kInvalidNode) continue;
    ScratchSlots slots(target.num_nodes());
    for (const Candidate& c : ctx->candidates[q]) slots.Insert(c.node);
    ctx->row_base[d] = ctx->offsets.size();
    ctx->offsets.push_back(ctx->ranks.size());
    for (const Candidate& c : ctx->candidates[anchor.node]) {
      size_t begin = ctx->ranks.size();
      // Parallel labelled edges repeat a neighbour in the sorted
      // adjacency; it is taken once.
      NodeId prev = kInvalidNode;
      for (const AdjEntry& e : anchor.out ? target.OutEdges(c.node)
                                          : target.InEdges(c.node)) {
        if (e.node == prev) continue;
        prev = e.node;
        uint32_t r = slots.Find(e.node);
        if (r != ScratchSlots::kNone) ctx->ranks.push_back(r);
      }
      // Ranks follow the adjacency's id order, which is rank order unless
      // the candidates' similarities differ.
      auto row = ctx->ranks.begin() + static_cast<std::ptrdiff_t>(begin);
      if (!std::is_sorted(row, ctx->ranks.end())) {
        std::sort(row, ctx->ranks.end());
      }
      ctx->offsets.push_back(ctx->ranks.size());
    }
  }
}

// Backtracking searcher for the subtrees rooted at single candidates of
// the first order node.  One instance per worker thread; its buffers
// (assign_, assign_sim_, assign_rank_, record_, pool_) are sized by the
// query, allocated once and reused across every root the worker
// processes, so the hot path allocates only for matches that enter the
// pool.
class Searcher {
 public:
  explicit Searcher(const SearchContext& ctx)
      : ctx_(ctx), check_(ctx.exec) {
    assign_.assign(ctx_.query.num_nodes(), kInvalidNode);
    assign_sim_.assign(ctx_.query.num_nodes(), 0.0);
    assign_rank_.assign(ctx_.query.num_nodes(), 0);
  }

  // Explores the subtree that maps order[0] to root candidate `root`.
  // `seed` primes the pruning pool (matches already found by the first
  // partition); it must not contain matches from this subtree.  Results
  // are left in pool() — seed entries plus this subtree's finds, sorted by
  // MatchBetter and trimmed to K (k == 0 keeps everything unsorted).
  void SearchRoot(size_t root, const std::vector<Match>& seed) {
    pool_ = seed;
    steps_ = 0;
    found_ = 0;
    checks_ = 0;
    truncated_ = false;

    const Candidate& c = ctx_.candidates[ctx_.order[0]][root];
    ++steps_;
    double bound = c.sim + ctx_.suffix_best[1];
    if (HaveK() && bound < Threshold() - kScoreEps) return;
    NodeId q = ctx_.order[0];
    ++checks_;
    if (!Consistent(q, c.node, 0)) return;
    assign_[q] = c.node;
    assign_sim_[q] = c.sim;
    assign_rank_[q] = static_cast<uint32_t>(root);
    Recurse(1, c.sim);
  }

  // Immediate deadline/cancel poll, used between root partitions.  Once a
  // stop latches, SearchRoot degenerates to a no-op, so callers should
  // stop handing out roots.
  bool PollStop() { return check_.StopNow(); }
  StopReason stop_reason() const { return check_.reason(); }

  const std::vector<Match>& pool() const { return pool_; }
  size_t steps() const { return steps_; }
  size_t found() const { return found_; }
  size_t checks() const { return checks_; }
  bool truncated() const { return truncated_; }

  // Moves the pool entries this subtree discovered (those mapping order[0]
  // to target node `root_node`) into `out`, preserving pool order.
  void ExtractOwn(NodeId root_node, std::vector<Match>* out) {
    NodeId first = ctx_.order[0];
    NodeId reported = ctx_.Reported(root_node);
    for (Match& m : pool_) {
      if (m.mapping[first] == reported) out->push_back(std::move(m));
    }
  }

 private:
  // Edge-compatibility of mapping q -> v against every already-assigned
  // query node, under the configured semantics.  Allocation-free: compares
  // label runs directly inside the sorted adjacency vectors.
  bool Consistent(NodeId q, NodeId v, size_t depth) const {
    const Graph& query = ctx_.query;
    const Graph& target = ctx_.target;
    bool induced = ctx_.options.semantics == MatchSemantics::kInduced;
    for (size_t i = 0; i < depth; ++i) {
      NodeId q2 = ctx_.order[i];
      NodeId v2 = assign_[q2];
      Graph::EdgeLabelView q_fwd = query.EdgeLabelRange(q, q2);
      Graph::EdgeLabelView d_fwd = target.EdgeLabelRange(v, v2);
      Graph::EdgeLabelView q_bwd = query.EdgeLabelRange(q2, q);
      Graph::EdgeLabelView d_bwd = target.EdgeLabelRange(v2, v);
      if (induced) {
        if (!LabelsEqual(q_fwd, d_fwd) || !LabelsEqual(q_bwd, d_bwd)) {
          return false;
        }
      } else if (!LabelsInclude(d_fwd, q_fwd) ||
                 !LabelsInclude(d_bwd, q_bwd)) {
        return false;
      }
    }
    // Self-loops must agree as well.
    Graph::EdgeLabelView q_self = query.EdgeLabelRange(q, q);
    Graph::EdgeLabelView d_self = target.EdgeLabelRange(v, v);
    return induced ? LabelsEqual(q_self, d_self)
                   : LabelsInclude(d_self, q_self);
  }

  bool HaveK() const {
    return ctx_.options.k > 0 && pool_.size() == ctx_.options.k;
  }

  double Threshold() const { return pool_.back().score; }

  // Builds the complete match in record_ and copies it into the pool only
  // when it enters: k == 0, a pool short of K, or a match that beats the
  // current K-th under MatchBetter.  A full pool recycles the evicted
  // K-th's mapping as the next record_ buffer.
  void Record() {
    ++found_;
    size_t nq = ctx_.query.num_nodes();
    record_.mapping.resize(nq);
    for (NodeId u = 0; u < nq; ++u) {
      record_.mapping[u] = ctx_.Reported(assign_[u]);
    }
    // Canonical score: per-node similarities summed in query-node-id order,
    // NOT in matching order.  The matching order depends on candidate-list
    // sizes, which differ between thread/shard partitionings of the same
    // search — summing in a fixed order keeps equal matches bit-identical
    // no matter which partition discovered them, so merged top-K pools
    // agree to the last bit.
    double score = 0.0;
    for (NodeId u = 0; u < nq; ++u) {
      score += assign_sim_[u];
    }
    record_.score = score;
    if (ctx_.options.k == 0) {
      // Enumerating everything: append now, sort once at the end.
      pool_.push_back(record_);
      return;
    }
    Match evicted;
    if (pool_.size() == ctx_.options.k) {
      if (!MatchBetter()(record_, pool_.back())) return;
      evicted = std::move(pool_.back());
      pool_.pop_back();
    }
    auto pos =
        std::upper_bound(pool_.begin(), pool_.end(), record_, MatchBetter());
    pool_.insert(pos, std::move(record_));
    record_ = std::move(evicted);
  }

  void Recurse(size_t depth, double score) {
    if (truncated_) return;
    ++steps_;
    // Cooperative deadline/cancel poll: one decrement + branch per step,
    // the clock/token are consulted only every CancelCheck stride.  On
    // stop the recursion unwinds like truncation — matches already in
    // pool_ were fully verified and stay.
    if (check_.Stop()) return;
    if (ctx_.options.max_search_steps > 0 &&
        steps_ > ctx_.options.max_search_steps) {
      truncated_ = true;
      return;
    }
    if (depth == ctx_.order.size()) {
      Record();
      return;
    }
    NodeId q = ctx_.order[depth];
    const Anchor& anchor = ctx_.anchors[depth];
    if (anchor.node == kInvalidNode) {
      size_t n = ctx_.candidates[q].size();
      for (uint32_t r = 0; r < n; ++r) {
        if (!Extend(depth, score, q, r)) return;
      }
      return;
    }
    // The anchor image's row of the candidate space: the same candidates
    // in the same order as the full list, minus those Consistent would
    // reject for lack of the anchor edge.
    const size_t* row = ctx_.offsets.data() + ctx_.row_base[depth] +
                        assign_rank_[anchor.node];
    for (size_t i = row[0]; i < row[1]; ++i) {
      if (!Extend(depth, score, q, ctx_.ranks[i])) return;
    }
  }

  // True when v is already the image of an earlier order node (matches
  // are injective under both semantics).
  bool Assigned(NodeId v, size_t depth) const {
    for (size_t i = 0; i < depth; ++i) {
      if (assign_[ctx_.order[i]] == v) return true;
    }
    return false;
  }

  // Tries order[depth] = q -> candidates[q][rank] and searches below it.
  // Returns false when the caller's candidate loop must end: the bound
  // check failed (candidates come in descending sim, so every later bound
  // is worse), or the search was truncated or stopped.
  bool Extend(size_t depth, double score, NodeId q, uint32_t rank) {
    const Candidate& c = ctx_.candidates[q][rank];
    double bound = score + c.sim + ctx_.suffix_best[depth + 1];
    // Once K matches are held, a branch is abandoned only when its
    // optimistic bound falls strictly below the current K-th score (minus
    // the eps slack): branches that can merely TIE the K-th are still
    // explored, so the pool is the exact top-K under the MatchBetter total
    // order — ties resolve by lexicographic mapping, never by discovery
    // order.  That exactness is what lets per-root results merge
    // associatively across thread and shard partitionings (DESIGN.md §13).
    if (HaveK() && bound < Threshold() - kScoreEps) return false;
    if (Assigned(c.node, depth)) return true;
    ++checks_;
    if (!Consistent(q, c.node, depth)) return true;
    assign_[q] = c.node;
    assign_sim_[q] = c.sim;
    assign_rank_[q] = rank;
    Recurse(depth + 1, score + c.sim);
    return !truncated_ && check_.reason() == StopReason::kNone;
  }

  const SearchContext& ctx_;
  CancelCheck check_;
  std::vector<NodeId> assign_;
  // Similarity of each query node's current assignment; read only at full
  // depth (Record), where every entry is live.
  std::vector<double> assign_sim_;
  // Rank of each query node's current assignment in its candidate list:
  // the candidate-space row its image anchors.
  std::vector<uint32_t> assign_rank_;
  Match record_;             // the complete match Record is judging
  std::vector<Match> pool_;  // kept sorted by MatchBetter when k > 0
  size_t steps_ = 0;
  size_t found_ = 0;
  size_t checks_ = 0;
  bool truncated_ = false;
};

// Merges `own` (sorted by MatchBetter) into `best` (likewise sorted),
// trimming to K.  Mappings from different root partitions are distinct, so
// no dedup is needed.  TopK-by-total-order is associative and commutative,
// which is what makes the final pool independent of commit order.
void MergeTopK(std::vector<Match>* best, std::vector<Match>&& own, size_t k) {
  size_t mid = best->size();
  best->insert(best->end(), std::make_move_iterator(own.begin()),
               std::make_move_iterator(own.end()));
  std::inplace_merge(best->begin(), best->begin() + mid, best->end(),
                     MatchBetter());
  if (k > 0 && best->size() > k) best->resize(k);
}

// KMatchOnGraph with matches reported through `ids` (see SearchContext).
std::vector<Match> SearchTopK(
    const Graph& query, const Graph& target,
    const std::vector<std::vector<Candidate>>& candidates,
    const QueryOptions& options, KMatchStats* stats, const ExecControl* exec,
    const std::vector<NodeId>* ids) {
  if (stats != nullptr) {
    *stats = KMatchStats();
  }
  if (query.empty()) return {};
  size_t nq = query.num_nodes();
  OSQ_CHECK(candidates.size() == nq);
  for (NodeId u = 0; u < nq; ++u) {
    if (candidates[u].empty()) return {};
  }

  SearchContext ctx{query, target, candidates, options, exec, ids,
                    {}, {}, {}, {}, {}, {}};
  BuildOrder(&ctx);
  BuildSuffixBounds(&ctx);
  BuildCandidateSpace(&ctx);
  const std::vector<Candidate>& roots = candidates[ctx.order[0]];
  size_t num_roots = roots.size();

  std::atomic<size_t> total_steps{0};
  std::atomic<size_t> total_found{0};
  std::atomic<size_t> total_checks{0};
  std::atomic<bool> any_truncated{false};
  std::atomic<size_t> skipped{0};
  // Highest-precedence stop reason observed by any worker (monotone
  // CAS-max; kCancelled > kDeadlineExceeded > kNone).
  std::atomic<uint8_t> stop_reason{0};
  auto merge_stop = [&stop_reason](StopReason r) {
    uint8_t v = static_cast<uint8_t>(r);
    uint8_t cur = stop_reason.load(std::memory_order_relaxed);
    while (v > cur && !stop_reason.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  };

  // Root partition 0 runs first on the calling thread; its pool seeds the
  // pruning threshold of every other partition.  The seed is the ONLY
  // cross-partition state a subtree search reads, and it is computed
  // deterministically, so each partition's result is a pure function of
  // the query — independent of thread count and scheduling.
  Searcher first_searcher(ctx);
  first_searcher.SearchRoot(0, {});
  total_steps += first_searcher.steps();
  total_found += first_searcher.found();
  total_checks += first_searcher.checks();
  if (first_searcher.truncated()) any_truncated = true;
  merge_stop(first_searcher.stop_reason());

  std::vector<Match> best;
  first_searcher.ExtractOwn(roots[0].node, &best);
  std::vector<Match> seed;
  if (options.k > 0) seed = best;  // already sorted, size <= k

  // Shared top-K pool (lock-protected) and an atomic score threshold for
  // cross-worker pruning.  The threshold is applied STRICTLY (bound must
  // fall below it by more than kScoreEps) so a skip can only discard
  // matches that score strictly below the final K-th best — under the
  // MatchBetter total order those never appear in the output, which keeps
  // the result bit-identical for every thread count even though the set
  // of skipped partitions is timing-dependent.
  std::mutex best_mu;
  constexpr double kNoThreshold = -std::numeric_limits<double>::infinity();
  std::atomic<double> threshold{kNoThreshold};
  if (options.k > 0 && best.size() == options.k) {
    threshold.store(best.back().score, std::memory_order_relaxed);
  }

  if (num_roots > 1) {
    size_t threads = ResolveNumThreads(options.num_threads);
    size_t workers = std::min(threads, num_roots - 1);
    std::atomic<size_t> next_root{1};
    ParallelFor(threads, workers, [&](size_t) {
      Searcher searcher(ctx);
      std::vector<Match> own;
      for (size_t i = next_root.fetch_add(1); i < num_roots;
           i = next_root.fetch_add(1)) {
        // A latched stop (this worker's or a sibling's, visible through
        // the shared ExecControl) ends root hand-out: remaining
        // partitions are abandoned, not searched.
        if (searcher.PollStop()) break;
        if (options.k > 0) {
          double bound = roots[i].sim + ctx.suffix_best[1];
          if (bound < threshold.load(std::memory_order_relaxed) - kScoreEps) {
            ++skipped;
            continue;
          }
        }
        searcher.SearchRoot(i, seed);
        total_steps += searcher.steps();
        total_found += searcher.found();
        total_checks += searcher.checks();
        if (searcher.truncated()) any_truncated = true;
        own.clear();
        searcher.ExtractOwn(roots[i].node, &own);
        if (own.empty()) continue;
        if (options.k == 0) {
          std::lock_guard<std::mutex> lock(best_mu);
          best.insert(best.end(), std::make_move_iterator(own.begin()),
                      std::make_move_iterator(own.end()));
        } else {
          std::lock_guard<std::mutex> lock(best_mu);
          MergeTopK(&best, std::move(own), options.k);
          if (best.size() == options.k) {
            // Monotone under the lock: merges only ever raise the K-th.
            threshold.store(best.back().score, std::memory_order_relaxed);
          }
        }
      }
      merge_stop(searcher.stop_reason());
    });
  }

  if (options.k == 0) {
    std::sort(best.begin(), best.end(), MatchBetter());
  }
  if (stats != nullptr) {
    stats->search_steps = total_steps.load();
    stats->matches_found = total_found.load();
    stats->candidate_checks = total_checks.load();
    stats->truncated = any_truncated.load();
    stats->stopped = static_cast<StopReason>(stop_reason.load());
    stats->root_partitions = num_roots;
    stats->partitions_skipped = skipped.load();
  }
  return best;
}

}  // namespace

std::vector<Match> KMatchOnGraph(
    const Graph& query, const Graph& target,
    const std::vector<std::vector<Candidate>>& candidates,
    const QueryOptions& options, KMatchStats* stats,
    const ExecControl* exec) {
  return SearchTopK(query, target, candidates, options, stats, exec, nullptr);
}

std::vector<Match> KMatch(const Graph& query, const FilterResult& filter,
                          const QueryOptions& options, KMatchStats* stats,
                          const ExecControl* exec,
                          const std::vector<NodeId>* id_map) {
  if (stats != nullptr) {
    *stats = KMatchStats();
  }
  if (filter.no_match) return {};
  return SearchTopK(query, *filter.graph, filter.candidates, options, stats,
                    exec, id_map);
}

}  // namespace osq
