// The verification phase — algorithm KMatch (paper §V).
//
// KMatch receives the compact subgraph G_v and the per-query-node candidate
// lists produced by Gview (each sorted by descending similarity) and
// enumerates ontology-based matches by backtracking, keeping the K best
// matches found so far in a sorted pool.  Branches whose optimistic score
// bound (current score + best possible remaining similarity) cannot beat
// the current K-th best are pruned — together with the similarity-sorted
// candidate lists this realizes the paper's "construct node lists with
// maximum overall similarity first" strategy without materializing the
// combination lattice.
//
// Candidates are generated from the neighbourhood of what is already
// matched.  The matching order keeps every prefix connected, so each
// query node after the first has an anchor: an earlier-placed query
// neighbour.  Every consistent image of the node shares a data edge with
// the anchor's image (under both semantics), so the search walks that
// image's adjacency in G_v in the query edge's direction, keeps the nodes
// that are candidates, and visits them in candidate-list order — the same
// extensions, bound cuts and matches as scanning the whole list, without
// testing the candidates that could not connect.  Only the first order
// node (and a node with no placed neighbour, possible only for a
// disconnected query given to KMatchOnGraph) scans its whole list.
//
// Matching semantics follow QueryOptions::semantics; the paper's
// definition (induced / "iff") is the default.
//
// The returned set is the EXACT top-K under the MatchBetter total order
// (score descending, then lexicographic mapping): branch pruning abandons
// only branches whose optimistic bound falls strictly below the current
// K-th score, so equal-score matches are explored and ties resolve by the
// total order, never by discovery order.  Scores are canonical — per-node
// similarities summed in query-node-id order — so the same match carries
// the same bits no matter which partition of the search found it.
//
// With QueryOptions::num_threads > 1 the search is partitioned by the
// candidates of the first order node: partition 0 runs first and seeds a
// shared top-K pool, the remaining partitions run in parallel against that
// fixed seed and commit into the lock-protected pool, and an atomic score
// threshold skips partitions whose optimistic bound falls strictly below
// the current K-th best.  Exact top-K is associative and commutative under
// merge, so the match set and scores are bit-identical for every thread
// count — and for every root partitioning, which is what the sharded
// serving tier's scatter-gather merge relies on (see DESIGN.md,
// "Parallel execution" and §13).

#ifndef OSQ_CORE_KMATCH_H_
#define OSQ_CORE_KMATCH_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "core/filtering.h"
#include "core/match.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

struct KMatchStats {
  // Backtracking search-tree nodes visited.
  size_t search_steps = 0;
  // Complete assignments that passed all checks.
  size_t matches_found = 0;
  // Consistent calls (root candidates included): the candidate tests the
  // search paid for, successful or not.  Deterministic at num_threads = 1,
  // like search_steps.
  size_t candidate_checks = 0;
  // True when max_search_steps stopped the enumeration early (any
  // partition, under parallel execution).
  bool truncated = false;
  // Non-kNone when a deadline or cancellation stopped the enumeration
  // early (any partition).  Every match returned is still fully verified;
  // only completeness of the set is lost.
  StopReason stopped = StopReason::kNone;
  // Candidates of the first order node, i.e. independently searchable
  // subtrees.
  size_t root_partitions = 0;
  // Partitions skipped by the cross-worker score threshold without being
  // searched.  Timing-dependent under num_threads > 1 (the skipped work
  // could never affect the output; see kmatch.cc), so search_steps /
  // matches_found may vary run to run even though results do not.
  size_t partitions_skipped = 0;

  // Sums the counters and merges the stop flags (the sharded tier's
  // merge, shard/sharded_query_service.cc).
  KMatchStats& operator+=(const KMatchStats& other) {
    search_steps += other.search_steps;
    matches_found += other.matches_found;
    candidate_checks += other.candidate_checks;
    truncated = truncated || other.truncated;
    stopped = MergeStopReason(stopped, other.stopped);
    root_partitions += other.root_partitions;
    partitions_skipped += other.partitions_skipped;
    return *this;
  }
};

// Enumerates the top-K matches of `query` inside the filter result
// (`filter.gv` + `filter.candidates`).  Returned matches use ORIGINAL data
// graph node ids (translated via filter.gv.to_original) and are sorted by
// MatchBetter.  With options.k == 0 all matches are returned.
//
// `id_map` (optional) maps original ids one step further, to the ids the
// caller reports: a shard passes its shard-local -> global table.  The
// top-K is exact under MatchBetter on the MAPPED ids, so matches tied at
// the k-th score are kept by the caller's order, not the data graph's.
//
// `exec` (optional) carries the query's deadline / cancellation state;
// the search polls it cooperatively (amortized over ~256 steps, see
// common/deadline.h) and, when it fires, returns the valid matches found
// so far with stats->stopped set.  A stopped result is a subset of the
// unconstrained one and therefore timing-dependent — the bit-identical
// determinism contract (DESIGN.md §7) applies only to runs that complete.
[[nodiscard]] std::vector<Match> KMatch(
    const Graph& query, const FilterResult& filter,
    const QueryOptions& options, KMatchStats* stats = nullptr,
    const ExecControl* exec = nullptr,
    const std::vector<NodeId>* id_map = nullptr);

// Lower-level entry point used by baselines and tests: matches `query`
// against `target` given explicit candidate lists (target-local ids,
// sorted by descending similarity, each node at most once per list).
// Results use target-local ids.
[[nodiscard]] std::vector<Match> KMatchOnGraph(
    const Graph& query, const Graph& target,
    const std::vector<std::vector<Candidate>>& candidates,
    const QueryOptions& options, KMatchStats* stats = nullptr,
    const ExecControl* exec = nullptr);

}  // namespace osq

#endif  // OSQ_CORE_KMATCH_H_
