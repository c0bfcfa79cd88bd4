// The filtering phase of the framework — algorithm Gview (paper §IV-B).
//
// Instead of matching the query against the whole data graph, Gview uses
// the ontology index to extract a small subgraph G_v that provably contains
// every match (Prop. 4.2): if G_v is empty then Q(G) is empty, otherwise
// Q(G) = Q(G_v).
//
// The paper's Gview refines candidate *blocks* of every concept graph in
// the index, intersects their members across graphs, and then refines the
// surviving data nodes.  This Gview runs only that last, node-level stage,
// seeded from the data itself:
//   1. Candidates, from the neighbourhood-signature index
//      (core/candidate_index.h).  ONE query node — the one with the
//      shortest per-label node lists — is seeded from those lists (the
//      nodes carrying a theta-passing label, minus those whose signature
//      fails the node's incident query edges).  Every other query node is
//      formed, cheapest step first, by the cheaper of the same seeding or
//      *expansion* from an already formed neighbour across a query edge:
//      the data neighbours, along the query edge's label, of that
//      neighbour's candidates, under the same label and signature tests.
//      Expansion is lossless because a match maps the query edge to such a
//      data edge.
//   2. Fixpoint refinement: a candidate of u is dropped when some query
//      edge (u, u') has no data edge with its label into (resp. from) a
//      candidate of u'.
// The result is the greatest fixpoint among the nodes that clear theta and
// their signature test.  The block stages only ever narrowed the set this
// stage starts from, never its fixpoint, so G_v is the one the paper's
// Gview extracts (DESIGN.md §3).  G_v is materialized as the induced
// subgraph of the candidates' union, with per-query-node candidate lists
// annotated with similarities (consumed by KMatch).
//
// No stage allocates or clears anything sized by |V| per query: candidate-set membership lives in per-thread, epoch-stamped
// scratch (common/scratch_slots.h).

#ifndef OSQ_CORE_FILTERING_H_
#define OSQ_CORE_FILTERING_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "core/ontology_index.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "ontology/ontology_graph.h"
#include "ontology/similarity.h"

namespace osq {

struct FilterStats {
  // The paper's block-level counters.  Always 0: this Gview has no block
  // level (see above).  servebench's gview.initial_blocks,
  // gview.pruned_blocks and gview.sig_block_rejections read them.
  size_t initial_blocks = 0;
  size_t pruned_blocks = 0;
  size_t sig_block_rejections = 0;
  // Data-node candidates dropped by the refinement fixpoint.
  size_t pruned_nodes = 0;
  // Data-node candidates rejected up front by the precomputed neighborhood
  // signatures (core/candidate_index.h).
  size_t sig_node_rejections = 0;
  // Work counters, deterministic for a fixed index and query.  seed_visits:
  // nodes the seed stage examined — label-list entries and expansion
  // neighbours, each counted once per query node.  fixpoint_checks: support
  // tests the refinement fixpoint ran, one per (candidate, query edge end)
  // test.
  size_t seed_visits = 0;
  size_t fixpoint_checks = 0;
  // Pivot candidates dropped by a PivotRestriction (sharded serving); zero
  // for unrestricted runs.
  size_t pivot_restricted_nodes = 0;
  // Size of the extracted G_v.
  size_t gv_nodes = 0;
  size_t gv_edges = 0;
  // Non-kNone when a deadline or cancellation interrupted the filter.  An
  // interrupted refinement fixpoint leaves an over-approximation: G_v still
  // contains every true match (pruning is lossless at any prefix of the
  // fixpoint), it is just larger than the fully refined extract, so
  // downstream KMatch output stays sound.  An interrupted seed stage has
  // no sound candidate sets, so the result is no_match — a partial answer
  // flagged by this field, never a proof that Q(G) is empty.
  StopReason stopped = StopReason::kNone;

  // Sums the counters and merges the stop reasons (the sharded tier's
  // merge, shard/sharded_query_service.cc).
  FilterStats& operator+=(const FilterStats& other) {
    initial_blocks += other.initial_blocks;
    pruned_blocks += other.pruned_blocks;
    sig_block_rejections += other.sig_block_rejections;
    pruned_nodes += other.pruned_nodes;
    sig_node_rejections += other.sig_node_rejections;
    seed_visits += other.seed_visits;
    fixpoint_checks += other.fixpoint_checks;
    pivot_restricted_nodes += other.pivot_restricted_nodes;
    gv_nodes += other.gv_nodes;
    gv_edges += other.gv_edges;
    stopped = MergeStopReason(stopped, other.stopped);
    return *this;
  }
};

// One data-node candidate for a query node, with its exact similarity.
struct Candidate {
  NodeId node;  // id in G_v (see FilterResult::gv)
  double sim;   // sim(L_q(u), L(node)) >= theta
};

struct FilterResult {
  // True when the filter proved Q(G) empty; all other fields are empty.
  bool no_match = false;
  // The extracted subgraph G_v, with mappings to original node ids.
  Subgraph gv;
  // candidates[u] lists the G_v nodes that may match query node u, sorted
  // by descending similarity (ties: ascending node id).
  std::vector<std::vector<Candidate>> candidates;
  FilterStats stats;
};

// Optional pivot-seed restriction for sharded serving (shard/): candidates
// of `query_node` are limited to data nodes v with allowed[v] != 0, applied
// BEFORE the refinement fixpoint — disallowed pivot candidates are dropped
// as soon as the pivot's set is formed, so expansion starts only from
// owned nodes.  Refinement then propagates the cut to the other query
// nodes, so per-shard filtering cost scales with the shard's partition
// instead of re-deriving the full candidate sets.
//
// Soundness: for any match M with allowed M[query_node], every node of M
// survives (M[query_node] is allowed and clears theta; the fixpoint never
// prunes a node all of whose match images remain), so the restricted G_v
// contains every match whose pivot is allowed.  KMatch's exact-top-K
// contract then makes the output the true top-K of that match partition —
// the property the shard merge relies on for bit-identity.
struct PivotRestriction {
  NodeId query_node = 0;
  // Data-node id -> allowed; ids at or beyond size() are disallowed.
  const std::vector<char>* allowed = nullptr;
};

// Precomputed per-query-node label-similarity tables — the ontology-ball
// stage of Gview, which depends only on (ontology, similarity function,
// query, theta), NOT on the data graph.  Engines sharing those inputs can
// share one table set: the sharded coordinator computes it once per
// request and every shard reuses it, so query preprocessing stays O(1) in
// the shard count.  GviewFilter still drops labels absent from ITS data
// graph per call, so the filtered tables are bit-identical to the ones it
// would have computed itself.
struct QuerySimTables {
  double theta = 0.0;  // must equal QueryOptions::theta at use time
  // sims[u]: data label -> sim(L_q(u), label) >= theta, unfiltered by
  // data-graph occurrence.
  std::vector<std::unordered_map<LabelId, double>> sims;
};

// Computes QuerySimTables for `query` (one ontology ball per query node).
[[nodiscard]] QuerySimTables ComputeQuerySimTables(
    const OntologyGraph& ontology, const SimilarityFunction& sim,
    const Graph& query, double theta);

// Runs Gview for `query` over the index.  `query` must be a valid query
// graph (see ValidateQuery); options.theta in (0, 1].
//
// The precomputed neighborhood signatures (core/candidate_index.h) seed
// and expand the candidates (step 1 above) and pre-reject candidates whose
// signature cannot satisfy some incident query edge.  Every test is
// lossless: the candidate sets and G_v contain every node of every match
// (Prop. 4.2).
//
// With options.num_threads > 1 the per-query-node stages (similarity
// tables, signature requirements, candidate lists) run on the shared
// thread pool; every merge happens in index order, so the result
// (including stats) is identical for any thread count.
//
// `exec` (optional) carries the query's deadline / cancellation state.
// The seed stage polls it once per examined node and, when it fires,
// returns no_match with stats.stopped set (QueryEngine turns that into a
// partial, uncached answer).  The refinement fixpoint polls it the same
// way but, when it fires, stops refining and keeps the current
// (over-approximate but sound) candidate sets, with stats.stopped
// recording why.  The remaining stages (similarity tables, G_v build) are
// linear in the candidates and run to completion.  A stopped filter result
// is timing-dependent; the thread-count determinism contract applies only
// to runs that complete.
//
// `restriction` (optional) applies the pivot-seed restriction documented
// on PivotRestriction above; restriction->query_node must be a node of
// `query`.
//
// `shared_sims` (optional) supplies precomputed label-similarity tables
// (see QuerySimTables); they must have been computed for this `query` on
// this index's ontology/similarity function with options.theta.  Results
// are bit-identical with or without them.
[[nodiscard]] FilterResult GviewFilter(
    const OntologyIndex& index, const Graph& query,
    const QueryOptions& options, const ExecControl* exec = nullptr,
    const PivotRestriction* restriction = nullptr,
    const QuerySimTables* shared_sims = nullptr);

}  // namespace osq

#endif  // OSQ_CORE_FILTERING_H_
