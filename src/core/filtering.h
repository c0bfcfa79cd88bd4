// The filtering phase of the framework — algorithm Gview (paper §IV-B).
//
// Instead of matching the query against the whole data graph, Gview uses
// the ontology index to extract a small subgraph G_v that provably contains
// every match (Prop. 4.2): if G_v is empty then Q(G) is empty, otherwise
// Q(G) = Q(G_v).
//
// Per concept graph G_o in the index:
//   1. Candidate blocks.  With the signature index (the default), ONE query
//      node — the one with the shortest inverted member-label lists — is
//      seeded from those lists (the blocks holding a theta-passing member,
//      minus those whose aggregated signature fails the node's incident
//      edges).  Every other query node is formed, cheapest step first, by
//      the cheaper of the same seeding or *expansion* from an already
//      formed neighbour across a query edge: the neighbour blocks of that
//      neighbour's block representatives, under the same label and
//      signature tests.  Expansion is lossless because all members of a
//      block share successor and predecessor blocks (concept_graph.h), so
//      the representative reaches every block a match can continue into.
//      The ablations instead seed every query node: *lazily*, admitting a
//      block b when dist_O(L_q(u), label(b)) <= Radius(theta) +
//      Radius(beta) (any data node v matching u satisfies dist(L_q(u),
//      L(v)) <= Radius(theta) and v's block label satisfies dist(L(v),
//      label(b)) <= Radius(beta), so the triangle inequality bounds the
//      concept-label distance), or exactly, by scanning block members.
//   2. Fixpoint refinement: a candidate block of u is dropped when some
//      query edge (u, u') has no corresponding block edge into (resp. from)
//      a candidate of u' — sound because the concept-graph invariant makes
//      one member representative for the whole block.
//   3. mat(u) is intersected across concept graphs.
// Finally the surviving data nodes are checked against the *exact*
// similarity threshold theta, refined by a node-level fixpoint, and G_v is
// materialized as the induced subgraph of their union, with per-query-node
// candidate lists annotated with similarities (consumed by KMatch).
//
// No stage allocates or clears anything sized by |V| or the block count
// per query: candidate-set membership lives in per-thread, epoch-stamped
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
  // Candidate blocks after seeding and expansion, summed over query nodes
  // and concept graphs.
  size_t initial_blocks = 0;
  // Candidate blocks dropped by the fixpoint refinement.
  size_t pruned_blocks = 0;
  // Data-node candidates dropped by the node-level refinement fixpoint.
  size_t pruned_nodes = 0;
  // Candidate blocks / data nodes rejected up front by the precomputed
  // neighborhood signatures (core/candidate_index.h); zero when
  // QueryOptions::use_candidate_index is off.
  size_t sig_block_rejections = 0;
  size_t sig_node_rejections = 0;
  // Work counters, deterministic for a fixed index and query.  seed_visits:
  // blocks the seed stage examined — inverted-list entries and expansion
  // neighbours, each counted once per query node.  fixpoint_checks:
  // block-fixpoint neighbour-set tests plus adjacency entries the
  // node-level fixpoint scanned.
  size_t seed_visits = 0;
  size_t fixpoint_checks = 0;
  // Pivot candidate blocks / data nodes dropped by a PivotRestriction
  // (sharded serving); zero for unrestricted runs.
  size_t pivot_restricted_blocks = 0;
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
// BEFORE both refinement fixpoints — candidate blocks of the pivot with no
// allowed member are dropped as soon as the pivot's set is formed (so
// expansion starts only from owned blocks), and disallowed data nodes are
// dropped at the exact-theta step.  Refinement then propagates the cut to
// the other query nodes, so per-shard filtering cost scales with the
// shard's partition instead of re-deriving the full candidate sets.
//
// Soundness: for any match M with allowed M[query_node], every node of M
// survives (M[query_node] sits in an allowed block and clears theta; the
// fixpoints never prune a block/node all of whose match images remain), so
// the restricted G_v contains every match whose pivot is allowed.  KMatch's
// exact-top-K contract then makes the output the true top-K of that match
// partition — the property the shard merge relies on for bit-identity.
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
// With options.use_candidate_index (default), the precomputed neighborhood
// signatures (core/candidate_index.h) seed and expand the block candidates
// (step 1 above) and pre-reject candidates whose signature cannot satisfy
// some incident query edge.  The returned matches downstream are
// bit-identical either way; the candidate sets and G_v with the index on
// are subsets of the index-off ones (still supersets of every match node —
// Prop. 4.2 is preserved).
//
// With options.num_threads > 1 the per-concept-graph refinement and the
// per-query-node candidate stages run on the shared thread pool; every
// merge happens in index order, so the result (including stats) is
// identical for any thread count.
//
// `exec` (optional) carries the query's deadline / cancellation state.
// The block seed stage polls it once per examined block and, when it
// fires, returns no_match with stats.stopped set (QueryEngine turns that
// into a partial, uncached answer).  The two refinement fixpoints —
// block-level and node-level — poll it the same way but, when it fires,
// stop refining and keep the current (over-approximate but sound)
// candidate sets, with stats.stopped recording why.  The remaining stages
// (similarity tables, cross-graph intersection, exact-theta, G_v build)
// are linear in the candidates and run to completion.  A stopped filter
// result is timing-dependent; the thread-count determinism contract
// applies only to runs that complete.
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
