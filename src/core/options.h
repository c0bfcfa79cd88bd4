// User-facing option structs for index construction and query evaluation.

#ifndef OSQ_CORE_OPTIONS_H_
#define OSQ_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/deadline.h"
#include "ontology/similarity.h"

namespace osq {

// How a match's edges must relate to the query's edges (paper §II-B).
enum class MatchSemantics {
  // The paper's definition: (u, u') is a query edge *iff* (h(u), h(u')) is a
  // data edge with the same label — matches are induced subgraphs.
  kInduced,
  // The common relaxation: every query edge must be present in the match,
  // extra data edges among matched nodes are allowed.
  kHomomorphicEdges,
};

// Parameters of ontology index construction (paper §IV-A, algorithm
// OntoIdx).
struct IndexOptions {
  // Which member of the similarity-function class to use (paper default:
  // exponential decay).  See ontology/similarity.h.
  SimilarityModel similarity_model = SimilarityModel::kExponential;
  // Exponent base of sim(l1, l2) = base^dist (exponential model).
  double similarity_base = 0.9;
  // Zero-similarity cutoff in hops (linear model).
  uint32_t similarity_cutoff = 2;
  // Similarity threshold beta used to group nodes under concept labels.
  // The paper's experiments use beta = 0.8/0.81 (two ontology hops).
  double beta = 0.81;
  // N: number of concept graphs in the index (card(I)).
  size_t num_concept_graphs = 2;
  // Number of ontology clusters used during concept label selection.
  size_t num_clusters = 8;
  // Seed for the randomized concept-label selection.
  uint64_t seed = 42;
  // Build edge-label-aware concept graphs (ablation; default is the
  // paper's label-unaware index).
  bool edge_label_aware = false;
  // Worker threads for concept-graph construction.  1 (default) builds
  // sequentially; 0 means "all hardware threads".  The built index is
  // identical for every value — concept-label selection stays sequential
  // so the RNG stream is unchanged, and per-graph results merge in index
  // order.
  size_t num_threads = 1;
};

// Parameters of a single query evaluation.
struct QueryOptions {
  // User similarity threshold theta: a data node v may match query node u
  // only if sim(L(v), L_q(u)) >= theta.  theta = 1 degenerates to
  // traditional subgraph isomorphism.
  double theta = 0.9;
  // Number of best matches to return (top-K problem).  0 means "all".
  size_t k = 10;
  MatchSemantics semantics = MatchSemantics::kInduced;
  // When false, skip the lazy concept-ball candidate initialization and
  // compute per-node exact candidates directly against the ontology
  // (ablation knob; the paper's Gview uses the lazy strategy).  Has no
  // effect unless use_candidate_index is false: signature seeding replaces
  // both strategies.
  bool lazy_candidates = true;
  // Consult the precomputed neighborhood-signature index
  // (core/candidate_index.h) to seed the block fixpoint with the exact
  // theta-passing block set and to reject candidates by signature before
  // any adjacency scan.  Returned matches are bit-identical with the flag
  // on or off; candidate sets / G_v can only shrink (ablation knob for the
  // bench).  When on, this supersedes lazy_candidates for the block
  // initialization (the signature seeding is already exact and lazy).
  bool use_candidate_index = true;
  // Safety valve for adversarial inputs: abort enumeration after this many
  // backtracking steps (0 = unlimited).  Benches leave it unlimited.  With
  // parallel verification the budget applies to each root-candidate
  // partition independently (keeping truncation deterministic), so the
  // total step count may reach partitions * max_search_steps.
  size_t max_search_steps = 0;
  // Worker threads for query evaluation (Gview filtering + KMatch
  // verification).  1 (default) runs sequentially; 0 means "all hardware
  // threads".  The match set and scores are identical for every value —
  // see DESIGN.md, "Parallel execution".
  size_t num_threads = 1;
  // Wall-clock budget for the whole evaluation, milliseconds (0 = none).
  // When it expires the filtering fixpoints and the KMatch enumeration
  // stop cooperatively and the query returns the valid matches found so
  // far, tagged QueryResult::completeness == kDeadlineExceeded.  Unlike
  // max_search_steps, a deadline makes the *set* of returned matches
  // timing-dependent (each one is still a verified match).  See DESIGN.md
  // §9.
  double deadline_ms = 0.0;
  // Optional cooperative cancellation handle.  Default-constructed = not
  // cancellable; pass CancelToken::Cancellable() and call RequestCancel()
  // from any thread to abandon the evaluation early (the result comes
  // back with completeness == kCancelled).
  CancelToken cancel;
};

// Parameters of the serving front end both serving tiers share
// (serve/serving_core.h).
struct ServeOptions {
  // Capacity (entries) of the versioned LRU result cache keyed by
  // QuerySignature; 0 disables caching entirely.  Each entry stores one
  // full QueryResult, so memory is bounded by capacity * k matches.  Only
  // complete results with an OK status are cached.
  size_t cache_capacity = 256;
  // Admission control: maximum queries evaluating concurrently (0 =
  // unlimited).  When the limit is reached, further queries are shed
  // immediately with Status kUnavailable (ServedResult::shed) instead of
  // queueing behind the snapshot lock unboundedly.
  size_t max_inflight = 0;
  // Deadline applied to queries that do not carry their own
  // QueryOptions::deadline_ms (0 = none).  A per-query deadline always
  // wins.
  double default_deadline_ms = 0.0;
};

}  // namespace osq

#endif  // OSQ_CORE_OPTIONS_H_
