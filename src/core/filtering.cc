#include "core/filtering.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/scratch_slots.h"
#include "common/thread_pool.h"
#include "core/candidate_index.h"
#include "ontology/ontology_graph.h"

namespace osq {

namespace {

// Exact candidate-label table for one query node: every data label within
// Radius(theta) of the query label, with its similarity.
std::unordered_map<LabelId, double> ExactLabelSims(
    const OntologyGraph& o, const SimilarityFunction& sim, LabelId query_label,
    double theta) {
  std::unordered_map<LabelId, double> sims;
  for (const LabelDistance& ld : o.BallAround(query_label, sim.Radius(theta))) {
    sims.emplace(ld.label, sim.SimAtDistance(ld.distance));
  }
  // A query label absent from the ontology can still match identical data
  // labels (sim == 1 by definition).
  sims.emplace(query_label, 1.0);
  return sims;
}

// All ontology labels within `radius` of any label in `sources` (labels
// missing from the ontology contribute only themselves).
std::vector<LabelId> MultiSourceBall(const OntologyGraph& o,
                                     const std::unordered_map<LabelId, double>&
                                         sources,
                                     uint32_t radius) {
  std::vector<LabelId> result;
  std::unordered_map<LabelId, uint32_t> dist;
  std::deque<LabelId> queue;
  for (const auto& [label, unused_sim] : sources) {
    if (dist.emplace(label, 0).second) {
      result.push_back(label);
      queue.push_back(label);
    }
  }
  while (!queue.empty()) {
    LabelId l = queue.front();
    queue.pop_front();
    uint32_t d = dist[l];
    if (d >= radius) continue;
    for (LabelId m : o.Neighbors(l)) {
      if (dist.emplace(m, d + 1).second) {
        result.push_back(m);
        queue.push_back(m);
      }
    }
  }
  return result;
}

// Membership of ids (blocks or data nodes) in `num_sets` per-query sets,
// keyed through the calling thread's ScratchSlots lease: one bit per
// (slot, set), grown as ids are touched, so nothing here is sized by the
// id universe.  Same lease rule: never live across a ParallelFor.
class CandidateSets {
 public:
  CandidateSets(size_t universe, size_t num_sets)
      : slots_(universe), words_((num_sets + 63) / 64) {}

  bool Has(uint32_t id, size_t set) const {
    uint32_t slot = slots_.Find(id);
    return slot != ScratchSlots::kNone &&
           (bits_[Word(slot, set)] & Bit(set)) != 0;
  }
  // Adds `id` to `set`; false when it was already there.
  bool Add(uint32_t id, size_t set) {
    uint32_t slot = slots_.Insert(id);
    if (bits_.size() < (slot + 1) * words_) {
      bits_.resize((slot + 1) * words_, 0);
    }
    uint64_t& word = bits_[Word(slot, set)];
    if ((word & Bit(set)) != 0) return false;
    word |= Bit(set);
    return true;
  }
  void Remove(uint32_t id, size_t set) {
    uint32_t slot = slots_.Find(id);
    if (slot != ScratchSlots::kNone) bits_[Word(slot, set)] &= ~Bit(set);
  }

 private:
  size_t Word(uint32_t slot, size_t set) const {
    return slot * words_ + set / 64;
  }
  static uint64_t Bit(size_t set) { return uint64_t{1} << (set % 64); }

  ScratchSlots slots_;
  size_t words_;
  std::vector<uint64_t> bits_;
};

bool Allowed(const std::vector<char>& allowed, NodeId v) {
  return v < allowed.size() && allowed[v] != 0;
}

// The per-query inputs every concept graph's block stage reads.
struct BlockInputs {
  const OntologyGraph& o;
  const SimilarityFunction& sim;
  const Graph& query;
  const std::vector<EdgeTriple>& qedges;
  const QueryOptions& options;
  const std::vector<std::unordered_map<LabelId, double>>& exact_label_sims;
  // Non-null switches seeding to the signature index (see Run).
  const CandidateIndex* cindex;
  const std::vector<SignatureRequirement>& reqs;     // with cindex
  const std::vector<std::vector<LabelId>>& sim_labels;  // with cindex
  const ExecControl* exec;
  // The pivot restriction, or pivot == kInvalidNode when there is none.
  NodeId pivot;
  const std::vector<char>* allowed;
};

// Block-level Gview over one concept graph: seeds candidate blocks for
// every query node, then refines them to the block fixpoint.
class BlockStage {
 public:
  BlockStage(const BlockInputs& in, const ConceptGraph& cg,
             size_t graph_index, FilterStats* stats)
      : in_(in),
        cg_(cg),
        graph_index_(graph_index),
        nq_(in.query.num_nodes()),
        stats_(stats),
        // Sets [0, nq) are the candidate blocks of each query node; sets
        // [nq, 2 nq) the blocks already examined for it while seeding.
        sets_(cg.block_capacity(), 2 * nq_),
        can_(nq_),
        check_(in.exec) {}

  // Candidate blocks per query node, or false when some query node has
  // none after refinement, or seeding was stopped (stats->stopped says
  // which).
  //
  // With the signature index, one query node is seeded from the inverted
  // member-label lists and every other one is formed by the cheaper of
  // seeding and expansion from an already-formed neighbour (Expand), one
  // node at a time, cheapest step first.  Seeding costs the node's list
  // total; expansion the summed degree of the neighbour's block
  // representatives in the query edge's direction.
  bool Run(std::vector<std::vector<BlockId>>* out) {
    std::vector<size_t> seed_cost(nq_, 0);
    if (in_.cindex != nullptr) {
      for (NodeId u = 0; u < nq_; ++u) {
        for (LabelId l : in_.sim_labels[u]) {
          seed_cost[u] +=
              in_.cindex->BlocksWithMemberLabel(graph_index_, l).size();
        }
      }
    }
    std::vector<char> formed(nq_, 0);
    std::vector<std::array<size_t, 2>> expand_cost(nq_);  // see ExpandCost
    for (size_t step = 0; step < nq_; ++step) {
      NodeId next = kInvalidNode;
      const EdgeTriple* via = nullptr;
      size_t best = SIZE_MAX;
      // Without the index every seeding cost is 0, so the ablations seed
      // the query nodes in id order and never expand.
      for (NodeId u = 0; u < nq_; ++u) {
        if (formed[u] != 0) continue;
        size_t cost = seed_cost[u];
        const EdgeTriple* edge = nullptr;
        for (const EdgeTriple& e : in_.qedges) {
          // Reaching u along e follows it from its other endpoint w.
          bool forward = e.to == u;
          if (e.from == e.to || (!forward && e.from != u)) continue;
          NodeId w = forward ? e.from : e.to;
          if (formed[w] != 0 && expand_cost[w][forward ? 0 : 1] < cost) {
            cost = expand_cost[w][forward ? 0 : 1];
            edge = &e;
          }
        }
        if (cost < best) {
          best = cost;
          next = u;
          via = edge;
        }
      }
      if (via == nullptr) {
        Seed(next);
      } else {
        Expand(next, *via);
      }
      if (Stopped()) {
        stats_->stopped = MergeStopReason(stats_->stopped, check_.reason());
        return false;
      }
      stats_->initial_blocks += can_[next].size();
      if (next == in_.pivot) Restrict(next);
      if (can_[next].empty()) return false;
      formed[next] = 1;
      expand_cost[next] = ExpandCost(next);
    }
    if (!Refine()) return false;
    stats_->stopped = MergeStopReason(stats_->stopped, check_.reason());
    *out = std::move(can_);
    return true;
  }

 private:
  bool Stopped() const { return check_.reason() != StopReason::kNone; }

  // One block reached by the seed stage: polls the deadline, then counts
  // the block unless it was already examined for u.  Returns whether to
  // examine it; false also once the query is stopped (check_ says so).
  bool Visit(NodeId u, BlockId b) {
    if (check_.Stop() || !sets_.Add(b, nq_ + u)) return false;
    ++stats_->seed_visits;
    return true;
  }

  void AddCandidate(NodeId u, BlockId b) {
    if (sets_.Add(b, u)) can_[u].push_back(b);
  }

  // Signature-index admission of block b for u; every caller has checked
  // that b holds a member with a theta-passing label.
  void Admit(NodeId u, BlockId b) {
    if (in_.cindex->BlockPasses(graph_index_, b, in_.reqs[u])) {
      AddCandidate(u, b);
    } else {
      ++stats_->sig_block_rejections;
    }
  }

  // Seeds u's candidate blocks from scratch.
  void Seed(NodeId u) {
    if (in_.cindex != nullptr) {
      // Signature-indexed: the inverted index yields exactly the blocks
      // with a theta-passing member, without scanning members, and the
      // block signature rejects blocks none of whose members can satisfy
      // u's incident query edges.
      for (LabelId l : in_.sim_labels[u]) {
        for (BlockId b :
             in_.cindex->BlocksWithMemberLabel(graph_index_, l)) {
          if (Visit(u, b)) Admit(u, b);
          if (Stopped()) return;
        }
      }
    } else if (in_.options.lazy_candidates) {
      // Lazy strategy (paper, Gview line 4): candidate blocks are found by
      // label distance alone, never by scanning members.  The paper admits
      // every block whose concept label is within Radius(theta) +
      // Radius(beta) of the query label; we use the (tighter, still lazy)
      // equivalent test "within Radius(beta) of some exact candidate
      // label", which is a subset by the triangle inequality yet still
      // contains every block holding a true candidate.
      for (LabelId l : MultiSourceBall(in_.o, in_.exact_label_sims[u],
                                       in_.sim.Radius(cg_.beta()))) {
        for (BlockId b : cg_.BlocksWithLabel(l)) {
          if (Visit(u, b)) AddCandidate(u, b);
          if (Stopped()) return;
        }
      }
      // Uncovered labels group under themselves (see ConceptGraph::Build).
      for (BlockId b : cg_.BlocksWithLabel(in_.query.NodeLabel(u))) {
        if (Visit(u, b)) AddCandidate(u, b);
        if (Stopped()) return;
      }
    } else {
      // Exact (ablation): only blocks holding at least one node whose label
      // clears theta.  Costs a scan of every block's members.
      const auto& sims = in_.exact_label_sims[u];
      for (BlockId b = 0; b < cg_.block_capacity(); ++b) {
        if (!cg_.IsAlive(b)) continue;
        if (!Visit(u, b)) return;  // ids are distinct: only a stop says no
        for (NodeId v : cg_.Members(b)) {
          if (sims.count(cg_.data_graph().NodeLabel(v)) > 0) {
            AddCandidate(u, b);
            break;
          }
        }
      }
    }
  }

  // Forms u's candidate blocks from its formed neighbour w across query
  // edge e: the neighbour blocks of can_[w]'s representatives, kept when
  // they hold a theta-passing member for u and pass u's block signature.
  // Lossless by the concept-graph invariant: a match maps e to a data
  // edge from a member of some block b in can_[w] into the block c of u's
  // image, and then every member of b, the representative included, has
  // an edge into c — though not always one labelled e.label (see
  // ConceptGraph::AnyNeighborBlock for when the label may filter).
  void Expand(NodeId u, const EdgeTriple& e) {
    bool forward = e.to == u;
    NodeId w = forward ? e.from : e.to;
    const std::vector<LabelId>& labels = in_.sim_labels[u];
    for (BlockId b : can_[w]) {
      bool stopped = cg_.AnyNeighborBlock(b, forward, e.label, [&](BlockId c) {
        if (!Visit(u, c)) return Stopped();
        const std::vector<LabelId>& members =
            in_.cindex->block_signature(graph_index_, c).member_labels;
        if (std::any_of(members.begin(), members.end(), [&](LabelId l) {
              return std::binary_search(labels.begin(), labels.end(), l);
            })) {
          Admit(u, c);
        }
        return false;
      });
      if (stopped) return;
    }
  }

  // Representative out- and in-degrees summed over can_[w]: the costs of
  // expanding from w along an out- or in-edge.
  std::array<size_t, 2> ExpandCost(NodeId w) const {
    std::array<size_t, 2> cost{0, 0};
    for (BlockId b : can_[w]) {
      cost[0] += cg_.RepresentativeDegree(b, /*forward=*/true);
      cost[1] += cg_.RepresentativeDegree(b, /*forward=*/false);
    }
    return cost;
  }

  // Pivot-seed restriction (sharded serving): drop pivot candidate blocks
  // with no allowed member as soon as the pivot's set is formed, so both
  // expansion and refinement propagate the shard's cut to every other
  // query node instead of re-deriving the full single-engine candidate
  // sets.  One member scan per pivot block; sound because a block without
  // an allowed member can never hold an allowed pivot image (see
  // PivotRestriction in the header).
  void Restrict(NodeId u) {
    std::vector<BlockId>& list = can_[u];
    size_t kept = 0;
    for (BlockId b : list) {
      const std::vector<NodeId>& ms = cg_.Members(b);
      if (std::any_of(ms.begin(), ms.end(),
                      [&](NodeId v) { return Allowed(*in_.allowed, v); })) {
        list[kept++] = b;
      } else {
        sets_.Remove(b, u);
        ++stats_->pivot_restricted_blocks;
      }
    }
    list.resize(kept);
  }

  // Fixpoint refinement over query edges (paper, Gview lines 5-10): drop a
  // candidate block when a query edge has no corresponding block edge.
  // The fixpoint polls the deadline/cancel state per examined block; an
  // interrupted fixpoint keeps the current candidate sets — a sound
  // over-approximation, since any prefix of the pruning sequence only
  // removed impossible blocks.  False when some set runs empty.
  bool Refine() {
    bool changed = true;
    while (changed && !check_.Stop()) {
      changed = false;
      for (const EdgeTriple& e : in_.qedges) {
        // Forward: each candidate of e.from needs a successor block in
        // can_[e.to]; backward symmetrically.
        auto prune = [&](NodeId holder, NodeId other, bool forward) {
          std::vector<BlockId>& list = can_[holder];
          size_t kept = 0;
          for (size_t i = 0; i < list.size(); ++i) {
            BlockId b = list[i];
            if (check_.Stop()) {
              // Keep this and every not-yet-examined block.
              for (; i < list.size(); ++i) list[kept++] = list[i];
              break;
            }
            ++stats_->fixpoint_checks;
            if (cg_.AnyNeighborBlock(b, forward, e.label, [&](BlockId c) {
                  return sets_.Has(c, other);
                })) {
              list[kept++] = b;
            } else {
              sets_.Remove(b, holder);
              ++stats_->pruned_blocks;
              changed = true;
            }
          }
          list.resize(kept);
        };
        prune(e.from, e.to, /*forward=*/true);
        if (can_[e.from].empty()) return false;
        prune(e.to, e.from, /*forward=*/false);
        if (can_[e.to].empty()) return false;
        if (Stopped()) break;
      }
    }
    return true;
  }

  const BlockInputs& in_;
  const ConceptGraph& cg_;
  size_t graph_index_;
  size_t nq_;
  FilterStats* stats_;
  CandidateSets sets_;
  std::vector<std::vector<BlockId>> can_;
  CancelCheck check_;
};

}  // namespace

QuerySimTables ComputeQuerySimTables(const OntologyGraph& ontology,
                                     const SimilarityFunction& sim,
                                     const Graph& query, double theta) {
  QuerySimTables tables;
  tables.theta = theta;
  size_t nq = query.num_nodes();
  tables.sims.resize(nq);
  for (NodeId u = 0; u < nq; ++u) {
    tables.sims[u] = ExactLabelSims(ontology, sim, query.NodeLabel(u), theta);
  }
  return tables;
}

FilterResult GviewFilter(const OntologyIndex& index, const Graph& query,
                         const QueryOptions& options, const ExecControl* exec,
                         const PivotRestriction* restriction,
                         const QuerySimTables* shared_sims) {
  FilterResult result;
  const Graph& g = index.data_graph();
  const OntologyGraph& o = index.ontology();
  const SimilarityFunction& sim = index.sim();
  size_t nq = query.num_nodes();
  OSQ_CHECK(nq > 0);
  size_t num_threads = ResolveNumThreads(options.num_threads);

  // Every parallel stage below computes strictly per-index state and merges
  // it in index order, so the result (including stats) is identical for any
  // thread count.

  // Exact candidate-label tables are needed for final pruning (and for the
  // non-lazy ablation); one ontology ball per query node.  Labels carried
  // by no data node cannot produce candidates and are dropped immediately,
  // which also tightens the lazy block selection below.
  // A caller-supplied table set skips the ontology balls (the sharded
  // coordinator computes them once per request); the per-index occurrence
  // filter below still runs either way, so the tables end up identical.
  OSQ_CHECK(shared_sims == nullptr ||
            (shared_sims->theta == options.theta &&
             shared_sims->sims.size() == nq));
  std::vector<std::unordered_map<LabelId, double>> exact_label_sims(nq);
  ParallelFor(num_threads, nq, [&](size_t u) {
    std::unordered_map<LabelId, double> sims =
        shared_sims != nullptr
            ? shared_sims->sims[u]
            : ExactLabelSims(o, sim, query.NodeLabel(static_cast<NodeId>(u)),
                             options.theta);
    for (auto it = sims.begin(); it != sims.end();) {
      if (index.LabelOccursInData(it->first)) {
        ++it;
      } else {
        it = sims.erase(it);
      }
    }
    exact_label_sims[u] = std::move(sims);
  });
  for (NodeId u = 0; u < nq; ++u) {
    if (exact_label_sims[u].empty()) {
      result.no_match = true;
      return result;
    }
  }

  // Signature-index plumbing: per query node, the requirement its matches'
  // signatures must satisfy, plus the sorted theta-passing label list used
  // to walk the inverted block index.
  const CandidateIndex* cindex =
      options.use_candidate_index ? &index.candidate_index() : nullptr;
  std::vector<SignatureRequirement> reqs(nq);
  std::vector<std::vector<LabelId>> sim_labels(nq);
  if (cindex != nullptr) {
    ParallelFor(num_threads, nq, [&](size_t u) {
      reqs[u] = BuildSignatureRequirement(query, static_cast<NodeId>(u),
                                          exact_label_sims);
      for (const auto& [label, unused_sim] : exact_label_sims[u]) {
        sim_labels[u].push_back(label);
      }
      std::sort(sim_labels[u].begin(), sim_labels[u].end());
    });
  }

  // The query's edge list is loop-invariant; materialize it once.
  std::vector<EdgeTriple> qedges = query.EdgeList();
  const bool restricted =
      restriction != nullptr && restriction->allowed != nullptr;
  const BlockInputs block_inputs{
      o,       sim,      query,      qedges, options, exact_label_sims,
      cindex,  reqs,     sim_labels, exec,
      restricted ? restriction->query_node : kInvalidNode,
      restricted ? restriction->allowed : nullptr};

  // Per concept graph: candidate blocks plus their member lists, computed
  // in parallel (the refinement fixpoint of one concept graph is
  // independent of every other graph's).  The intersection across graphs
  // and the stats merge then run sequentially in graph order, preserving
  // the exact sequential semantics — including the partial stats of the
  // first graph that proves emptiness.
  size_t ng = index.num_concept_graphs();
  struct PerGraph {
    bool ok = false;
    std::vector<std::vector<NodeId>> nodes;  // per query node, sorted
    FilterStats stats;
  };
  std::vector<PerGraph> per_graph(ng);
  auto compute_graph = [&](size_t i) {
    const ConceptGraph& cg = index.concept_graph(i);
    PerGraph& pg = per_graph[i];
    std::vector<std::vector<BlockId>> can;
    pg.ok = BlockStage(block_inputs, cg, i, &pg.stats).Run(&can);
    if (!pg.ok) return;
    pg.nodes.resize(nq);
    for (NodeId u = 0; u < nq; ++u) {
      std::vector<NodeId>& nodes = pg.nodes[u];
      for (BlockId b : can[u]) {
        const std::vector<NodeId>& ms = cg.Members(b);
        nodes.insert(nodes.end(), ms.begin(), ms.end());
      }
      std::sort(nodes.begin(), nodes.end());
    }
  };
  if (num_threads > 1) {
    ParallelFor(num_threads, ng, compute_graph);
  }

  // mat(u): data-node candidate sets, intersected across concept graphs
  // (paper, Gview lines 3-10).  Sequential runs compute each graph lazily
  // so emptiness proofs keep their early exit.
  std::vector<std::vector<NodeId>> mat(nq);
  for (size_t i = 0; i < ng; ++i) {
    if (num_threads <= 1) compute_graph(i);
    PerGraph& pg = per_graph[i];
    result.stats.initial_blocks += pg.stats.initial_blocks;
    result.stats.pruned_blocks += pg.stats.pruned_blocks;
    result.stats.sig_block_rejections += pg.stats.sig_block_rejections;
    result.stats.seed_visits += pg.stats.seed_visits;
    result.stats.fixpoint_checks += pg.stats.fixpoint_checks;
    result.stats.pivot_restricted_blocks += pg.stats.pivot_restricted_blocks;
    result.stats.stopped =
        MergeStopReason(result.stats.stopped, pg.stats.stopped);
    if (!pg.ok) {
      result.no_match = true;
      return result;
    }
    for (NodeId u = 0; u < nq; ++u) {
      if (i == 0) {
        mat[u] = std::move(pg.nodes[u]);
      } else {
        std::vector<NodeId> inter;
        std::set_intersection(mat[u].begin(), mat[u].end(),
                              pg.nodes[u].begin(), pg.nodes[u].end(),
                              std::back_inserter(inter));
        mat[u] = std::move(inter);
      }
      if (mat[u].empty()) {
        result.no_match = true;
        return result;
      }
    }
  }

  // Exact theta pruning: the lazy strategy over-approximates; keep only
  // data nodes whose label truly clears the threshold, remembering sims.
  // With the signature index on, a node whose signature cannot satisfy
  // some incident query edge is dropped here too — before the node-level
  // fixpoint ever scans its adjacency (lossless: every match's signature
  // passes its requirement).
  std::vector<std::vector<std::pair<NodeId, double>>> exact(nq);
  std::vector<size_t> node_rejects(nq, 0);
  std::vector<size_t> restrict_rejects(nq, 0);
  ParallelFor(num_threads, nq, [&](size_t u) {
    // The block-level restriction keeps any block with one allowed member;
    // this is where the pivot's disallowed co-members drop out, before the
    // node fixpoint ever scans their adjacency.
    const bool pivot = u == block_inputs.pivot;
    const auto& sims = exact_label_sims[u];
    for (NodeId v : mat[u]) {
      if (pivot && !Allowed(*block_inputs.allowed, v)) {
        ++restrict_rejects[u];
        continue;
      }
      auto it = sims.find(g.NodeLabel(v));
      if (it == sims.end()) continue;
      if (cindex != nullptr && !cindex->NodePasses(v, reqs[u])) {
        ++node_rejects[u];
        continue;
      }
      exact[u].push_back({v, it->second});
    }
  });
  for (NodeId u = 0; u < nq; ++u) {
    result.stats.sig_node_rejections += node_rejects[u];
    result.stats.pivot_restricted_nodes += restrict_rejects[u];
  }
  for (NodeId u = 0; u < nq; ++u) {
    if (exact[u].empty()) {
      result.no_match = true;
      return result;
    }
  }

  // Node-level refinement: drop a candidate v of query node u when some
  // query edge (u, u') has no edge-label-matching counterpart from v into
  // the candidates of u' (and symmetrically for incoming edges).  Matches
  // always satisfy this, so pruning is lossless; it is what shrinks G_v to
  // exactly the union of near-matches (cf. Fig. 9's G_v).
  {
    CandidateSets is_cand(g.num_nodes(), nq);
    for (NodeId u = 0; u < nq; ++u) {
      for (const auto& [v, s] : exact[u]) is_cand.Add(v, u);
    }
    // Second super-linear stage; same cooperative-stop contract as the
    // block fixpoint (interrupt = keep the sound superset).
    CancelCheck check(exec);
    bool changed = true;
    while (changed && !check.Stop()) {
      changed = false;
      for (const EdgeTriple& e : qedges) {
        auto prune = [&](NodeId holder, NodeId other, bool forward) {
          auto& list = exact[holder];
          size_t kept = 0;
          for (size_t i = 0; i < list.size(); ++i) {
            NodeId v = list[i].first;
            if (check.Stop()) {
              for (; i < list.size(); ++i) list[kept++] = list[i];
              break;
            }
            bool ok = false;
            for (const AdjEntry& a : forward ? g.OutEdges(v) : g.InEdges(v)) {
              ++result.stats.fixpoint_checks;
              if (a.label == e.label && is_cand.Has(a.node, other)) {
                ok = true;
                break;
              }
            }
            if (ok) {
              list[kept++] = list[i];
            } else {
              is_cand.Remove(v, holder);
              ++result.stats.pruned_nodes;
              changed = true;
            }
          }
          list.resize(kept);
        };
        prune(e.from, e.to, /*forward=*/true);
        if (exact[e.from].empty()) {
          result.no_match = true;
          return result;
        }
        prune(e.to, e.from, /*forward=*/false);
        if (exact[e.to].empty()) {
          result.no_match = true;
          return result;
        }
        if (check.reason() != StopReason::kNone) break;
      }
    }
    result.stats.stopped =
        MergeStopReason(result.stats.stopped, check.reason());
  }

  // Materialize G_v induced by the union of all candidates.
  std::vector<NodeId> all_nodes;
  for (NodeId u = 0; u < nq; ++u) {
    for (const auto& [v, s] : exact[u]) all_nodes.push_back(v);
  }
  result.gv = InducedSubgraph(g, all_nodes);
  result.stats.gv_nodes = result.gv.graph.num_nodes();
  result.stats.gv_edges = result.gv.graph.num_edges();

  result.candidates.resize(nq);
  ParallelFor(num_threads, nq, [&](size_t u) {
    // exact[u] and to_original both ascend: walk them together.
    const std::vector<NodeId>& ids = result.gv.to_original;
    NodeId local = 0;
    for (const auto& [v, s] : exact[u]) {
      while (ids[local] < v) ++local;
      result.candidates[u].push_back({local, s});
    }
    std::sort(result.candidates[u].begin(), result.candidates[u].end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.node < b.node;
              });
  });
  return result;
}

}  // namespace osq
