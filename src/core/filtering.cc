#include "core/filtering.h"

#include <algorithm>
#include <array>
#include <cstdint>
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

// Membership of data nodes in `num_sets` per-query sets,
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
  // Cache hint for the next Has / Add of `id`.
  void Prefetch(uint32_t id) const { slots_.Prefetch(id); }

 private:
  size_t Word(uint32_t slot, size_t set) const {
    return slot * words_ + set / 64;
  }
  static uint64_t Bit(size_t set) { return uint64_t{1} << (set % 64); }

  ScratchSlots slots_;
  size_t words_;
  std::vector<uint64_t> bits_;
};

// Refinement fixpoint over query edges (paper, Gview lines 5-10): an
// element of sets[u] stays while every query edge at u has support,
// supported(x, other, forward, label) saying whether x reaches sets[other]
// along the edge's label (forward: x is the edge's source); otherwise
// drop(x, u) records its removal.  The test of query edge i for its
// source's set (forward) is stale[2 i], for its target's set stale[2 i + 1];
// a test runs only while stale, i.e. until it has run since its other
// endpoint's set last shrank (a caller may pass a test as fresh when its
// sets were formed along that edge).  ahead(list, i, forward) runs before
// list[i] is tested, to prefetch for the elements after it.  The fixpoint
// polls `check` per examined element; an interrupted fixpoint keeps the
// current sets — a sound over-approximation, since any prefix of the
// pruning sequence only removed impossible elements.  False when some set
// runs empty.
template <typename Supported, typename Drop, typename Ahead>
bool RefineToFixpoint(const std::vector<EdgeTriple>& qedges,
                      std::vector<char> stale,
                      std::vector<std::vector<uint32_t>>* sets,
                      CancelCheck* check, Supported supported, Drop drop,
                      Ahead ahead) {
  // Prunes `holder`'s set against one query edge; true when it shrank.
  auto prune = [&](const EdgeTriple& e, bool forward) {
    NodeId holder = forward ? e.from : e.to;
    NodeId other = forward ? e.to : e.from;
    std::vector<uint32_t>& list = (*sets)[holder];
    bool changed = false;
    size_t kept = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      if (check->Stop()) {
        // Keep this and every not-yet-examined element.
        for (; i < list.size(); ++i) list[kept++] = list[i];
        break;
      }
      ahead(list, i, forward);
      if (supported(list[i], other, forward, e.label)) {
        list[kept++] = list[i];
      } else {
        drop(list[i], holder);
        changed = true;
      }
    }
    list.resize(kept);
    return changed;
  };
  bool pending = true;
  while (pending && !check->Stop()) {
    pending = false;
    for (size_t i = 0; i < 2 * qedges.size(); ++i) {
      if (stale[i] == 0) continue;
      stale[i] = 0;
      const EdgeTriple& e = qedges[i / 2];
      bool forward = i % 2 == 0;
      NodeId holder = forward ? e.from : e.to;
      if (prune(e, forward)) {
        // Every test whose other endpoint is `holder` must run again.
        for (size_t j = 0; j < qedges.size(); ++j) {
          if (qedges[j].to == holder) stale[2 * j] = 1;
          if (qedges[j].from == holder) stale[2 * j + 1] = 1;
        }
        pending = true;
      }
      if ((*sets)[holder].empty()) return false;
      if (check->reason() != StopReason::kNone) break;
    }
  }
  return true;
}

// The per-query inputs the node stage reads.
struct StageInputs {
  const Graph& query;
  const std::vector<EdgeTriple>& qedges;
  // Per query node: the signature requirement of its incident edges and
  // its sorted theta-passing data labels.
  const std::vector<SignatureRequirement>& reqs;
  const std::vector<std::vector<LabelId>>& sim_labels;
  const ExecControl* exec;
  // The pivot restriction, or pivot == kInvalidNode when there is none.
  NodeId pivot;
  const std::vector<char>* allowed;
};

// Gview's candidate stage over the data graph: seeds candidates for every
// query node, then refines them to the fixpoint.
class NodeStage {
 public:
  // Prefetch distances of the candidate loops (see Seed, Expand and
  // PrefetchAhead).
  static constexpr size_t kSeedBlock = 32;
  static constexpr size_t kOffsetsAhead = 16;
  static constexpr size_t kAdjacencyAhead = 8;
  static constexpr size_t kReachAhead = 4;

  NodeStage(const StageInputs& in, const Graph& g, const CandidateIndex& cindex,
            FilterStats* stats)
      : in_(in),
        g_(g),
        cindex_(cindex),
        nq_(in.query.num_nodes()),
        stats_(stats),
        // Sets [0, nq) are the candidates of each query node; sets
        // [nq, 2 nq) the nodes already examined for it while expanding.
        sets_(g.num_nodes(), 2 * nq_),
        can_(nq_),
        check_(in.exec) {}

  // Candidates per query node, or false when some query node has none
  // after refinement, or seeding was stopped (stats->stopped says which).
  //
  // One query node is seeded (Seed) and every other one is formed by the
  // cheaper of seeding and expansion from an already-formed neighbour
  // (Expand), one node at a time, cheapest step first.  Seeding costs the
  // summed length of the node's label lists; expansion the summed degree of
  // the neighbour's candidates in the query edge's direction.
  bool Run(std::vector<std::vector<NodeId>>* out) {
    std::vector<size_t> seed_cost(nq_, 0);
    for (NodeId u = 0; u < nq_; ++u) {
      for (LabelId l : in_.sim_labels[u]) {
        seed_cost[u] += cindex_.NodesWithLabel(l).size();
      }
    }
    std::vector<char> formed(nq_, 0);
    std::vector<std::array<size_t, 2>> expand_cost(nq_);  // see ExpandCost
    std::vector<char> stale(2 * in_.qedges.size(), 1);  // see RefineToFixpoint
    for (size_t step = 0; step < nq_; ++step) {
      NodeId next = kInvalidNode;
      const EdgeTriple* via = nullptr;
      size_t best = SIZE_MAX;
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
        // Expansion admits only nodes at the end of a data edge with the
        // query edge's label from a neighbour candidate: that edge's
        // support, so its test for `next` starts fresh.
        stale[2 * static_cast<size_t>(via - in_.qedges.data()) +
              (via->to == next ? 1 : 0)] = 0;
      }
      if (Stopped()) {
        stats_->stopped = MergeStopReason(stats_->stopped, check_.reason());
        return false;
      }
      if (next == in_.pivot) Restrict(next);
      if (can_[next].empty()) return false;
      formed[next] = 1;
      expand_cost[next] = ExpandCost(next);
    }
    // Fixpoint: a candidate needs a neighbour, along the query edge's
    // label, among the other endpoint's candidates.
    bool nonempty = RefineToFixpoint(
        in_.qedges, std::move(stale), &can_, &check_,
        [&](NodeId v, NodeId other, bool forward, LabelId label) {
          ++stats_->fixpoint_checks;
          return AnyNeighbor(v, forward, label,
                             [&](NodeId c) { return sets_.Has(c, other); });
        },
        [&](NodeId v, NodeId holder) {
          sets_.Remove(v, holder);
          ++stats_->pruned_nodes;
        },
        [&](const std::vector<NodeId>& list, size_t i, bool forward) {
          PrefetchAhead(list, i, forward);
        });
    if (!nonempty) return false;
    stats_->stopped = MergeStopReason(stats_->stopped, check_.reason());
    *out = std::move(can_);
    return true;
  }

 private:
  bool Stopped() const { return check_.reason() != StopReason::kNone; }

  // Calls visit(c) for each neighbour c of v along data edges labelled
  // `label`, out-edges when `forward`; true as soon as visit is.
  template <typename Visit>
  bool AnyNeighbor(NodeId v, bool forward, LabelId label,
                   Visit&& visit) const {
    for (const AdjEntry& a : forward ? g_.OutEdges(v) : g_.InEdges(v)) {
      if (a.label == label && visit(a.node)) return true;
    }
    return false;
  }

  // One node reached by expansion: polls the deadline, then counts the
  // node unless it was already examined for u.  Returns whether to examine
  // it; false also once the query is stopped (check_ says so).
  bool Visit(NodeId u, NodeId v) {
    if (check_.Stop() || !sets_.Add(v, nq_ + u)) return false;
    ++stats_->seed_visits;
    return true;
  }

  // Signature-index admission of v for u; every caller has checked that v
  // holds a theta-passing label for u.
  void Admit(NodeId u, NodeId v) {
    if (!cindex_.NodePasses(g_, v, in_.reqs[u])) {
      ++stats_->sig_node_rejections;
    } else if (sets_.Add(v, u)) {
      can_[u].push_back(v);
    }
  }

  // Seeds u's candidates from the label lists of its theta-passing labels;
  // the signature test rejects those that cannot satisfy u's incident
  // query edges.  A node has one label, so the lists are disjoint and each
  // entry is examined once without Visit's examined-set insert.
  //
  // Each list is read in blocks of kSeedBlock entries, so that no test
  // waits on one cache miss at a time: a block is mask-tested while the
  // next block's signatures are prefetched; then the survivors' offsets,
  // adjacency and set stamps are prefetched, and only then do they run the
  // degree test and the insert.  Every admission and rejection is the one
  // Admit would make, in the same order.
  void Seed(NodeId u) {
    const SignatureRequirement& req = in_.reqs[u];
    const bool out = !req.out_counts.empty();
    const bool in = !req.in_counts.empty();
    std::array<NodeId, kSeedBlock> passed;
    for (LabelId l : in_.sim_labels[u]) {
      const std::vector<NodeId>& list = cindex_.NodesWithLabel(l);
      for (size_t i = 0; i < std::min(list.size(), kSeedBlock); ++i) {
        cindex_.PrefetchSignature(list[i]);
      }
      for (size_t begin = 0; begin < list.size(); begin += kSeedBlock) {
        const size_t end = std::min(begin + kSeedBlock, list.size());
        for (size_t i = end; i < std::min(end + kSeedBlock, list.size());
             ++i) {
          cindex_.PrefetchSignature(list[i]);
        }
        size_t num_passed = 0;
        for (size_t i = begin; i < end; ++i) {
          if (check_.Stop()) return;
          ++stats_->seed_visits;
          if (cindex_.MasksPass(list[i], req)) {
            passed[num_passed++] = list[i];
          } else {
            ++stats_->sig_node_rejections;
          }
        }
        for (size_t i = 0; i < num_passed; ++i) {
          if (out) g_.PrefetchOffsets(passed[i], true);
          if (in) g_.PrefetchOffsets(passed[i], false);
          sets_.Prefetch(passed[i]);
        }
        for (size_t i = 0; i < num_passed; ++i) {
          if (out) g_.PrefetchAdjacency(passed[i], true);
          if (in) g_.PrefetchAdjacency(passed[i], false);
        }
        for (size_t i = 0; i < num_passed; ++i) {
          if (!CandidateIndex::DegreesPass(g_, passed[i], req)) {
            ++stats_->sig_node_rejections;
          } else if (sets_.Add(passed[i], u)) {
            can_[u].push_back(passed[i]);
          }
        }
      }
    }
  }

  // Forms u's candidates from its formed neighbour w across query edge e:
  // the neighbours of can_[w] along e, kept when they hold a theta-passing
  // label for u and pass u's signature test.  Lossless: a match maps e to
  // a data edge from the image of w into the image of u.
  //
  // Look-ahead: PrefetchAhead's offsets and adjacency, and, kReachAhead
  // candidates ahead of the one being expanded, the set stamp, label and
  // signature of each of its neighbours along e's label.
  void Expand(NodeId u, const EdgeTriple& e) {
    bool forward = e.to == u;
    NodeId w = forward ? e.from : e.to;
    const std::vector<LabelId>& labels = in_.sim_labels[u];
    const std::vector<NodeId>& from = can_[w];
    for (size_t i = 0; i < from.size(); ++i) {
      PrefetchAhead(from, i, forward);
      if (i + kReachAhead < from.size()) {
        AnyNeighbor(from[i + kReachAhead], forward, e.label, [&](NodeId c) {
          sets_.Prefetch(c);
          g_.PrefetchLabel(c);
          cindex_.PrefetchSignature(c);
          return false;
        });
      }
      bool stopped = AnyNeighbor(from[i], forward, e.label, [&](NodeId c) {
        if (!Visit(u, c)) return Stopped();
        if (std::binary_search(labels.begin(), labels.end(),
                               g_.NodeLabel(c))) {
          Admit(u, c);
        }
        return false;
      });
      if (stopped) return;
    }
  }

  // The look-ahead of a loop over `list` that reads, at position i, the
  // adjacency of list[i] in one direction: the offsets of the entry
  // kOffsetsAhead ahead, and the adjacency of the one kAdjacencyAhead
  // ahead, whose offsets were hinted that many iterations before.
  void PrefetchAhead(const std::vector<NodeId>& list, size_t i,
                     bool forward) const {
    if (i + kOffsetsAhead < list.size()) {
      g_.PrefetchOffsets(list[i + kOffsetsAhead], forward);
    }
    if (i + kAdjacencyAhead < list.size()) {
      g_.PrefetchAdjacency(list[i + kAdjacencyAhead], forward);
    }
  }

  // Degrees summed over can_[w], out and in: the costs of expanding from w
  // along an out- or in-edge.
  std::array<size_t, 2> ExpandCost(NodeId w) const {
    std::array<size_t, 2> cost{0, 0};
    for (NodeId x : can_[w]) {
      cost[0] += g_.OutDegree(x);
      cost[1] += g_.InDegree(x);
    }
    return cost;
  }

  // Pivot-seed restriction (sharded serving): drop disallowed pivot
  // candidates as soon as the pivot's set is formed, so both expansion and
  // refinement propagate the shard's cut to every other query node instead
  // of re-deriving the full single-engine candidate sets.
  void Restrict(NodeId u) {
    std::vector<NodeId>& list = can_[u];
    size_t kept = 0;
    for (NodeId v : list) {
      if (v < in_.allowed->size() && (*in_.allowed)[v] != 0) {
        list[kept++] = v;
      } else {
        sets_.Remove(v, u);
        ++stats_->pivot_restricted_nodes;
      }
    }
    list.resize(kept);
  }

  const StageInputs& in_;
  const Graph& g_;
  const CandidateIndex& cindex_;
  size_t nq_;
  FilterStats* stats_;
  CandidateSets sets_;
  std::vector<std::vector<NodeId>> can_;
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

  // Exact candidate-label tables: one ontology ball per query node.  Labels
  // carried by no data node cannot produce candidates and are dropped
  // immediately, so the inverted-list walk below never visits them.
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
  // to walk the label lists.
  const CandidateIndex& cindex = index.candidate_index();
  std::vector<SignatureRequirement> reqs(nq);
  std::vector<std::vector<LabelId>> sim_labels(nq);
  ParallelFor(num_threads, nq, [&](size_t u) {
    reqs[u] = BuildSignatureRequirement(query, static_cast<NodeId>(u),
                                        exact_label_sims);
    for (const auto& [label, unused_sim] : exact_label_sims[u]) {
      sim_labels[u].push_back(label);
    }
    std::sort(sim_labels[u].begin(), sim_labels[u].end());
  });

  // The query's edge list is loop-invariant; materialize it once.
  std::vector<EdgeTriple> qedges = query.EdgeList();
  const bool restricted =
      restriction != nullptr && restriction->allowed != nullptr;
  const StageInputs inputs{
      query, qedges, reqs, sim_labels, exec,
      restricted ? restriction->query_node : kInvalidNode,
      restricted ? restriction->allowed : nullptr};

  // Seed-and-expand plus the refinement fixpoint over the data graph.  Its
  // fixpoint is the greatest one among the nodes that clear theta and their
  // signature test; it is what shrinks G_v to exactly the union of
  // near-matches (cf. Fig. 9's G_v).
  std::vector<std::vector<NodeId>> can;
  if (!NodeStage(inputs, g, cindex, &result.stats).Run(&can)) {
    result.no_match = true;
    return result;
  }

  // G_v is the subgraph of the data graph induced by the candidates'
  // union (Prop. 4.2); KMatch searches the data graph through the
  // candidate lists, so only its size is recorded.
  {
    ScratchSlots gv(g.num_nodes());
    for (const std::vector<NodeId>& list : can) {
      for (NodeId v : list) gv.Insert(v);
    }
    result.stats.gv_nodes = gv.size();
  }
  result.graph = &g;
  result.candidates.resize(nq);
  ParallelFor(num_threads, nq, [&](size_t u) {
    const auto& sims = exact_label_sims[u];
    for (NodeId v : can[u]) {
      result.candidates[u].push_back({v, sims.at(g.NodeLabel(v))});
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
