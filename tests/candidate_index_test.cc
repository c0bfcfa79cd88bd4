#include "core/candidate_index.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "baseline/rewriting.h"
#include "baseline/simmatrix.h"
#include "common/rng.h"
#include "concept/concept_index.h"
#include "core/filtering.h"
#include "core/index_maintenance.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "graph/graph.h"
#include "test_util.h"

namespace osq {
namespace {

OntologyIndex BuildTravelIndex(const test::TravelFixture& f) {
  return OntologyIndex::Build(f.g, f.o, IndexOptions{});
}

TEST(CandidateIndexTest, RequirementAcceptsMatchesRejectsImpossible) {
  test::TravelFixture f = test::MakeTravelFixture();
  OntologyIndex index = BuildTravelIndex(f);
  const CandidateIndex& ci = index.candidate_index();

  // Exact label-sims tables at theta = 0.9 for the travel query.
  std::vector<std::unordered_map<LabelId, double>> sims(f.query.num_nodes());
  const SimilarityFunction& sim = index.sim();
  for (NodeId u = 0; u < f.query.num_nodes(); ++u) {
    for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
      double s =
          sim.Similarity(f.o, f.query.NodeLabel(u), f.g.NodeLabel(v), 0.9);
      if (s > 0.0) sims[u].emplace(f.g.NodeLabel(v), s);
    }
  }
  // The known match nodes (Example IV.3) must pass their query node's
  // requirement — signature tests are necessary conditions.
  EXPECT_TRUE(ci.NodePasses(
      index.data_graph(), f.rg, BuildSignatureRequirement(f.query, f.q_museum, sims)));
  EXPECT_TRUE(ci.NodePasses(
      index.data_graph(), f.ct, BuildSignatureRequirement(f.query, f.q_tourists, sims)));
  EXPECT_TRUE(ci.NodePasses(
      index.data_graph(), f.starlight, BuildSignatureRequirement(f.query, f.q_moonlight, sims)));

  // An impossible degree demand rejects everyone.
  SignatureRequirement impossible;
  impossible.out_counts.push_back({0, 1000});
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    EXPECT_FALSE(ci.NodePasses(index.data_graph(), v, impossible));
  }
}

// A generated dataset, the serving index over its own copy of the graph,
// and a few queries extracted from the dataset.
struct SmallWorld {
  gen::Dataset ds;
  OntologyIndex index;
  std::vector<Graph> queries;
};

SmallWorld MakeSmallWorld(uint64_t seed) {
  gen::ScenarioParams p;
  p.scale = 500;
  p.seed = seed;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  OntologyIndex index =
      OntologyIndex::Build(ds.graph, ds.ontology, IndexOptions{});
  SmallWorld w{std::move(ds), std::move(index), {}};
  Rng rng(seed + 7);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  size_t attempts = 0;
  while (w.queries.size() < 6 && ++attempts < 200) {
    Graph q = gen::ExtractQuery(w.ds.graph, w.ds.ontology, qp, &rng);
    if (!q.empty()) w.queries.push_back(std::move(q));
  }
  return w;
}

// The pair masks of one direction of a node's adjacency, ORed.
uint64_t OracleBits(const Graph& g, Graph::AdjSpan adj) {
  uint64_t bits = 0;
  for (const AdjEntry& e : adj) bits |= PairMask(e.label, g.NodeLabel(e.node));
  return bits;
}

// Independent oracle for one direction of NodePasses, straight from the
// adjacency: each edge needs one of its masks wholly inside the
// adjacency's pair bits, and its per-label degrees must reach every count.
bool OracleSidePasses(const Graph& g, Graph::AdjSpan adj,
                      const std::vector<EdgeMasks>& edges,
                      const LabelCounts& counts) {
  uint64_t bits = OracleBits(g, adj);
  std::map<LabelId, uint32_t> degree;
  for (const AdjEntry& e : adj) ++degree[e.label];
  for (const EdgeMasks& e : edges) {
    if (std::none_of(e.masks.begin(), e.masks.end(),
                     [&](uint64_t m) { return (bits & m) == m; })) {
      return false;
    }
  }
  for (const auto& [label, need] : counts) {
    if (degree[label] < need) return false;
  }
  return true;
}

// An edge's masks in the form BuildSignatureRequirement gives them:
// sorted, de-duplicated, with their OR.
EdgeMasks MakeEdgeMasks(std::vector<uint64_t> masks) {
  EdgeMasks e;
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  for (uint64_t m : masks) e.any |= m;
  e.masks = std::move(masks);
  return e;
}

// One direction of a random requirement for node v: up to three distinct
// edge labels, mostly v's own so the degree demand sits near its real
// degree, each with a count of 1-3 and one to three masks, each either
// the pair mask of one of v's own adjacency entries (contained) or that
// of a random pair (which mostly is not).
void RandomSide(const Graph& g, Graph::AdjSpan adj,
                const std::vector<LabelId>& edge_labels, Rng* rng,
                std::vector<EdgeMasks>* masks, LabelCounts* counts) {
  std::map<LabelId, uint32_t> picked;
  size_t num = rng->Index(4);
  for (size_t i = 0; i < num; ++i) {
    LabelId label = edge_labels[rng->Index(edge_labels.size())];
    const AdjEntry* own = nullptr;
    if (!adj.empty() && rng->Bernoulli(0.7)) {
      own = &adj[rng->Index(adj.size())];
      label = own->label;
    }
    std::vector<uint64_t> edge_masks;
    size_t num_masks = 1 + rng->Index(3);
    for (size_t m = 0; m < num_masks; ++m) {
      edge_masks.push_back(
          own != nullptr && rng->Bernoulli(0.4)
              ? PairMask(own->label, g.NodeLabel(own->node))
              : PairMask(label, static_cast<LabelId>(rng->Index(1 << 20))));
    }
    masks->push_back(MakeEdgeMasks(std::move(edge_masks)));
    picked[label] = static_cast<uint32_t>(1 + rng->Index(3));
  }
  counts->assign(picked.begin(), picked.end());
}

// NodePasses agrees with the adjacency oracle on every node for random
// requirements, and the stored pair bits are exactly the adjacency's.
// Returns how many (node, requirement) checks the degree demand alone
// decided, so the caller can see the count path was exercised.
size_t ExpectNodePassesMatchesAdjacency(const OntologyIndex& index,
                                        const std::vector<LabelId>& labels,
                                        Rng* rng) {
  const Graph& g = index.data_graph();
  const CandidateIndex& ci = index.candidate_index();
  EXPECT_EQ(ci.num_nodes(), g.num_nodes());
  size_t passed = 0;
  size_t failed = 0;
  size_t decided_by_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(ci.node_signature(v),
              (NodeSignature{OracleBits(g, g.OutEdges(v)),
                             OracleBits(g, g.InEdges(v))}))
        << "node " << v;
    for (size_t trial = 0; trial < 4; ++trial) {
      SignatureRequirement req;
      RandomSide(g, g.OutEdges(v), labels, rng, &req.out_masks,
                 &req.out_counts);
      RandomSide(g, g.InEdges(v), labels, rng, &req.in_masks,
                 &req.in_counts);
      bool masks_pass =
          OracleSidePasses(g, g.OutEdges(v), req.out_masks, {}) &&
          OracleSidePasses(g, g.InEdges(v), req.in_masks, {});
      bool expected =
          OracleSidePasses(g, g.OutEdges(v), req.out_masks, req.out_counts) &&
          OracleSidePasses(g, g.InEdges(v), req.in_masks, req.in_counts);
      EXPECT_EQ(ci.NodePasses(g, v, req), expected)
          << "node " << v << " trial " << trial;
      ++(expected ? passed : failed);
      if (masks_pass && !expected) ++decided_by_degree;
    }
  }
  EXPECT_GT(passed, 0u);
  EXPECT_GT(failed, 0u);
  return decided_by_degree;
}

TEST(CandidateIndexTest, NodeSignaturesMatchAdjacency) {
  SmallWorld w = MakeSmallWorld(23);
  const Graph& g = w.index.data_graph();
  std::set<LabelId> edge_labels;
  for (const EdgeTriple& e : g.EdgeList()) edge_labels.insert(e.label);
  std::vector<LabelId> labels(edge_labels.begin(), edge_labels.end());
  ASSERT_FALSE(labels.empty());
  Rng rng(41);

  ASSERT_TRUE(g.fully_frozen());
  EXPECT_GT(ExpectNodePassesMatchesAdjacency(w.index, labels, &rng), 0u);

  // Thaw some nodes: their adjacency (and degree test) now reads the
  // overlay.
  size_t applied = 0;
  for (size_t step = 0; step < 40; ++step) {
    NodeId u = static_cast<NodeId>(rng.Index(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
    LabelId label = labels[rng.Index(labels.size())];
    if (u != v && ApplyUpdate(&w.index, GraphUpdate::Insert(u, v, label))) {
      ++applied;
    }
    std::vector<EdgeTriple> edges = g.EdgeList();
    EdgeTriple e = edges[rng.Index(edges.size())];
    if (ApplyUpdate(&w.index, GraphUpdate::Delete(e.from, e.to, e.label))) {
      ++applied;
    }
  }
  ASSERT_GT(applied, 40u);
  ASSERT_FALSE(g.fully_frozen());
  EXPECT_GT(ExpectNodePassesMatchesAdjacency(w.index, labels, &rng), 0u);
}

// No false negatives: on random graphs every node passes the requirement
// of a query node built from its own adjacency (a star with one leaf per
// adjacency entry, each leaf's label table holding its data neighbour's
// label among random others).
TEST(CandidateIndexTest, EveryNodePassesTheRequirementOfItsOwnAdjacency) {
  for (uint64_t seed : {3u, 5u, 8u}) {
    Rng rng(seed);
    GraphBuilder b;
    const size_t n = 300;
    for (size_t v = 0; v < n; ++v) {
      b.AddNode(static_cast<LabelId>(rng.Index(1 << 16)));
    }
    for (size_t i = 0; i < 3 * n; ++i) {
      NodeId from = static_cast<NodeId>(rng.Index(n));
      NodeId to = static_cast<NodeId>(rng.Index(n));
      if (from != to) {
        b.AddEdge(from, to, static_cast<LabelId>(rng.Index(6)));
      }
    }
    Graph g = std::move(b).Build();
    CandidateIndex ci = CandidateIndex::Build(g, /*num_threads=*/1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Graph star;
      star.AddNode(g.NodeLabel(v));
      std::vector<std::unordered_map<LabelId, double>> sims(1);
      sims[0].emplace(g.NodeLabel(v), 1.0);
      auto add_leaf = [&](const AdjEntry& e, bool out) {
        NodeId leaf = star.AddNode(g.NodeLabel(e.node));
        if (out) {
          star.AddEdge(0, leaf, e.label);
        } else {
          star.AddEdge(leaf, 0, e.label);
        }
        std::unordered_map<LabelId, double> table;
        table.emplace(g.NodeLabel(e.node), 1.0);
        for (size_t k = rng.Index(4); k > 0; --k) {
          table.emplace(static_cast<LabelId>(rng.Index(1 << 16)), 0.9);
        }
        sims.push_back(std::move(table));
      };
      for (const AdjEntry& e : g.OutEdges(v)) add_leaf(e, true);
      for (const AdjEntry& e : g.InEdges(v)) add_leaf(e, false);
      EXPECT_TRUE(
          ci.NodePasses(g, v, BuildSignatureRequirement(star, 0, sims)))
          << "seed " << seed << " node " << v;
    }
  }
}

// The retired one-bit pair encoding: a splitmix64 finalizer of the packed
// pair, one bit per pair.
uint32_t OneBitPair(LabelId edge_label, LabelId node_label) {
  uint64_t x = (static_cast<uint64_t>(edge_label) << 32) | node_label;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x & 63);
}

// A Bloom collision the one-bit test let through: a node whose only
// out-neighbour carries label `a` shares its one-bit pair with the query's
// label `b`, so the one-bit union test passes it.  The three-bit masks of
// the two pairs share a bit, so an overlap test would pass it too; the
// containment test rejects it.
TEST(CandidateIndexTest, ThreeBitMasksRejectAOneBitCollision) {
  const LabelId person = 1;
  const LabelId likes = 7;
  const LabelId a = 2;
  LabelId b = a + 1;
  auto overlap_not_contained = [&](LabelId x) {
    uint64_t common = PairMask(likes, a) & PairMask(likes, x);
    return common != 0 && common != PairMask(likes, x);
  };
  while (OneBitPair(likes, b) != OneBitPair(likes, a) ||
         !overlap_not_contained(b)) {
    ++b;
  }
  Graph g;
  g.AddNode(person);
  g.AddNode(a);
  g.AddEdge(0, 1, likes);
  CandidateIndex ci = CandidateIndex::Build(g, /*num_threads=*/1);

  Graph q;
  q.AddNode(person);
  q.AddNode(b);
  q.AddEdge(0, 1, likes);
  std::vector<std::unordered_map<LabelId, double>> sims(2);
  sims[0].emplace(person, 1.0);
  sims[1].emplace(b, 1.0);
  SignatureRequirement req = BuildSignatureRequirement(q, 0, sims);

  uint64_t one_bit_sig = uint64_t{1} << OneBitPair(likes, a);
  uint64_t one_bit_mask = uint64_t{1} << OneBitPair(likes, b);
  EXPECT_NE(one_bit_sig & one_bit_mask, 0u);
  EXPECT_FALSE(ci.NodePasses(g, 0, req));
  // With the neighbour's true label in the table, the node passes.
  sims[1].emplace(a, 0.9);
  EXPECT_TRUE(ci.NodePasses(g, 0, BuildSignatureRequirement(q, 0, sims)));
}

std::set<NodeId> CandidateNodes(const FilterResult& r, NodeId q) {
  std::set<NodeId> out;
  for (const Candidate& c : r.candidates[q]) {
    out.insert(c.node);
  }
  return out;
}

// The signature tests only ever drop non-matches: the engine's complete
// answer equals both brute-force baselines, and every node of every
// baseline match survives into its query node's candidate list (Prop. 4.2).
TEST(CandidateIndexTest, FilterWithIndexIsLossless) {
  SmallWorld w = MakeSmallWorld(19);
  ASSERT_FALSE(w.queries.empty());
  const SimilarityFunction& sim = w.index.sim();
  for (const Graph& q : w.queries) {
    QueryOptions options;
    options.theta = 0.85;
    options.k = 0;  // all matches — strongest equality check

    FilterResult r = GviewFilter(w.index, q, options);
    std::vector<Match> engine =
        r.no_match ? std::vector<Match>{} : KMatch(q, r, options);
    std::vector<Match> rewrite =
        SubIsoRewrite(q, w.ds.graph, w.ds.ontology, sim, options);
    SimMatrix m =
        BuildSimMatrix(q, w.ds.graph, w.ds.ontology, sim, options.theta);
    std::vector<Match> vf2 = SimMatrixMatch(q, w.ds.graph, m, options);
    EXPECT_EQ(test::Canon(engine), test::Canon(rewrite));
    EXPECT_EQ(test::Canon(engine), test::Canon(vf2));

    ASSERT_TRUE(!r.no_match || vf2.empty());
    for (const Match& match : vf2) {
      for (NodeId u = 0; u < q.num_nodes(); ++u) {
        EXPECT_EQ(CandidateNodes(r, u).count(match.mapping[u]), 1u)
            << "query node " << u << " lost data node " << match.mapping[u];
      }
    }
  }
}

TEST(CandidateIndexTest, NodeLevelRejectionFiresOnDegreeDemand) {
  // Concept-graph refinement signatures are *set*-based (which blocks a
  // node reaches per edge label), but NodePasses also checks per-edge-label
  // *counts*.  Two nodes with identical refinement signatures and
  // different out-degrees therefore share a block of the paper's index —
  // and a query demanding the higher degree must reject the lower-degree
  // one at the node level.
  LabelDictionary dict;
  const LabelId person = dict.Intern("person");
  const LabelId museum = dict.Intern("museum");
  const LabelId cafe = dict.Intern("cafe");
  const LabelId likes = dict.Intern("likes");

  Graph g;
  g.AddNode(person);  // 0: two likes-edges — satisfies the query demand
  g.AddNode(person);  // 1: one likes-edge — node-level rejection target
  g.AddNode(museum);  // 2
  g.AddNode(museum);  // 3
  g.AddNode(cafe);    // 4
  g.AddEdge(0, 2, likes);
  g.AddEdge(0, 3, likes);
  g.AddEdge(1, 4, likes);

  // museum—cafe related: with one cluster they collapse into one concept,
  // so nodes 2/3/4 share a block and nodes 0/1 get identical refinement
  // signatures {(venue-block, likes)}.
  OntologyGraph o;
  o.AddRelation(museum, cafe);

  ConceptIndexOptions cidx;
  cidx.num_concept_graphs = 1;
  cidx.num_clusters = 1;
  ConceptIndex concepts = ConceptIndex::Build(g, o, IndexOptions{}, cidx);
  const ConceptGraph& cg = concepts.concept_graph(0);
  ASSERT_EQ(cg.BlockOf(0), cg.BlockOf(1))
      << "fixture invariant: equal refinement signatures share a block";
  OntologyIndex index = OntologyIndex::Build(g, o, IndexOptions{});

  // theta = 0.95 keeps cafe (sim 0.9) out of the museum candidate sets.
  Graph q;
  q.AddNode(person);
  q.AddNode(museum);
  q.AddNode(museum);
  q.AddEdge(0, 1, likes);
  q.AddEdge(0, 2, likes);

  QueryOptions options;
  options.theta = 0.95;
  options.k = 0;
  FilterResult r = GviewFilter(index, q, options);
  ASSERT_FALSE(r.no_match);
  EXPECT_GT(r.stats.sig_node_rejections, 0u);

  // Node 1 is rejected, node 0 kept; the museums are nodes 2 and 3.
  EXPECT_EQ(CandidateNodes(r, 0), (std::set<NodeId>{0}));
  EXPECT_EQ(CandidateNodes(r, 1), (std::set<NodeId>{2, 3}));
  EXPECT_EQ(CandidateNodes(r, 2), (std::set<NodeId>{2, 3}));
  std::set<std::vector<NodeId>> mappings;
  for (const Match& m : KMatch(q, r, options)) mappings.insert(m.mapping);
  EXPECT_EQ(mappings, (std::set<std::vector<NodeId>>{{0, 2, 3}, {0, 3, 2}}));
}

TEST(CandidateIndexTest, MaintainedIndexEqualsRebuild) {
  SmallWorld w = MakeSmallWorld(29);
  const Graph& g = w.index.data_graph();
  Rng rng(31);
  std::set<LabelId> edge_labels;
  for (const EdgeTriple& e : g.EdgeList()) edge_labels.insert(e.label);
  std::vector<LabelId> labels(edge_labels.begin(), edge_labels.end());
  ASSERT_FALSE(labels.empty());

  size_t applied = 0;
  for (size_t step = 0; step < 30; ++step) {
    if (step % 11 == 10) {
      LabelId label =
          g.NodeLabel(static_cast<NodeId>(rng.Index(g.num_nodes())));
      AddNodeWithIndex(&w.index, label);
      ++applied;
      continue;
    }
    GraphUpdate update;
    if (rng.Bernoulli(0.5) && g.num_edges() > 0) {
      std::vector<EdgeTriple> edges = g.EdgeList();
      EdgeTriple e = edges[rng.Index(edges.size())];
      update = GraphUpdate::Delete(e.from, e.to, e.label);
    } else {
      NodeId u = static_cast<NodeId>(rng.Index(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
      if (u == v) continue;
      update = GraphUpdate::Insert(u, v, labels[rng.Index(labels.size())]);
    }
    if (ApplyUpdate(&w.index, update)) ++applied;
  }
  ASSERT_GT(applied, 5u);

  // The incrementally maintained candidate index must be structurally
  // identical to one rebuilt from scratch over the same (mutated) graph —
  // every vector is canonically sorted, so equality is exact, not modulo
  // ordering.
  CandidateIndex fresh = CandidateIndex::Build(g, /*num_threads=*/1);
  EXPECT_TRUE(w.index.candidate_index() == fresh);
}

}  // namespace
}  // namespace osq
