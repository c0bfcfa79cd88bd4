// Randomized property tests cross-checking the engine against independent
// baselines on generated workloads (fixed seeds; parameterized over
// configurations).  These are the strongest correctness guarantees in the
// suite:
//   P1  KMatch == SubIsoRewrite == SimMatrixMatch (score multiset + match
//       sets) — the filtering-and-verification framework loses nothing
//       (Prop. 4.2) and ranks identically.
//   P2  theta == 1  =>  engine results == plain SubIso.
//   P3  Incrementally maintained index == batch-rebuilt index (query
//       equivalence) under random update streams, with the paper's concept
//       graphs, repaired by the same stream, Validate()-green.
//   P4  Monotonicity: lowering theta never loses a match.

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>
#include "baseline/rewriting.h"
#include "baseline/simmatrix.h"
#include "baseline/subiso.h"
#include "common/rng.h"
#include "concept/concept_index.h"
#include "core/filtering.h"
#include "core/index_maintenance.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/query_graph.h"
#include "test_util.h"

namespace osq {
namespace {

using test::Canon;

struct RandomWorld {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
};

RandomWorld MakeWorld(uint64_t seed, size_t nodes = 150, size_t edges = 450,
                      size_t labels = 25) {
  RandomWorld w;
  gen::SyntheticGraphParams gp;
  gp.num_nodes = nodes;
  gp.num_edges = edges;
  gp.num_labels = labels;
  gp.num_edge_labels = 2;
  gp.seed = seed;
  w.g = gen::MakeRandomGraph(gp, &w.dict);
  gen::SyntheticOntologyParams op;
  op.num_labels = labels;
  op.seed = seed + 1;
  w.o = gen::MakeTaxonomyOntology(op, &w.dict);
  return w;
}

std::vector<Graph> MakeQueries(const RandomWorld& w, uint64_t seed,
                               size_t count, size_t size) {
  Rng rng(seed);
  gen::QueryGenParams qp;
  qp.num_nodes = size;
  qp.generalize_prob = 0.5;
  qp.generalize_hops = 1;
  std::vector<Graph> queries;
  size_t attempts = 0;
  while (queries.size() < count && attempts < count * 20) {
    ++attempts;
    Graph q = gen::ExtractQuery(w.g, w.o, qp, &rng);
    if (!q.empty() && ValidateQuery(q).ok()) queries.push_back(std::move(q));
  }
  return queries;
}

class CrossCheckTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, int>> {};

TEST_P(CrossCheckTest, EngineAgreesWithBothBaselines) {
  auto [seed, theta, semantics_int] = GetParam();
  MatchSemantics semantics = semantics_int == 0
                                 ? MatchSemantics::kInduced
                                 : MatchSemantics::kHomomorphicEdges;
  RandomWorld w = MakeWorld(seed);
  SimilarityFunction sim(0.9);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});

  for (const Graph& q : MakeQueries(w, seed + 100, 5, 3)) {
    QueryOptions options;
    options.theta = theta;
    options.k = 0;  // compare COMPLETE result sets
    options.semantics = semantics;

    FilterResult filter = GviewFilter(index, q, options);
    std::vector<Match> engine = KMatch(q, filter, options);
    std::vector<Match> rewrite = SubIsoRewrite(q, w.g, w.o, sim, options);
    SimMatrix m = BuildSimMatrix(q, w.g, w.o, sim, theta);
    std::vector<Match> vf2 = SimMatrixMatch(q, w.g, m, options);

    EXPECT_EQ(Canon(engine), Canon(rewrite));
    EXPECT_EQ(Canon(engine), Canon(vf2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossCheckTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(1.0, 0.9, 0.81),
                       ::testing::Values(0, 1)));

class ThetaOneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThetaOneTest, EngineEqualsSubIsoAtThetaOne) {
  uint64_t seed = GetParam();
  RandomWorld w = MakeWorld(seed);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});
  Rng rng(seed + 7);
  gen::QueryGenParams qp;
  qp.num_nodes = 3;
  qp.generalize_prob = 0.0;  // identical labels => matches exist
  for (int i = 0; i < 5; ++i) {
    Graph q = gen::ExtractQuery(w.g, w.o, qp, &rng);
    if (q.empty()) continue;
    QueryOptions options;
    options.theta = 1.0;
    options.k = 0;
    FilterResult filter = GviewFilter(index, q, options);
    std::vector<Match> engine = KMatch(q, filter, options);
    std::vector<Match> iso = SubIso(q, w.g, options.semantics);
    EXPECT_EQ(Canon(engine), Canon(iso));
    EXPECT_FALSE(engine.empty());  // extracted from the graph itself
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThetaOneTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

class MaintenanceEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceEquivalenceTest, IncrementalEqualsBatch) {
  uint64_t seed = GetParam();
  RandomWorld w = MakeWorld(seed, 80, 200, 15);
  IndexOptions idx;
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, idx);
  ConceptIndexOptions cidx;
  cidx.seed = seed;
  ConceptIndex concepts = ConceptIndex::Build(w.g, w.o, idx, cidx);
  std::vector<Graph> queries = MakeQueries(w, seed + 50, 3, 3);

  Rng rng(seed + 9);
  for (int step = 0; step < 60; ++step) {
    NodeId u = static_cast<NodeId>(rng.Index(w.g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Index(w.g.num_nodes()));
    if (u == v) continue;
    LabelId el = static_cast<LabelId>(rng.Index(2));
    GraphUpdate upd = rng.Bernoulli(0.6) ? GraphUpdate::Insert(u, v, el)
                                         : GraphUpdate::Delete(u, v, el);
    if (ApplyUpdate(&w.g, &index, upd)) concepts.RepairAfterUpdate(upd);
    ASSERT_TRUE(concepts.Validate()) << "step " << step;
  }

  // Query-equivalence against a batch rebuild on the updated graph.
  OntologyIndex batch = OntologyIndex::Build(w.g, w.o, idx);
  for (const Graph& q : queries) {
    QueryOptions options;
    options.theta = 0.81;
    options.k = 0;
    FilterResult fi = GviewFilter(index, q, options);
    FilterResult fb = GviewFilter(batch, q, options);
    std::vector<Match> mi = KMatch(q, fi, options);
    std::vector<Match> mb = KMatch(q, fb, options);
    EXPECT_EQ(Canon(mi), Canon(mb));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaintenanceEquivalenceTest,
                         ::testing::Values(21u, 22u, 23u));

class MonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityTest, LoweringThetaNeverLosesMatches) {
  uint64_t seed = GetParam();
  RandomWorld w = MakeWorld(seed);
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, IndexOptions{});
  for (const Graph& q : MakeQueries(w, seed + 31, 4, 3)) {
    std::set<std::pair<std::vector<NodeId>, int64_t>> prev;
    for (double theta : {1.0, 0.9, 0.81, 0.729}) {
      QueryOptions options;
      options.theta = theta;
      options.k = 0;
      FilterResult filter = GviewFilter(index, q, options);
      auto cur = Canon(KMatch(q, filter, options));
      EXPECT_TRUE(std::includes(cur.begin(), cur.end(), prev.begin(),
                                prev.end()))
          << "theta " << theta;
      prev = std::move(cur);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonotonicityTest,
                         ::testing::Values(31u, 32u, 33u));


// P5: the whole pipeline works for every member of the similarity class
// (exponential / linear / reciprocal), agreeing with the rewriting and
// matrix baselines when those use the same function.
class ModelCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelCrossCheckTest, AllModelsAgreeAcrossAlgorithms) {
  int model = GetParam();
  RandomWorld w = MakeWorld(500 + model);
  IndexOptions idx;
  idx.similarity_model = static_cast<SimilarityModel>(model);
  idx.similarity_cutoff = 3;
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, idx);
  SimilarityFunction sim = MakeSimilarity(idx);

  for (const Graph& q : MakeQueries(w, 600 + model, 4, 3)) {
    QueryOptions options;
    options.theta = 0.5;
    options.k = 0;
    FilterResult filter = GviewFilter(index, q, options);
    std::vector<Match> engine = KMatch(q, filter, options);
    std::vector<Match> rewrite = SubIsoRewrite(q, w.g, w.o, sim, options);
    SimMatrix m = BuildSimMatrix(q, w.g, w.o, sim, options.theta);
    std::vector<Match> vf2 = SimMatrixMatch(q, w.g, m, options);
    EXPECT_EQ(Canon(engine), Canon(rewrite)) << "model " << model;
    EXPECT_EQ(Canon(engine), Canon(vf2)) << "model " << model;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelCrossCheckTest,
                         ::testing::Values(0, 1, 2));

// Scores reported by the engine always equal the sum of the candidates'
// exact ontology similarities, and every reported score clears theta|V_Q|.
TEST(ScoreSanityTest, ScoresMatchSimilaritySums) {
  RandomWorld w = MakeWorld(77);
  SimilarityFunction sim(0.9);
  IndexOptions idx;
  OntologyIndex index = OntologyIndex::Build(w.g, w.o, idx);
  for (const Graph& q : MakeQueries(w, 78, 5, 3)) {
    QueryOptions options;
    options.theta = 0.81;
    options.k = 0;
    FilterResult filter = GviewFilter(index, q, options);
    for (const Match& m : KMatch(q, filter, options)) {
      double expected = 0.0;
      for (NodeId u = 0; u < q.num_nodes(); ++u) {
        expected += sim.Similarity(w.o, q.NodeLabel(u),
                                   w.g.NodeLabel(m.mapping[u]), 0.5);
      }
      EXPECT_NEAR(m.score, expected, 1e-9);
      EXPECT_GE(m.score,
                options.theta * static_cast<double>(q.num_nodes()) - 1e-9);
    }
  }
}

}  // namespace
}  // namespace osq
