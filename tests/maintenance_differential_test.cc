// End-to-end differential check of incremental index maintenance
// (DESIGN.md §E8, "incremental ≡ batch"): drive a randomized mixed
// insert/delete/add-node stream through one graph — repairing both the
// serving index and the paper's concept graphs (incIdx) after each
// update — while mirroring every mutation onto a twin graph, and
// periodically assert that the maintained concept graphs still validate
// and that the maintained serving index answers a generated query
// workload *identically* to an index batch-rebuilt from scratch over the
// twin.  The index is defined by what it answers, so query equivalence —
// not structural equality — is the correctness contract (incIdx may
// legally settle on a finer-but-stable partition).  Labeled `slow`.

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "concept/concept_index.h"
#include "core/filtering.h"
#include "core/index_maintenance.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "graph/graph.h"

namespace osq {
namespace {

std::vector<Graph> MakeWorkload(const gen::Dataset& ds, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  size_t attempts = 0;
  while (queries.size() < count && ++attempts < count * 20) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<LabelId> EdgeLabelUniverse(const Graph& g) {
  std::set<LabelId> labels;
  for (const EdgeTriple& e : g.EdgeList()) labels.insert(e.label);
  return {labels.begin(), labels.end()};
}

// Runs one seeded stream: `steps` random updates applied incrementally to
// (graph, serving index, concept index) and mirrored onto `twin`; every
// `check_every` steps the concept graphs are validated and the full
// workload is answered by both the maintained index and a batch rebuild
// and compared match-for-match.
void RunStream(uint64_t scenario_seed, uint64_t stream_seed) {
  gen::ScenarioParams p;
  p.scale = 400;
  p.seed = scenario_seed;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Graph twin = ds.graph;

  IndexOptions idx;
  OntologyIndex inc = OntologyIndex::Build(ds.graph, ds.ontology, idx);
  // The index owns the graph the stream mutates.
  const Graph& g = inc.data_graph();
  ConceptIndex concepts = ConceptIndex::Build(g, ds.ontology, idx, {});
  ASSERT_EQ(concepts.num_concept_graphs(), 2u);
  ASSERT_TRUE(concepts.Validate());

  std::vector<Graph> queries = MakeWorkload(ds, 4, stream_seed + 1);
  ASSERT_FALSE(queries.empty());

  QueryOptions options;
  options.theta = 0.85;
  options.k = 8;

  constexpr size_t kSteps = 60;
  constexpr size_t kCheckEvery = 20;
  Rng rng(stream_seed);
  std::vector<LabelId> labels = EdgeLabelUniverse(g);
  ASSERT_FALSE(labels.empty());

  size_t applied = 0;
  for (size_t step = 1; step <= kSteps; ++step) {
    if (step % 17 == 0) {
      // Occasionally grow the node set; new nodes join later edge updates.
      LabelId label = g.NodeLabel(
          static_cast<NodeId>(rng.Index(g.num_nodes())));
      NodeId inc_id = AddNodeWithIndex(&inc, label);
      concepts.RegisterNewNode(inc_id);
      NodeId twin_id = twin.AddNode(label);
      ASSERT_EQ(inc_id, twin_id);
      continue;
    }
    GraphUpdate update;
    if (rng.Bernoulli(0.5) && g.num_edges() > 0) {
      // Delete an existing edge (uniform over the current edge list).
      std::vector<EdgeTriple> edges = g.EdgeList();
      EdgeTriple e = edges[rng.Index(edges.size())];
      update = GraphUpdate::Delete(e.from, e.to, e.label);
    } else {
      NodeId u = static_cast<NodeId>(rng.Index(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
      if (u == v) continue;
      update = GraphUpdate::Insert(u, v, labels[rng.Index(labels.size())]);
    }
    bool inc_applied = ApplyUpdate(&inc, update);
    if (inc_applied) concepts.RepairAfterUpdate(update);
    bool twin_applied =
        update.kind == GraphUpdate::Kind::kInsertEdge
            ? twin.AddEdge(update.edge.from, update.edge.to,
                           update.edge.label)
            : twin.RemoveEdge(update.edge.from, update.edge.to,
                              update.edge.label);
    ASSERT_EQ(inc_applied, twin_applied) << "step " << step;
    if (inc_applied) ++applied;

    if (step % kCheckEvery != 0 && step != kSteps) continue;
    ASSERT_TRUE(concepts.Validate()) << "step " << step;
    ASSERT_TRUE(g.CheckConsistency()) << "step " << step;
    OntologyIndex batch = OntologyIndex::Build(twin, ds.ontology, idx);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      FilterResult inc_filter = GviewFilter(inc, queries[qi], options);
      FilterResult batch_filter = GviewFilter(batch, queries[qi], options);
      std::vector<Match> inc_matches =
          KMatch(queries[qi], inc_filter, options);
      std::vector<Match> batch_matches =
          KMatch(queries[qi], batch_filter, options);
      ASSERT_EQ(inc_matches, batch_matches)
          << "seed " << scenario_seed << "/" << stream_seed << " step "
          << step << " query " << qi;
    }
  }
  // The stream must have actually exercised the maintenance path.
  ASSERT_GT(applied, kSteps / 4);
}

TEST(MaintenanceDifferentialTest, RandomStreamSeedA) { RunStream(11, 101); }

TEST(MaintenanceDifferentialTest, RandomStreamSeedB) { RunStream(23, 202); }

TEST(MaintenanceDifferentialTest, RandomStreamSeedC) { RunStream(37, 303); }

}  // namespace
}  // namespace osq
