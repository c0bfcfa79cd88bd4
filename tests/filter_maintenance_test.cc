// Differential check of the candidate-pruning index under maintenance
// (DESIGN.md §11): drive a randomized mixed insert/delete/add-node stream
// through the serving index's maintenance (the one QueryEngine keeps)
// while mirroring every mutation onto a twin graph, and periodically
// assert
//   (a) the incrementally repaired CandidateIndex is structurally EQUAL to
//       one rebuilt from scratch over the same graph — exact equality,
//       every stored vector is canonically sorted;
//   (b) the Gview candidate sets (in original node ids) of the maintained
//       index equal those of a batch-rebuilt index;
//   (c) the returned matches are identical.
// Runs with num_threads = 2 so the TSan tier-1 stage exercises the
// parallel build/filter paths.  Labeled `slow`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/candidate_index.h"
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

// Per-query-node candidate sets in ORIGINAL node ids — the output the
// maintained and batch indexes must agree on, whatever their G_v node
// numbering.
std::vector<std::set<NodeId>> CandidateSets(const Graph& query,
                                            const FilterResult& r) {
  std::vector<std::set<NodeId>> sets(query.num_nodes());
  if (r.no_match) return sets;
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    for (const Candidate& c : r.candidates[u]) {
      sets[u].insert(r.gv.to_original[c.node]);
    }
  }
  return sets;
}

void RunStream(uint64_t scenario_seed, uint64_t stream_seed) {
  gen::ScenarioParams p;
  p.scale = 400;
  p.seed = scenario_seed;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  Graph twin = ds.graph;

  IndexOptions idx;
  idx.num_threads = 2;  // exercise the parallel build under TSan
  OntologyIndex inc = OntologyIndex::Build(ds.graph, ds.ontology, idx);

  std::vector<Graph> queries = MakeWorkload(ds, 4, stream_seed + 1);
  ASSERT_FALSE(queries.empty());

  QueryOptions options;
  options.theta = 0.85;
  options.k = 8;
  options.num_threads = 2;

  constexpr size_t kSteps = 60;
  constexpr size_t kCheckEvery = 20;
  Rng rng(stream_seed);
  std::vector<LabelId> labels = EdgeLabelUniverse(ds.graph);
  ASSERT_FALSE(labels.empty());

  size_t applied = 0;
  for (size_t step = 1; step <= kSteps; ++step) {
    if (step % 17 == 0) {
      LabelId label = ds.graph.NodeLabel(
          static_cast<NodeId>(rng.Index(ds.graph.num_nodes())));
      NodeId inc_id = AddNodeWithIndex(&ds.graph, &inc, label);
      NodeId twin_id = twin.AddNode(label);
      ASSERT_EQ(inc_id, twin_id);
      continue;
    }
    GraphUpdate update;
    if (rng.Bernoulli(0.5) && ds.graph.num_edges() > 0) {
      std::vector<EdgeTriple> edges = ds.graph.EdgeList();
      EdgeTriple e = edges[rng.Index(edges.size())];
      update = GraphUpdate::Delete(e.from, e.to, e.label);
    } else {
      NodeId u = static_cast<NodeId>(rng.Index(ds.graph.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.Index(ds.graph.num_nodes()));
      if (u == v) continue;
      update = GraphUpdate::Insert(u, v, labels[rng.Index(labels.size())]);
    }
    bool inc_applied = ApplyUpdate(&ds.graph, &inc, update);
    bool twin_applied =
        update.kind == GraphUpdate::Kind::kInsertEdge
            ? twin.AddEdge(update.edge.from, update.edge.to,
                           update.edge.label)
            : twin.RemoveEdge(update.edge.from, update.edge.to,
                              update.edge.label);
    ASSERT_EQ(inc_applied, twin_applied) << "step " << step;
    if (inc_applied) ++applied;

    if (step % kCheckEvery != 0 && step != kSteps) continue;

    // (a) Repaired signatures == fresh build over the same graph.
    CandidateIndex fresh = CandidateIndex::Build(ds.graph, /*num_threads=*/2);
    ASSERT_TRUE(inc.candidate_index() == fresh)
        << "seed " << scenario_seed << "/" << stream_seed << " step "
        << step;

    // (b) + (c) against a batch rebuild over the twin.
    OntologyIndex batch = OntologyIndex::Build(twin, ds.ontology, idx);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      FilterResult inc_filter = GviewFilter(inc, queries[qi], options);
      FilterResult batch_filter = GviewFilter(batch, queries[qi], options);
      ASSERT_EQ(inc_filter.no_match, batch_filter.no_match)
          << "seed " << scenario_seed << "/" << stream_seed << " step "
          << step << " query " << qi;
      ASSERT_EQ(CandidateSets(queries[qi], inc_filter),
                CandidateSets(queries[qi], batch_filter))
          << "seed " << scenario_seed << "/" << stream_seed << " step "
          << step << " query " << qi;
      if (inc_filter.no_match) continue;
      std::vector<Match> inc_matches =
          KMatch(queries[qi], inc_filter, options);
      std::vector<Match> batch_matches =
          KMatch(queries[qi], batch_filter, options);
      ASSERT_EQ(inc_matches.size(), batch_matches.size());
      for (size_t m = 0; m < inc_matches.size(); ++m) {
        // KMatch reports mappings in original node ids, so the two
        // indexes' matches compare directly even though their G_v node
        // numbering may differ.
        ASSERT_EQ(inc_matches[m].mapping, batch_matches[m].mapping)
            << "seed " << scenario_seed << "/" << stream_seed << " step "
            << step << " query " << qi;
        ASSERT_DOUBLE_EQ(inc_matches[m].score, batch_matches[m].score);
      }
    }
  }
  ASSERT_GT(applied, kSteps / 4);
}

TEST(FilterMaintenanceTest, RandomStreamSeedA) { RunStream(41, 401); }

TEST(FilterMaintenanceTest, RandomStreamSeedB) { RunStream(53, 502); }

TEST(FilterMaintenanceTest, RandomStreamSeedC) { RunStream(67, 603); }

}  // namespace
}  // namespace osq
