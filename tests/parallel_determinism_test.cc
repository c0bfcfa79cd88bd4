// Determinism of the parallel pipelines: the spec for QueryOptions /
// IndexOptions::num_threads is that results are identical for every thread
// count (see DESIGN.md "Parallel execution").  These tests pin that down on
// a seeded end-to-end workload, a tie-heavy KMatchOnGraph workload (the
// hard case for the shared top-K pool), and parallel index builds.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "core/ontology_index.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "gen/workload.h"
#include "graph/graph.h"
#include "graph/query_graph.h"

namespace osq {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4};

std::vector<Graph> MakeQueries(const gen::Dataset& ds, size_t count,
                               uint64_t seed) {
  Rng rng(seed);
  gen::QueryGenParams qp;
  qp.num_nodes = 4;
  qp.generalize_prob = 0.5;
  std::vector<Graph> queries;
  while (queries.size() < count) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (!q.empty()) queries.push_back(std::move(q));
  }
  return queries;
}

TEST(ParallelDeterminismTest, EndToEndQueryMatchesAcrossThreadCounts) {
  gen::ScenarioParams p;
  p.scale = 1200;
  p.seed = 42;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  std::vector<Graph> queries = MakeQueries(ds, 5, 23);

  IndexOptions idx;
  idx.num_concept_graphs = 2;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology), idx);

  // Reference: the sequential path.
  QueryOptions options;
  options.theta = 0.85;
  options.k = 8;
  std::vector<std::vector<Match>> reference;
  for (const Graph& q : queries) {
    QueryResult r = engine.Query(q, options);
    ASSERT_TRUE(r.status.ok());
    reference.push_back(std::move(r.matches));
  }

  for (size_t threads : kThreadCounts) {
    options.num_threads = threads;
    // Two repeats per thread count: run-to-run determinism, not just
    // agreement with the sequential reference.
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (size_t i = 0; i < queries.size(); ++i) {
        QueryResult r = engine.Query(queries[i], options);
        ASSERT_TRUE(r.status.ok());
        EXPECT_EQ(r.matches, reference[i])
            << "threads=" << threads << " repeat=" << repeat
            << " query=" << i;
      }
    }
  }
}

// Tie-heavy workload: many disjoint same-label edges, every candidate with
// the same similarity, K smaller than the number of full-score matches.
// Which boundary ties are kept is exploration-order dependent in general,
// so this is exactly where a timing-dependent implementation would diverge.
TEST(ParallelDeterminismTest, TieHeavyTopKIsThreadCountInvariant) {
  constexpr size_t kPairs = 12;
  Graph target;
  for (size_t i = 0; i < kPairs; ++i) {
    NodeId a = target.AddNode(/*label=*/1);
    NodeId b = target.AddNode(/*label=*/2);
    ASSERT_TRUE(target.AddEdge(a, b, /*label=*/7));
  }
  Graph query;
  NodeId u = query.AddNode(1);
  NodeId v = query.AddNode(2);
  ASSERT_TRUE(query.AddEdge(u, v, 7));

  std::vector<std::vector<Candidate>> candidates(2);
  for (size_t i = 0; i < kPairs; ++i) {
    candidates[0].push_back({static_cast<NodeId>(2 * i), 0.9});
    candidates[1].push_back({static_cast<NodeId>(2 * i + 1), 0.9});
  }

  QueryOptions options;
  options.theta = 0.5;
  options.k = 4;
  std::vector<Match> reference =
      KMatchOnGraph(query, target, candidates, options);
  ASSERT_EQ(reference.size(), 4u);

  for (size_t threads : kThreadCounts) {
    options.num_threads = threads;
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::vector<Match> got =
          KMatchOnGraph(query, target, candidates, options);
      EXPECT_EQ(got, reference)
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

// k == 0 ("all matches") exercises the append-only commit path.
TEST(ParallelDeterminismTest, AllMatchesModeIsThreadCountInvariant) {
  gen::ScenarioParams p;
  p.scale = 600;
  p.seed = 5;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  std::vector<Graph> queries = MakeQueries(ds, 3, 77);

  IndexOptions idx;
  idx.num_concept_graphs = 2;
  OntologyIndex index = OntologyIndex::Build(ds.graph, ds.ontology, idx);

  QueryOptions options;
  options.theta = 0.9;
  options.k = 0;
  for (const Graph& q : queries) {
    FilterResult filter = GviewFilter(index, q, options);
    std::vector<Match> reference = KMatch(q, filter, options);
    for (size_t threads : kThreadCounts) {
      options.num_threads = threads;
      EXPECT_EQ(KMatch(q, filter, options), reference)
          << "threads=" << threads;
    }
    options.num_threads = 1;
  }
}

// Community-like |V| = 8k (data seed 11, the work ledger's input): every
// worker reads the one candidate rank table and per-depth anchor table of
// a query while generating candidates from its own assignment, so the
// pools must be bit-identical at 1 and 4 threads.
TEST(ParallelDeterminismTest, Community8kKMatchIsThreadCountInvariant) {
  gen::ScenarioParams p;
  p.scale = 8000;
  p.seed = 11;
  gen::Workload w = gen::MakeCommunityWorkload(p, 20);
  OntologyIndex index =
      OntologyIndex::Build(w.data.graph, w.data.ontology, IndexOptions{});

  QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  size_t queries = 0;
  size_t matches = 0;
  for (const gen::QueryTemplate& t : w.templates) {
    for (const Graph& q : t.queries) {
      if (!ValidateQuery(q).ok()) continue;
      ++queries;
      FilterResult filter = GviewFilter(index, q, options);
      options.num_threads = 1;
      std::vector<Match> reference = KMatch(q, filter, options);
      matches += reference.size();
      options.num_threads = 4;
      for (int repeat = 0; repeat < 2; ++repeat) {
        EXPECT_EQ(KMatch(q, filter, options), reference)
            << "query=" << queries << " repeat=" << repeat;
      }
    }
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(matches, 0u);
}

TEST(ParallelDeterminismTest, IndexBuildIsThreadCountInvariant) {
  gen::ScenarioParams p;
  p.scale = 800;
  p.seed = 9;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  std::vector<Graph> queries = MakeQueries(ds, 3, 31);

  IndexOptions idx;
  idx.num_concept_graphs = 3;
  IndexBuildStats ref_stats;
  OntologyIndex reference =
      OntologyIndex::Build(ds.graph, ds.ontology, idx, &ref_stats);
  ASSERT_TRUE(reference.Validate());

  QueryOptions options;
  options.theta = 0.85;
  options.k = 6;
  std::vector<std::vector<Match>> ref_matches;
  for (const Graph& q : queries) {
    FilterResult filter = GviewFilter(reference, q, options);
    ref_matches.push_back(KMatch(q, filter, options));
  }

  for (size_t threads : kThreadCounts) {
    idx.num_threads = threads;
    IndexBuildStats stats;
    OntologyIndex index =
        OntologyIndex::Build(ds.graph, ds.ontology, idx, &stats);
    ASSERT_TRUE(index.Validate());
    EXPECT_EQ(index.TotalSize(), reference.TotalSize())
        << "threads=" << threads;
    EXPECT_EQ(stats.total_blocks, ref_stats.total_blocks);
    EXPECT_EQ(stats.total_splits, ref_stats.total_splits);
    // The index is defined by what it answers: filter + verify must agree
    // with the sequentially built index on every query.
    for (size_t i = 0; i < queries.size(); ++i) {
      FilterResult filter = GviewFilter(index, queries[i], options);
      EXPECT_EQ(KMatch(queries[i], filter, options), ref_matches[i])
          << "threads=" << threads << " query=" << i;
    }
  }
}

}  // namespace
}  // namespace osq
