// Ingest differential oracle (DESIGN.md §14): the ONLINE write path —
// churn stream -> IngestPipeline -> serving tier, applied in batches
// while reader threads serve traffic — must land the exact same graph
// state as an OFFLINE batch rebuild, for both the single-engine service
// and the sharded coordinator.  After the stream drains, every workload
// query answered by the live service is compared for exact vector<Match>
// equality against a fresh oracle engine built over an offline replay of
// the full update history.  Three seeds; scripts/tier1.sh repeats this
// binary under ThreadSanitizer, making it the ingest stress stage (gate +
// snapshot lock + pipeline queue under real contention).  Labeled `slow`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "gen/churn.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "graph/graph.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_sink.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"

namespace osq {
namespace {

constexpr size_t kChunks = 20;
constexpr size_t kStepsPerChunk = 10;
constexpr size_t kReaders = 2;
constexpr size_t kReaderFloor = 20;

std::vector<Graph> MakeQueries(const gen::Dataset& ds, size_t count,
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

// Drives the churn stream through `pipeline` from one thread while
// `query` closures run closed-loop from kReaders others; returns after
// the pipeline drained.  `query` must be safe to call concurrently.
template <typename QueryFn>
void RunUnderLoad(gen::ChurnStream* churn, IngestPipeline* pipeline,
                  QueryFn&& query) {
  std::atomic<bool> done{false};
  RunConcurrently(kReaders + 1, [&](size_t tid) {
    if (tid == 0) {
      for (size_t chunk = 0; chunk < kChunks; ++chunk) {
        for (const GraphUpdate& update : churn->Next(kStepsPerChunk)) {
          // Backpressure shows up as a rejected Submit; the producer's
          // contract is to retry, not to drop the update.
          while (!pipeline->Submit(update)) {
            std::this_thread::yield();
          }
        }
        std::this_thread::yield();
      }
      pipeline->Flush();
      done.store(true, std::memory_order_release);
      return;
    }
    size_t iterations = 0;
    while (!done.load(std::memory_order_acquire) ||
           iterations < kReaderFloor) {
      query(iterations);
      ++iterations;
    }
  });
  pipeline->Stop();
}

// Offline batch replay: the same history through plain graph mutations
// with identical skip semantics.
Graph ReplayHistory(const Graph& seed,
                    const std::vector<GraphUpdate>& history) {
  Graph replay = seed;
  for (const GraphUpdate& u : history) {
    if (u.kind == GraphUpdate::Kind::kInsertEdge) {
      (void)replay.AddEdge(u.edge.from, u.edge.to, u.edge.label);
    } else {
      (void)replay.RemoveEdge(u.edge.from, u.edge.to, u.edge.label);
    }
  }
  return replay;
}

void CheckServeInvariants(const ServeStats& stats) {
  EXPECT_EQ(stats.queries, stats.cache_hits + stats.cache_misses);
  EXPECT_EQ(stats.total_requests(), stats.queries + stats.shed);
  EXPECT_EQ(stats.queries, stats.hit_latency.count +
                               stats.miss_latency.count +
                               stats.degraded_latency.count);
}

void CheckIngestDrained(const IngestStats& stats) {
  EXPECT_EQ(stats.backlog, 0u);
  // Submissions partition exactly: accepted into the queue, coalesced
  // into an earlier pending update, or rejected by backpressure (the
  // producer retried each rejection until the submit landed, so
  // rejections cost retries but never lose updates).
  EXPECT_EQ(stats.submitted,
            stats.accepted + stats.coalesced + stats.rejected);
  // Every accepted update reached the sink exactly once.
  EXPECT_EQ(stats.accepted, stats.applied + stats.skipped);
  EXPECT_GE(stats.coalescing_ratio(), 1.0);
}

void RunSingleEngineDifferential(uint64_t seed) {
  gen::ScenarioParams p;
  p.scale = 300;
  p.seed = seed;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  std::vector<Graph> queries = MakeQueries(ds, 4, seed * 31 + 1);
  ASSERT_FALSE(queries.empty());

  IndexOptions idx;
  QueryOptions qo;
  qo.theta = 0.85;
  qo.k = 8;

  QueryService service(QueryEngine(ds.graph, ds.ontology, idx),
                       ServeOptions{});
  QueryServiceSink sink(&service);
  IngestOptions io;
  io.max_batch = 16;
  io.max_linger_ms = 1.0;
  io.max_pending = 64;  // small bound so backpressure actually exercises
  IngestPipeline pipeline(&sink, io);

  gen::ChurnParams cp;
  cp.seed = seed * 131 + 7;
  gen::ChurnStream churn(ds.graph, cp);

  RunUnderLoad(&churn, &pipeline, [&](size_t it) {
    ServedResult served = service.Query(queries[it % queries.size()], qo);
    ASSERT_TRUE(served.result.status.ok());
  });

  // Oracle: offline batch rebuild over the full history.
  Graph replay = ReplayHistory(ds.graph, churn.history());
  QueryEngine oracle(replay, ds.ontology, idx);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryResult expected = oracle.Query(queries[qi], qo);
    ServedResult served = service.Query(queries[qi], qo);
    ASSERT_EQ(served.result.status.code(), expected.status.code())
        << "seed " << seed << " query " << qi;
    if (!expected.status.ok()) continue;
    ASSERT_TRUE(served.result.complete()) << "seed " << seed;
    ASSERT_EQ(served.result.matches, expected.matches)
        << "seed " << seed << " query " << qi;
  }

  const QueryEngine& engine = service.engine_unsynchronized();
  EXPECT_TRUE(engine.index().candidate_index() ==
              CandidateIndex::Build(engine.graph(), /*num_threads=*/1));
  CheckServeInvariants(service.Stats());
  CheckIngestDrained(pipeline.Stats());
}

void RunShardedDifferential(uint64_t seed) {
  gen::ScenarioParams p;
  p.scale = 300;
  p.seed = seed;
  gen::Dataset ds = gen::MakeFlickrLike(p);
  std::vector<Graph> queries = MakeQueries(ds, 4, seed * 31 + 1);
  ASSERT_FALSE(queries.empty());

  IndexOptions idx;
  QueryOptions qo;
  qo.theta = 0.85;
  qo.k = 8;

  ShardOptions so;
  so.num_shards = 3;
  so.halo_radius = 3;
  ShardedQueryService service(ds.graph, ds.ontology, idx, so);
  ShardedServiceSink sink(&service);
  IngestOptions io;
  io.max_batch = 16;
  io.max_linger_ms = 1.0;
  io.max_pending = 64;
  IngestPipeline pipeline(&sink, io);

  gen::ChurnParams cp;
  cp.seed = seed * 131 + 7;
  gen::ChurnStream churn(ds.graph, cp);

  RunUnderLoad(&churn, &pipeline, [&](size_t it) {
    ShardedServedResult served =
        service.Query(queries[it % queries.size()], qo);
    ASSERT_TRUE(served.result.status.ok());
  });

  Graph replay = ReplayHistory(ds.graph, churn.history());
  QueryEngine oracle(replay, ds.ontology, idx);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryResult expected = oracle.Query(queries[qi], qo);
    ShardedServedResult served = service.Query(queries[qi], qo);
    ASSERT_EQ(served.result.status.code(), expected.status.code())
        << "seed " << seed << " query " << qi;
    if (!expected.status.ok()) continue;
    ASSERT_TRUE(served.result.complete()) << "seed " << seed;
    ASSERT_EQ(served.result.matches, expected.matches)
        << "seed " << seed << " query " << qi;
  }

  CheckServeInvariants(service.Stats());
  CheckIngestDrained(pipeline.Stats());
}

TEST(IngestDifferentialTest, SingleEngineSeedA) {
  RunSingleEngineDifferential(3);
}

TEST(IngestDifferentialTest, SingleEngineSeedB) {
  RunSingleEngineDifferential(19);
}

TEST(IngestDifferentialTest, SingleEngineSeedC) {
  RunSingleEngineDifferential(59);
}

TEST(IngestDifferentialTest, ShardedSeedA) { RunShardedDifferential(3); }

TEST(IngestDifferentialTest, ShardedSeedB) { RunShardedDifferential(19); }

TEST(IngestDifferentialTest, ShardedSeedC) { RunShardedDifferential(59); }

}  // namespace
}  // namespace osq
