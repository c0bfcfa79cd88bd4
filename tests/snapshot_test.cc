#include "core/snapshot.h"

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "core/index_maintenance.h"
#include "core/query_engine.h"
#include "gen/query_gen.h"
#include "gen/scenarios.h"
#include "test_util.h"

namespace osq {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Builds the travel engine over copies of the fixture's graphs, so the
// fixture stays usable for queries.
QueryEngine MakeTravelEngine(const test::TravelFixture& f) {
  return QueryEngine(f.g, f.o, IndexOptions{});
}

// Two graphs describe the same data graph: same nodes, labels, and exact
// adjacency (CSR spans compare element-wise).
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.NodeLabel(v), b.NodeLabel(v));
    Graph::AdjSpan oa = a.OutEdges(v);
    Graph::AdjSpan ob = b.OutEdges(v);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) EXPECT_EQ(oa[i], ob[i]);
    Graph::AdjSpan ia = a.InEdges(v);
    Graph::AdjSpan ib = b.InEdges(v);
    ASSERT_EQ(ia.size(), ib.size());
    for (size_t i = 0; i < ia.size(); ++i) EXPECT_EQ(ia[i], ib[i]);
  }
}

// The loaded index must be *verbatim* the saved one: identical candidate
// signatures and label lists (the snapshot adopts state, it does not
// rebuild).
void ExpectSameIndex(const OntologyIndex& a, const OntologyIndex& b) {
  EXPECT_TRUE(a.candidate_index() == b.candidate_index());
}

// Saves `engine` through `dict`, reloads it, and checks that the
// dictionary, the graph, the index and the index options all come back
// verbatim.
void ExpectRoundTrip(const QueryEngine& engine, const LabelDictionary& dict,
                     const std::string& path) {
  ASSERT_TRUE(SaveEngineSnapshot(engine, dict, path).ok());

  LabelDictionary loaded_dict;
  std::unique_ptr<QueryEngine> loaded;
  SnapshotLoadStats stats;
  Status s = LoadEngineSnapshot(path, &loaded_dict, &loaded, &stats);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_GT(stats.file_bytes, 0u);

  // Dictionary restored name-for-name, id-for-id.
  ASSERT_EQ(loaded_dict.size(), dict.size());
  for (LabelId id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(loaded_dict.Name(id), dict.Name(id));
  }

  ExpectSameGraph(engine.graph(), loaded->graph());
  EXPECT_TRUE(loaded->graph().is_snapshot_backed());
  EXPECT_TRUE(loaded->graph().CheckConsistency());
  ExpectSameIndex(engine.index(), loaded->index());

  const IndexOptions& want = engine.index().options();
  const IndexOptions& got = loaded->index().options();
  EXPECT_EQ(got.similarity_model, want.similarity_model);
  EXPECT_EQ(got.similarity_base, want.similarity_base);
  EXPECT_EQ(got.similarity_cutoff, want.similarity_cutoff);
  EXPECT_EQ(loaded->index().sim().model(), engine.index().sim().model());
  EXPECT_EQ(loaded->index().sim().cutoff(), engine.index().sim().cutoff());
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  {
    SCOPED_TRACE("travel fixture, default options");
    test::TravelFixture f = test::MakeTravelFixture();
    QueryEngine engine = MakeTravelEngine(f);
    ExpectRoundTrip(engine, f.dict, TempPath("osq_snapshot_roundtrip.snp"));
  }
  {
    SCOPED_TRACE("travel fixture, every persisted option off its default");
    test::TravelFixture f = test::MakeTravelFixture();
    IndexOptions options;
    options.similarity_model = SimilarityModel::kLinear;
    options.similarity_base = 0.8;
    options.similarity_cutoff = 3;
    QueryEngine engine(f.g, f.o, options);
    ExpectRoundTrip(engine, f.dict, TempPath("osq_snapshot_options.snp"));
  }
  {
    SCOPED_TRACE("label names containing whitespace and '%'");
    LabelDictionary dict;
    LabelId royal = dict.Intern("royal gallery");
    LabelId tours = dict.Intern("culture\ttours");
    LabelId pct = dict.Intern("100% museum");
    Graph g;
    g.AddNode(royal);
    g.AddNode(tours);
    g.AddNode(pct);
    ASSERT_TRUE(g.AddEdge(0, 1, dict.Intern("rel")));
    OntologyGraph o;
    o.AddRelation(royal, tours);
    o.AddRelation(tours, pct);
    QueryEngine engine(std::move(g), std::move(o), IndexOptions{});
    ExpectRoundTrip(engine, dict, TempPath("osq_snapshot_labels.snp"));
  }
}

TEST(SnapshotTest, LoadedEngineAnswersQueriesIdentically) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_queries.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());

  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  ASSERT_TRUE(LoadEngineSnapshot(path, &dict, &loaded).ok());

  QueryOptions qopts;
  qopts.theta = 0.81;
  qopts.k = 0;
  QueryResult ra = engine.Query(f.query, qopts);
  QueryResult rb = loaded->Query(f.query, qopts);
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_EQ(ra.matches, rb.matches);
  EXPECT_FALSE(ra.matches.empty());
}

TEST(SnapshotTest, MaintenanceAfterLoadMatchesNeverSaved) {
  // The differential that justifies storing the signatures verbatim: the
  // same update stream applied to a reloaded engine and to one that was
  // never saved must produce identical indexes and identical answers.
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_maintenance.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());

  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  ASSERT_TRUE(LoadEngineSnapshot(path, &dict, &loaded).ok());

  std::vector<GraphUpdate> updates = {
      GraphUpdate::Insert(f.rp, f.starlight, f.near),
      GraphUpdate::Delete(f.ct, f.starlight, f.fav),
      GraphUpdate::Insert(f.ht, f.rg, f.guide),
      GraphUpdate::Insert(f.ct, f.starlight, f.fav),
  };
  MaintenanceStats sa = engine.ApplyUpdates(updates);
  MaintenanceStats sb = loaded->ApplyUpdates(updates);
  EXPECT_EQ(sa.applied, sb.applied);
  EXPECT_EQ(sa.skipped, sb.skipped);

  ExpectSameGraph(engine.graph(), loaded->graph());
  ExpectSameIndex(engine.index(), loaded->index());

  QueryOptions qopts;
  qopts.theta = 0.81;
  qopts.k = 0;
  QueryResult ra = engine.Query(f.query, qopts);
  QueryResult rb = loaded->Query(f.query, qopts);
  EXPECT_EQ(ra.matches, rb.matches);
}

// Generated data with linear-similarity options.
TEST(SnapshotTest, RoundTripOnGeneratedDataset) {
  gen::ScenarioParams p;
  p.scale = 400;
  gen::Dataset ds = gen::MakeCrossDomainLike(p);
  IndexOptions options;
  options.similarity_model = SimilarityModel::kLinear;
  options.similarity_cutoff = 3;
  QueryEngine engine(ds.graph, ds.ontology, options);
  const std::string path = TempPath("osq_snapshot_generated.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, ds.dict, path).ok());

  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  SnapshotLoadStats stats;
  ASSERT_TRUE(LoadEngineSnapshot(path, &dict, &loaded, &stats).ok());
  EXPECT_EQ(loaded->index().options().similarity_model,
            SimilarityModel::kLinear);
  ExpectSameGraph(engine.graph(), loaded->graph());
  ExpectSameIndex(engine.index(), loaded->index());

  gen::QueryGenParams qp;
  Rng rng(7);
  QueryOptions qopts;
  qopts.theta = 0.8;
  for (int i = 0; i < 4; ++i) {
    Graph q = gen::ExtractQuery(ds.graph, ds.ontology, qp, &rng);
    if (q.num_nodes() == 0) continue;
    QueryResult ra = engine.Query(q, qopts);
    QueryResult rb = loaded->Query(q, qopts);
    EXPECT_EQ(ra.status.ok(), rb.status.ok());
    EXPECT_EQ(ra.matches, rb.matches);
  }
}

TEST(SnapshotTest, EngineMoveAfterLoadKeepsAnswering) {
  // The loaded graph borrows the mapped file; moving the engine must move
  // the anchor along and rebind the index (regression guard for the
  // zero-copy pointer fixup).
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_move.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());

  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  ASSERT_TRUE(LoadEngineSnapshot(path, &dict, &loaded).ok());
  QueryEngine moved = std::move(*loaded);
  loaded.reset();  // destroy the shell the engine was loaded into

  QueryOptions qopts;
  qopts.theta = 0.81;
  QueryResult ra = engine.Query(f.query, qopts);
  QueryResult rb = moved.Query(f.query, qopts);
  EXPECT_EQ(ra.matches, rb.matches);
}

// A copy of a loaded graph shares the snapshot mapping, so it must keep
// the mapping alive once the engine that loaded it is gone: it still reads
// every edge and can still be mutated (the first edit thaws from the
// mapped arrays).
TEST(SnapshotTest, GraphCopyOutlivesTheLoadedEngine) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_copy.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());

  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  ASSERT_TRUE(LoadEngineSnapshot(path, &dict, &loaded).ok());
  Graph copy = loaded->graph();
  loaded.reset();

  EXPECT_TRUE(copy.is_snapshot_backed());
  ExpectSameGraph(engine.graph(), copy);
  EXPECT_TRUE(copy.CheckConsistency());
  ASSERT_GT(copy.num_edges(), 0u);
  EdgeTriple first = *copy.Edges().begin();
  EXPECT_TRUE(copy.RemoveEdge(first.from, first.to, first.label));
  EXPECT_EQ(copy.num_edges(), engine.graph().num_edges() - 1);
  EXPECT_TRUE(copy.CheckConsistency());
}

TEST(SnapshotTest, PrePopulatedDictionaryMustAgree) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_dict.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());

  // A dictionary whose id 0 is already taken by a different name cannot
  // adopt the snapshot's dictionary.
  LabelDictionary conflicting;
  conflicting.Intern("zzz_not_in_snapshot");
  std::unique_ptr<QueryEngine> loaded;
  EXPECT_EQ(LoadEngineSnapshot(path, &conflicting, &loaded).code(),
            StatusCode::kInvalidArgument);

  // An exact prefix copy agrees and loads fine.
  LabelDictionary agreeing;
  for (LabelId id = 0; id < f.dict.size(); ++id) {
    agreeing.Intern(f.dict.Name(id));
  }
  EXPECT_TRUE(LoadEngineSnapshot(path, &agreeing, &loaded).ok());
}

// A version-4 file (one Bloom bit per label pair) is refused, not read:
// under the three-bit containment test its signatures would reject true
// matches.  The header's version field is the u32 at byte 8.
TEST(SnapshotTest, VersionFourSnapshotIsRefused) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine = MakeTravelEngine(f);
  const std::string path = TempPath("osq_snapshot_v4.snp");
  ASSERT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint32_t v4 = 4;
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&v4), sizeof(v4));
  }
  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  Status s = LoadEngineSnapshot(path, &dict, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version 4"), std::string::npos) << s.message();
  EXPECT_EQ(loaded, nullptr);
}

TEST(SnapshotTest, MissingFileIsIoError) {
  LabelDictionary dict;
  std::unique_ptr<QueryEngine> loaded;
  EXPECT_EQ(LoadEngineSnapshot("/nonexistent/engine.snp", &dict, &loaded)
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace osq
