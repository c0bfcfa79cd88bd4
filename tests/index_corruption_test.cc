// Corrupted-snapshot suite for LoadEngineSnapshot (core/snapshot.cc): every
// way a snapshot can lie — bad magic or version, truncation, bit flips, a
// wrong stored hash or file size, malformed section tables, implausible
// graph counts — must come back as a *distinct* error status, and must
// never crash or return a half-built engine.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.h"
#include "core/snapshot.h"
#include "graph/label_dictionary.h"
#include "test_util.h"

namespace osq {
namespace {

// The cases below mutate raw snapshot bytes, so they hard-code the spec'd
// header layout: magic[8], version u32 @8, section_count u32 @12,
// file_size u64 @16, payload_hash u64 @24 (FNV-1a 64 over everything after
// the 40-byte header), then section entries of 24 bytes each
// (type u32 @+0, offset u64 @+8, size u64 @+16).

constexpr size_t kV2HeaderBytes = 40;
constexpr size_t kV2EntryBytes = 24;

// A scratch file named after the running test: ctest runs every test in
// its own process, in parallel, so one shared name let concurrent tests
// overwrite each other's bytes.
std::string PerTestPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem + "_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".snp";
}

std::string BuildValidSnapshotBytes() {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryEngine engine(f.g, f.o, IndexOptions{});
  const std::string path = PerTestPath("osq_v2_corruption_base");
  EXPECT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Independent reimplementation of the format's payload hash: word-blocked
// FNV-1a 64 — 8 little-endian bytes per xor-multiply step, byte-wise tail.
uint64_t TestFnv1a(const char* data, size_t size) {
  uint64_t h = 14695981039346656037ull;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, sizeof(w));
    h ^= w;
    h *= 1099511628211ull;
  }
  for (; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Recomputes the payload hash after a deliberate structural mutation, so
// the case under test is the *structural* check, not the hash check.
void FixPayloadHash(std::string* bytes) {
  uint64_t h =
      TestFnv1a(bytes->data() + kV2HeaderBytes, bytes->size() - kV2HeaderBytes);
  std::memcpy(bytes->data() + 24, &h, sizeof(h));
}

Status LoadSnapshotBytes(const std::string& bytes) {
  const std::string path = PerTestPath("osq_v2_corruption_case");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  LabelDictionary dict;
  std::unique_ptr<QueryEngine> engine;
  return LoadEngineSnapshot(path, &dict, &engine);
}

struct RawSection {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  size_t entry_pos = 0;  // byte position of this entry in the file
};

std::vector<RawSection> ReadSectionTable(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::vector<RawSection> table(count);
  for (uint32_t i = 0; i < count; ++i) {
    RawSection& e = table[i];
    e.entry_pos = kV2HeaderBytes + i * kV2EntryBytes;
    std::memcpy(&e.type, bytes.data() + e.entry_pos, 4);
    std::memcpy(&e.offset, bytes.data() + e.entry_pos + 8, 8);
    std::memcpy(&e.size, bytes.data() + e.entry_pos + 16, 8);
  }
  return table;
}

TEST(SnapshotCorruptionTest, BaselineBytesLoadCleanly) {
  EXPECT_TRUE(LoadSnapshotBytes(BuildValidSnapshotBytes()).ok());
}

TEST(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = BuildValidSnapshotBytes();
  bytes[0] = 'X';
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  // 2 is the retired layout with a concept-graph section and 3 the one
  // with per-node degree counts: such a file fails closed at the version
  // check, before any section is read.
  for (uint32_t version : {2u, 3u, 9u}) {
    std::string bytes = BuildValidSnapshotBytes();
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    Status s = LoadSnapshotBytes(bytes);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "version " << version;
    EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();
  }
}

TEST(SnapshotCorruptionTest, TruncationAtEveryStrideNeverCrashes) {
  const std::string bytes = BuildValidSnapshotBytes();
  for (size_t cut = 0; cut < bytes.size(); cut += 997) {
    Status s = LoadSnapshotBytes(bytes.substr(0, cut));
    ASSERT_FALSE(s.ok()) << "prefix of length " << cut << " loaded";
    // Shorter than a header it is not recognizably a v2 snapshot at all;
    // beyond that the header's file_size exposes the truncation.
    EXPECT_EQ(s.code(), cut < kV2HeaderBytes ? StatusCode::kInvalidArgument
                                             : StatusCode::kCorruption)
        << "cut=" << cut << ": " << s.message();
  }
}

TEST(SnapshotCorruptionTest, PayloadBitFlipIsHashMismatch) {
  std::string bytes = BuildValidSnapshotBytes();
  // Flip one bit in the middle of the payload, hash left stale.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("hash"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, WrongStoredHashIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  uint64_t bogus = 0xDEADBEEFCAFEF00Dull;
  std::memcpy(bytes.data() + 24, &bogus, sizeof(bogus));
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, HeaderFileSizeMismatchIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  uint64_t wrong_size = bytes.size() + 8;
  std::memcpy(bytes.data() + 16, &wrong_size, sizeof(wrong_size));
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, ImplausibleSectionCountIsCorruption) {
  for (uint32_t count : {0u, 1000u}) {
    std::string bytes = BuildValidSnapshotBytes();
    std::memcpy(bytes.data() + 12, &count, sizeof(count));
    EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption)
        << "section_count=" << count;
  }
}

TEST(SnapshotCorruptionTest, MisalignedSectionOffsetIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint64_t off = table[0].offset + 4;  // break 8-alignment
  std::memcpy(bytes.data() + table[0].entry_pos + 8, &off, sizeof(off));
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("misaligned"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, SectionBeyondFileEndIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint64_t size = bytes.size();  // offset + file_size always overruns
  std::memcpy(bytes.data() + table[0].entry_pos + 16, &size, sizeof(size));
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("bounds"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, OverlappingSectionsAreCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_GE(table.size(), 2u);
  // Point section 1 at section 0's bytes (same offset, both non-empty).
  std::memcpy(bytes.data() + table[1].entry_pos + 8, &table[0].offset, 8);
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("overlap"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, UnknownSectionTypeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint32_t type = 99;
  std::memcpy(bytes.data() + table[0].entry_pos, &type, sizeof(type));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, DuplicateSectionTypeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_GE(table.size(), 2u);
  std::memcpy(bytes.data() + table[1].entry_pos, &table[0].type, 4);
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, GraphSectionImplausibleCountsAreCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  const RawSection* graph_sec = nullptr;
  for (const RawSection& e : table) {
    if (e.type == 3) graph_sec = &e;  // kSecGraph
  }
  ASSERT_NE(graph_sec, nullptr);
  // Claim far more nodes than the section could hold; the hash is fixed so
  // the structural validation inside the graph decoder must catch it.
  uint64_t bogus_nodes = 0x0000FFFFFFFFFFFFull;
  std::memcpy(bytes.data() + graph_sec->offset, &bogus_nodes,
              sizeof(bogus_nodes));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, GraphAdjacencyOutOfRangeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  const RawSection* graph_sec = nullptr;
  for (const RawSection& e : table) {
    if (e.type == 3) graph_sec = &e;
  }
  ASSERT_NE(graph_sec, nullptr);
  // Graph section layout: u64 n, u64 m, labels u32*n, pad, offsets, entries.
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + graph_sec->offset, 8);
  ASSERT_GT(n, 0u);
  // Overwrite the first node label with an id the dictionary cannot hold.
  uint32_t bogus_label = 0x7FFFFFFF;
  std::memcpy(bytes.data() + graph_sec->offset + 16, &bogus_label,
              sizeof(bogus_label));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, StructuralMessagesAreDistinct) {
  // An operator debugging a bad snapshot must be able to tell the failure
  // modes apart.
  const std::string base = BuildValidSnapshotBytes();
  std::set<std::string> messages;
  auto collect = [&](std::string bytes, bool fix_hash) {
    if (fix_hash) FixPayloadHash(&bytes);
    Status s = LoadSnapshotBytes(bytes);
    EXPECT_FALSE(s.ok());
    messages.insert(std::string(s.message()));
  };
  {
    std::string b = base;
    b[0] = 'X';
    collect(b, false);
  }
  {
    std::string b = base;
    uint32_t v = 9;
    std::memcpy(b.data() + 8, &v, 4);
    collect(b, false);
  }
  collect(base.substr(0, base.size() / 2), false);
  {
    std::string b = base;
    b[b.size() / 2] = static_cast<char>(b[b.size() / 2] ^ 0x01);
    collect(b, false);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    uint64_t off = t[0].offset + 4;
    std::memcpy(b.data() + t[0].entry_pos + 8, &off, 8);
    collect(b, true);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    uint64_t sz = b.size();
    std::memcpy(b.data() + t[0].entry_pos + 16, &sz, 8);
    collect(b, true);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    std::memcpy(b.data() + t[1].entry_pos + 8, &t[0].offset, 8);
    collect(b, true);
  }
  EXPECT_GE(messages.size(), 7u);
}

}  // namespace
}  // namespace osq
