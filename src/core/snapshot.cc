#include "core/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/candidate_index.h"
#include "core/ontology_index.h"

namespace osq {

namespace {

// The on-disk integer layout is the host layout; the format is only
// defined for little-endian hosts (every deployment target).
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");

constexpr char kMagic[8] = {'O', 'S', 'Q', 'S', 'N', 'P', '2', '\0'};
// Version 3 dropped v2's concept-graph section and block aggregates;
// version 4 stores each node signature as its two words, without v3's
// per-node degree counts.  A file in an older layout fails the version
// check.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kMaxSections = 64;

enum SectionType : uint32_t {
  kSecDict = 1,
  kSecOptions = 2,
  kSecGraph = 3,
  kSecOntology = 4,
  kSecCandidateIndex = 5,
};
constexpr uint32_t kRequiredSections[] = {kSecDict, kSecOptions, kSecGraph,
                                          kSecOntology, kSecCandidateIndex};

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t file_size;
  uint64_t payload_hash;  // word-blocked FNV-1a 64 over
                          // [sizeof(SnapshotHeader), file_size)
  uint64_t reserved;
};
static_assert(sizeof(SnapshotHeader) == 40, "header layout is part of the "
                                            "format");

struct SectionEntry {
  uint32_t type;
  uint32_t reserved;
  uint64_t offset;  // from file start; 8-aligned
  uint64_t size;    // payload bytes (padding between sections not counted)
};
static_assert(sizeof(SectionEntry) == 24, "section-table layout is part of "
                                          "the format");

// Word-blocked FNV-1a: full 8-byte little-endian words feed the usual
// xor-multiply step, the tail feeds it byte-wise.  One multiply per 8
// payload bytes makes hash verification a small fraction of cold-start
// time instead of dominating it (the byte-serial variant is ~8x slower
// and cannot be vectorized past its loop-carried multiply).  The word
// definition is part of the format.
uint64_t Fnv1a(const char* data, size_t size) {
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

// --- byte-stream encoding helpers ------------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { buf.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Raw(const void* p, size_t n) {
    // An empty vector's data() is null; append(nullptr, 0) is UB.
    if (n != 0) buf.append(static_cast<const char*>(p), n);
  }
  void Align8() {
    while (buf.size() % 8 != 0) buf.push_back('\0');
  }

  std::string buf;
};

// Bounds-checked cursor over one section's bytes.  Every read reports
// failure instead of walking past the end, and count-prefixed reads bound
// the count against the remaining bytes before allocating.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Raw(void* dst, size_t n) {
    if (n > size_ - pos_) return false;
    // An empty vector's data() is null; memcpy(nullptr, ..., 0) is UB.
    if (n != 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- file mapping -----------------------------------------------------------

// Read-only view of a whole file: mmap when possible (the zero-copy load
// path), with a plain read(2) fallback.  A shared_ptr to this object is
// the anchor that keeps the mapping alive for the loaded Graph and every
// copy of it.
class MappedBuffer {
 public:
  [[nodiscard]] static Status Open(const std::string& path,
                                   std::shared_ptr<MappedBuffer>* out) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError("cannot open for reading: " + path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::IoError("cannot stat: " + path);
    }
    auto buf = std::make_shared<MappedBuffer>();
    size_t size = static_cast<size_t>(st.st_size);
    if (size > 0) {
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        buf->map_ = map;
        buf->map_size_ = size;
      } else {
        buf->heap_.resize(size);
        size_t done = 0;
        while (done < size) {
          ssize_t got = ::read(fd, buf->heap_.data() + done, size - done);
          if (got <= 0) {
            ::close(fd);
            return Status::IoError("short read: " + path);
          }
          done += static_cast<size_t>(got);
        }
      }
    }
    ::close(fd);
    *out = std::move(buf);
    return Status::Ok();
  }

  MappedBuffer() = default;
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;
  ~MappedBuffer() {
    if (map_ != nullptr) ::munmap(map_, map_size_);
  }

  const char* data() const {
    return map_ != nullptr ? static_cast<const char*>(map_) : heap_.data();
  }
  size_t size() const { return map_ != nullptr ? map_size_ : heap_.size(); }
  bool mapped() const { return map_ != nullptr; }

 private:
  void* map_ = nullptr;
  size_t map_size_ = 0;
  std::string heap_;
};

// --- section encoders -------------------------------------------------------

std::string EncodeDict(const LabelDictionary& dict) {
  ByteWriter w;
  w.U64(dict.size());
  for (LabelId id = 0; id < dict.size(); ++id) {
    const std::string& name = dict.Name(id);
    w.U32(static_cast<uint32_t>(name.size()));
    w.Raw(name.data(), name.size());
  }
  return std::move(w.buf);
}

std::string EncodeOptions(const IndexOptions& o) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(o.similarity_model));
  w.U32(o.similarity_cutoff);
  w.F64(o.similarity_base);
  return std::move(w.buf);
}

std::string EncodeGraph(const Graph& g) {
  ByteWriter w;
  const size_t n = g.num_nodes();
  w.U64(n);
  w.U64(g.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    w.U32(g.NodeLabel(v));
  }
  w.Align8();
  // CSR per direction: offsets (n+1), then the concatenated sorted spans.
  // Serializing through OutEdges/InEdges works for any freeze state.
  uint64_t off = 0;
  w.U64(0);
  for (NodeId v = 0; v < n; ++v) {
    off += g.OutEdges(v).size();
    w.U64(off);
  }
  for (NodeId v = 0; v < n; ++v) {
    Graph::AdjSpan s = g.OutEdges(v);
    w.Raw(s.data(), s.size() * sizeof(AdjEntry));
  }
  off = 0;
  w.U64(0);
  for (NodeId v = 0; v < n; ++v) {
    off += g.InEdges(v).size();
    w.U64(off);
  }
  for (NodeId v = 0; v < n; ++v) {
    Graph::AdjSpan s = g.InEdges(v);
    w.Raw(s.data(), s.size() * sizeof(AdjEntry));
  }
  return std::move(w.buf);
}

std::string EncodeOntology(const OntologyGraph& o, size_t dict_size) {
  ByteWriter w;
  w.U64(dict_size);  // label universe the present flags are indexed by
  w.U64(o.num_labels());
  w.U64(o.num_relations());
  for (LabelId l = 0; l < dict_size; ++l) {
    w.U8(o.ContainsLabel(l) ? 1 : 0);
  }
  // Relations as (a, b) with a < b, ascending — canonical and duplicate-free
  // because Neighbors() is sorted and each undirected edge is kept once.
  uint64_t pairs = 0;
  ByteWriter body;
  for (LabelId a = 0; a < dict_size; ++a) {
    if (!o.ContainsLabel(a)) continue;
    for (LabelId b : o.Neighbors(a)) {
      if (b <= a) continue;
      body.U32(a);
      body.U32(b);
      ++pairs;
    }
  }
  w.U64(pairs);
  w.Raw(body.buf.data(), body.buf.size());
  return std::move(w.buf);
}

std::string EncodeCandidateIndex(const CandidateIndex& index) {
  CandidateIndex::SnapshotParts parts = index.ExportSnapshotParts();
  ByteWriter w;
  // Node count, then (out_bits, in_bits) per node: the in-memory layout.
  w.U64(parts.node_sigs.size());
  w.Raw(parts.node_sigs.data(),
        parts.node_sigs.size() * sizeof(NodeSignature));
  return std::move(w.buf);
}

// --- section decoders -------------------------------------------------------

[[nodiscard]] Status DecodeDict(const char* data, size_t size,
                                LabelDictionary* dict) {
  ByteReader r(data, size);
  uint64_t count = 0;
  if (!r.U64(&count)) return Status::Corruption("dict section truncated");
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!r.U32(&len) || len > r.remaining()) {
      return Status::Corruption("dict section truncated");
    }
    std::string name(static_cast<size_t>(len), '\0');
    if (!r.Raw(name.data(), name.size())) {
      return Status::Corruption("dict section truncated");
    }
    if (dict->Intern(name) != static_cast<LabelId>(i)) {
      return Status::InvalidArgument(
          "snapshot dictionary conflicts with the provided dictionary");
    }
  }
  if (!r.Done()) return Status::Corruption("dict section has trailing bytes");
  return Status::Ok();
}

[[nodiscard]] Status DecodeOptions(const char* data, size_t size,
                                   IndexOptions* options) {
  ByteReader r(data, size);
  uint32_t model = 0;
  IndexOptions o;
  if (!r.U32(&model) || !r.U32(&o.similarity_cutoff) ||
      !r.F64(&o.similarity_base) || !r.Done()) {
    return Status::Corruption("options section malformed");
  }
  if (model > static_cast<uint32_t>(SimilarityModel::kReciprocal)) {
    return Status::Corruption("options section: unknown similarity model");
  }
  o.similarity_model = static_cast<SimilarityModel>(model);
  o.num_threads = 1;  // runtime knob, never persisted
  *options = o;
  return Status::Ok();
}

// Validates one CSR direction in place: offsets monotone and bounded,
// entries in range and strictly ascending per node.
bool ValidCsr(size_t n, uint64_t m, const EdgeIndex* offsets,
              const AdjEntry* entries, size_t num_labels) {
  if (offsets[0] != 0 || offsets[n] != m) return false;
  for (size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) return false;
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (entries[i].node >= n || entries[i].label >= num_labels) {
        return false;
      }
      if (i > offsets[v] && !(entries[i - 1] < entries[i])) return false;
    }
  }
  return true;
}

[[nodiscard]] Status DecodeGraph(const char* data, size_t size,
                                 size_t num_labels,
                                 std::shared_ptr<MappedBuffer> anchor,
                                 Graph* out) {
  if (size < 16) return Status::Corruption("graph section truncated");
  uint64_t n64 = 0;
  uint64_t m64 = 0;
  std::memcpy(&n64, data, 8);
  std::memcpy(&m64, data + 8, 8);
  if (n64 >= kInvalidNode || m64 > size / sizeof(AdjEntry)) {
    return Status::Corruption("graph section: implausible counts");
  }
  const size_t n = static_cast<size_t>(n64);
  const size_t m = static_cast<size_t>(m64);
  const size_t labels_off = 16;
  const size_t labels_bytes = n * sizeof(LabelId);
  const size_t pad = (8 - (labels_off + labels_bytes) % 8) % 8;
  const size_t offsets_bytes = (n + 1) * sizeof(EdgeIndex);
  const size_t entries_bytes = m * sizeof(AdjEntry);
  const size_t out_off = labels_off + labels_bytes + pad;
  const size_t in_off = out_off + offsets_bytes + entries_bytes;
  if (size != in_off + offsets_bytes + entries_bytes) {
    return Status::Corruption("graph section: size does not match counts");
  }
  const LabelId* labels = reinterpret_cast<const LabelId*>(data + labels_off);
  const EdgeIndex* out_offsets =
      reinterpret_cast<const EdgeIndex*>(data + out_off);
  const AdjEntry* out_entries =
      reinterpret_cast<const AdjEntry*>(data + out_off + offsets_bytes);
  const EdgeIndex* in_offsets =
      reinterpret_cast<const EdgeIndex*>(data + in_off);
  const AdjEntry* in_entries =
      reinterpret_cast<const AdjEntry*>(data + in_off + offsets_bytes);
  for (size_t v = 0; v < n; ++v) {
    if (labels[v] >= num_labels) {
      return Status::Corruption("graph section: node label out of range");
    }
  }
  if (!ValidCsr(n, m64, out_offsets, out_entries, num_labels) ||
      !ValidCsr(n, m64, in_offsets, in_entries, num_labels)) {
    return Status::Corruption("graph section: invalid CSR structure");
  }
  *out = Graph::FromFrozenCsr(n, m, labels, out_offsets, out_entries,
                              in_offsets, in_entries, std::move(anchor));
  return Status::Ok();
}

[[nodiscard]] Status DecodeOntology(const char* data, size_t size,
                                    size_t num_labels, OntologyGraph* out) {
  ByteReader r(data, size);
  uint64_t universe = 0;
  uint64_t stored_labels = 0;
  uint64_t stored_relations = 0;
  if (!r.U64(&universe) || !r.U64(&stored_labels) ||
      !r.U64(&stored_relations) || universe > num_labels ||
      universe > r.remaining()) {
    return Status::Corruption("ontology section malformed");
  }
  OntologyGraph o;
  std::vector<uint8_t> present(static_cast<size_t>(universe), 0);
  if (!r.Raw(present.data(), present.size())) {
    return Status::Corruption("ontology section truncated");
  }
  for (LabelId l = 0; l < present.size(); ++l) {
    if (present[l] != 0) o.AddLabel(l);
  }
  uint64_t pairs = 0;
  if (!r.U64(&pairs) || pairs > r.remaining() / 8) {
    return Status::Corruption("ontology section truncated");
  }
  for (uint64_t i = 0; i < pairs; ++i) {
    uint32_t a = 0;
    uint32_t b = 0;
    if (!r.U32(&a) || !r.U32(&b)) {
      return Status::Corruption("ontology section truncated");
    }
    if (a >= b || b >= universe || present[a] == 0 || present[b] == 0 ||
        !o.AddRelation(a, b)) {
      return Status::Corruption("ontology section: bad relation record");
    }
  }
  if (!r.Done() || o.num_labels() != stored_labels ||
      o.num_relations() != stored_relations) {
    return Status::Corruption("ontology section: counts disagree");
  }
  *out = std::move(o);
  return Status::Ok();
}

[[nodiscard]] Status DecodeCandidateIndex(const char* data, size_t size,
                                          const Graph& g,
                                          CandidateIndex* out) {
  ByteReader r(data, size);
  CandidateIndex::SnapshotParts parts;
  uint64_t n = 0;
  if (!r.U64(&n) || n != g.num_nodes()) {
    return Status::Corruption("candidate-index section: node count "
                              "disagrees with the graph");
  }
  // n is bounded by the graph, so the byte count cannot overflow.
  const size_t bytes = static_cast<size_t>(n) * sizeof(NodeSignature);
  parts.node_sigs.resize(static_cast<size_t>(n));
  if (r.remaining() != bytes || !r.Raw(parts.node_sigs.data(), bytes)) {
    return Status::Corruption("candidate-index section: size does not "
                              "match the node count");
  }
  *out = CandidateIndex::FromSnapshotParts(g, std::move(parts));
  return Status::Ok();
}

}  // namespace

Status SaveEngineSnapshot(const QueryEngine& engine,
                          const LabelDictionary& dict,
                          const std::string& path) {
  const OntologyIndex& index = engine.index();
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(kSecDict, EncodeDict(dict));
  sections.emplace_back(kSecOptions, EncodeOptions(index.options()));
  sections.emplace_back(kSecGraph, EncodeGraph(engine.graph()));
  sections.emplace_back(kSecOntology,
                        EncodeOntology(engine.ontology(), dict.size()));
  sections.emplace_back(kSecCandidateIndex,
                        EncodeCandidateIndex(index.candidate_index()));

  // Assemble payload = section table + padded sections, then stamp the
  // header with the hash over it.
  std::string payload;
  const size_t table_bytes = sections.size() * sizeof(SectionEntry);
  payload.resize(table_bytes, '\0');
  std::vector<SectionEntry> table;
  for (const auto& [type, body] : sections) {
    while ((sizeof(SnapshotHeader) + payload.size()) % 8 != 0) {
      payload.push_back('\0');
    }
    SectionEntry e{};
    e.type = type;
    e.offset = sizeof(SnapshotHeader) + payload.size();
    e.size = body.size();
    table.push_back(e);
    payload += body;
  }
  std::memcpy(payload.data(), table.data(), table_bytes);

  SnapshotHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.file_size = sizeof(SnapshotHeader) + payload.size();
  header.payload_hash = Fnv1a(payload.data(), payload.size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(payload.data(),
            static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out.good()) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

Status LoadEngineSnapshot(const std::string& path, LabelDictionary* dict,
                          std::unique_ptr<QueryEngine>* out,
                          SnapshotLoadStats* stats) {
  if (dict == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument to LoadEngineSnapshot");
  }
  std::shared_ptr<MappedBuffer> file;
  Status status = MappedBuffer::Open(path, &file);
  if (!status.ok()) return status;
  const char* data = file->data();
  const size_t size = file->size();
  if (stats != nullptr) {
    stats->file_bytes = size;
    stats->mapped = file->mapped();
  }

  // Header: a file that is not a snapshot of this version at all is
  // InvalidArgument; one that fails any structural check is Corruption.
  if (size < sizeof(SnapshotHeader)) {
    return Status::InvalidArgument("not an osq snapshot (too small): " +
                                   path);
  }
  SnapshotHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an osq snapshot (bad magic): " +
                                   path);
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(header.version));
  }
  if (header.file_size != size) {
    return Status::Corruption("snapshot truncated (header size mismatch)");
  }
  if (header.section_count == 0 || header.section_count > kMaxSections) {
    return Status::Corruption("snapshot has an implausible section count");
  }
  const size_t table_bytes = header.section_count * sizeof(SectionEntry);
  if (size - sizeof(SnapshotHeader) < table_bytes) {
    return Status::Corruption("snapshot truncated (section table)");
  }
  WallTimer stage_timer;
  if (Fnv1a(data + sizeof(SnapshotHeader), size - sizeof(SnapshotHeader)) !=
      header.payload_hash) {
    return Status::Corruption("snapshot content hash mismatch");
  }
  if (stats != nullptr) stats->hash_ms = stage_timer.ElapsedMillis();
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), data + sizeof(SnapshotHeader), table_bytes);
  for (const SectionEntry& e : table) {
    if (e.offset % 8 != 0) {
      return Status::Corruption("snapshot section misaligned");
    }
    if (e.offset < sizeof(SnapshotHeader) + table_bytes || e.size > size ||
        e.offset > size - e.size) {
      return Status::Corruption("snapshot section out of bounds");
    }
  }
  std::vector<SectionEntry> by_offset = table;
  std::sort(by_offset.begin(), by_offset.end(),
            [](const SectionEntry& a, const SectionEntry& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < by_offset.size(); ++i) {
    if (by_offset[i - 1].offset + by_offset[i - 1].size >
        by_offset[i].offset) {
      return Status::Corruption("snapshot sections overlap");
    }
  }
  const SectionEntry* found[kSecCandidateIndex + 1] = {};
  for (const SectionEntry& e : table) {
    if (e.type < kSecDict || e.type > kSecCandidateIndex) {
      return Status::Corruption("snapshot has an unknown section type");
    }
    if (found[e.type] != nullptr) {
      return Status::Corruption("snapshot has a duplicate section");
    }
    found[e.type] = &e;
  }
  for (uint32_t type : kRequiredSections) {
    if (found[type] == nullptr) {
      return Status::Corruption("snapshot is missing a required section");
    }
  }
  auto section = [&](uint32_t type) {
    return std::pair<const char*, size_t>(data + found[type]->offset,
                                          static_cast<size_t>(
                                              found[type]->size));
  };

  auto [dict_data, dict_size] = section(kSecDict);
  status = DecodeDict(dict_data, dict_size, dict);
  if (!status.ok()) return status;

  IndexOptions options;
  auto [opt_data, opt_size] = section(kSecOptions);
  status = DecodeOptions(opt_data, opt_size, &options);
  if (!status.ok()) return status;

  Graph graph;
  auto [graph_data, graph_size] = section(kSecGraph);
  stage_timer = WallTimer();
  status = DecodeGraph(graph_data, graph_size, dict->size(), file, &graph);
  if (!status.ok()) return status;
  if (stats != nullptr) stats->graph_ms = stage_timer.ElapsedMillis();

  OntologyGraph ontology;
  auto [onto_data, onto_size] = section(kSecOntology);
  status = DecodeOntology(onto_data, onto_size, dict->size(), &ontology);
  if (!status.ok()) return status;

  CandidateIndex candidates;
  auto [ci_data, ci_size] = section(kSecCandidateIndex);
  stage_timer = WallTimer();
  status = DecodeCandidateIndex(ci_data, ci_size, graph, &candidates);
  if (!status.ok()) return status;
  if (stats != nullptr) {
    stats->candidate_index_ms = stage_timer.ElapsedMillis();
  }

  *out = std::make_unique<QueryEngine>(OntologyIndex::FromParts(
      std::move(graph), std::move(ontology), options, std::move(candidates)));
  return Status::Ok();
}

}  // namespace osq
