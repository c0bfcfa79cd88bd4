// Binary engine snapshots (format version 5) — the one way an index is
// saved and loaded.
//
// One mmap-able file holds everything a serving process needs to answer
// queries: the label dictionary, the index options, the data graph's
// frozen CSR arrays, the ontology, and the candidate-pruning index.
// Loading maps the file and adopts the graph's CSR arrays *in place*
// (zero-copy; the Graph and every copy of it keep the mapping alive
// through their shared anchor; node labels are copied, 4 B per node),
// copies the node signatures (two words per node, one bounded copy), and
// skips every expensive build stage: no text parsing, no
// candidate-signature recomputation.  The paper's concept graphs
// (concept/concept_index.h) are not part of the serving engine and are
// never saved.
// The index is "computed once for all" (paper §III): a deployment builds
// it once, saves the engine, and cold-starts every later process from the
// file in a fraction of the rebuild time (bench/bench_load.cc).
//
// File layout (all integers little-endian; every section offset 8-aligned):
//
//   SnapshotHeader   { magic "OSQSNP2\0", version 5, section_count,
//                      file_size, payload_hash }
//   SectionEntry[n]  { type, offset, size }
//   sections...      (see SectionType; each internally self-describing)
//
// `payload_hash` is word-blocked FNV-1a 64 over every byte after the
// header — section table included — taken 8 little-endian bytes per step
// with a byte-wise tail (one multiply per word keeps verification a small
// fraction of load time).  It is recomputed on load, so any bit flip in
// the file fails closed.  Structural validation (bounds, alignment, overlap,
// monotone CSR offsets, sorted adjacency) runs before any pointer into the
// mapping is trusted.  The candidate-index section is the node count
// followed by (out_bits u64, in_bits u64) per node, three Bloom bits per
// (edge label, neighbour label) pair.  Error taxonomy: a file that is not
// a version-5 snapshot at all (bad magic, or another version such as the
// retired v2 layout with its concept-graph section, the v3 layout with
// per-node degree counts, or the v4 layout with one bit per pair) is
// InvalidArgument; a version-5 file that is damaged or inconsistent is
// Corruption.

#ifndef OSQ_CORE_SNAPSHOT_H_
#define OSQ_CORE_SNAPSHOT_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/query_engine.h"
#include "graph/label_dictionary.h"

namespace osq {

// Diagnostics from a snapshot load.
struct SnapshotLoadStats {
  size_t file_bytes = 0;
  // True when the file was mapped (the graph arrays are served straight
  // from the page cache); false on the read(2) fallback.
  bool mapped = false;
  // Stage wall times, so a slow cold start is attributable: payload hash
  // verification, CSR adoption + validation, and candidate-index restore.
  double hash_ms = 0.0;
  double graph_ms = 0.0;
  double candidate_index_ms = 0.0;
};

// Writes a snapshot of the engine (graph, ontology, full index) and the
// dictionary the graphs were built through.  The engine's data graph is
// re-compacted into CSR form for the file if it carries thawed overlay
// state; the engine itself is not modified.
[[nodiscard]] Status SaveEngineSnapshot(const QueryEngine& engine,
                                        const LabelDictionary& dict,
                                        const std::string& path);

// Loads a snapshot into a ready-to-serve engine.  `dict` is normally
// empty and is filled with the snapshot's dictionary; a pre-populated
// dictionary must agree with the snapshot (same names, same ids) or the
// load fails with InvalidArgument.  On success `*out` owns the engine and
// the engine's graph keeps the file mapping alive for as long as any copy
// of it exists.
[[nodiscard]] Status LoadEngineSnapshot(const std::string& path,
                                        LabelDictionary* dict,
                                        std::unique_ptr<QueryEngine>* out,
                                        SnapshotLoadStats* stats = nullptr);

}  // namespace osq

#endif  // OSQ_CORE_SNAPSHOT_H_
