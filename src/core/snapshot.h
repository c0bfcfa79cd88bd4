// Binary engine snapshots (format v2) — the one way an index is saved and
// loaded.
//
// One mmap-able file holds everything a serving process needs to answer
// queries: the label dictionary, the data graph's frozen CSR arrays, the
// ontology, every concept graph of the ontology index, and the candidate-
// pruning index.  Loading maps the file and adopts the graph's CSR arrays
// *in place* (zero-copy; the Graph keeps the mapping alive through its
// anchor), deserializes the comparatively small index structures, and
// skips every expensive build stage: no text parsing, no concept-label
// BFS, no partition refinement, no candidate-signature recomputation.
// The index is "computed once for all" (paper §III): a deployment builds
// it once, saves the engine, and cold-starts every later process from the
// file in a fraction of the rebuild time (bench/bench_load.cc).
//
// File layout (all integers little-endian; every section offset 8-aligned):
//
//   SnapshotHeader   { magic "OSQSNP2\0", version, section_count,
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
// mapping is trusted.  Error taxonomy: a file that is not a v2 snapshot at
// all (bad magic or version) is InvalidArgument; a v2 file that is damaged
// or inconsistent is Corruption.

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
  // verification, CSR adoption + validation, concept-graph restore, and
  // candidate-index restore.
  double hash_ms = 0.0;
  double graph_ms = 0.0;
  double concept_graphs_ms = 0.0;
  double candidate_index_ms = 0.0;
};

// Writes a v2 snapshot of the engine (graph, ontology, full index) and the
// dictionary the graphs were built through.  The engine's data graph is
// re-compacted into CSR form for the file if it carries thawed overlay
// state; the engine itself is not modified.
[[nodiscard]] Status SaveEngineSnapshot(const QueryEngine& engine,
                                        const LabelDictionary& dict,
                                        const std::string& path);

// Loads a v2 snapshot into a ready-to-serve engine.  `dict` is normally
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
