// osq_lint — OSQ-specific invariant checker run as part of the lint gate
// (scripts/lint.sh, tier-1).  It enforces project contracts that generic
// tooling cannot see:
//
//   osq-status-nodiscard   `class Status` / `class StatusOr` definitions and
//                          free Status-returning declarations in headers must
//                          carry [[nodiscard]], so an ignored error is a
//                          compile failure, not a silent drop.
//   osq-raw-lock           No `.lock()` / `.unlock()` (or try_/_shared
//                          variants) on mutexes outside RAII guards; early
//                          release through a named unique_lock/shared_lock is
//                          fine, a bare mutex call is not exception-safe.
//   osq-no-stdout          No `std::cout` / `printf` / `puts` in library
//                          code: the library returns data, callers decide
//                          how to render it.
//   osq-unordered-iter     Match-emission layers (kmatch, diversify, explain,
//                          query_engine, serve/) must not iterate unordered
//                          containers: hash order would leak into
//                          user-visible result order and break the
//                          bit-identical determinism contract.
//   osq-core-determinism   No `rand()` / `srand()` / `std::random_device` /
//                          `std::mt19937` outside common/rng, no `time()` or
//                          `system_clock` in library code: all randomness
//                          flows through the seeded Rng, all clocks through
//                          timer.h/deadline.h (steady), so runs replay.
//   osq-shard-isolation    Shard-coordinator code (src/shard/ minus the
//                          per-shard ShardEngine adapter and the
//                          partitioner) must not reach into QueryEngine /
//                          Graph internals — no engine construction, no
//                          direct filtering/verification calls, no
//                          adjacency walks or edge mutation.  Everything
//                          crosses the shard boundary through the
//                          ShardEngine adapter, so the coordinator stays
//                          correct when the per-shard engine evolves.
//   osq-graph-adjacency    The CSR adjacency arrays (out_offsets_,
//                          out_entries_, in_offsets_, in_entries_, the
//                          csr_anchor_ that keeps them alive, the slot
//                          maps and thaw overlays) are private to Graph, and
//                          legacy `out_[v]` / `in_[v]` subscripts are gone;
//                          everything outside graph/graph.{h,cc} must go
//                          through OutEdges()/InEdges()/OutDegree() so the
//                          storage layout can evolve without touching
//                          callers.
//
// Flow-aware rules (DESIGN.md §15), driven by the OSQ_* lock annotations in
// src/common/annotations.h:
//
//   osq-guarded-access     A member annotated OSQ_GUARDED_BY(mu) may only be
//                          read while a shared or exclusive RAII lock on mu
//                          is live, and only written under an exclusive one.
//                          The analyzer tracks lock_guard / unique_lock /
//                          shared_lock / scoped_lock object lifetimes per
//                          function body (scopes, early returns, .unlock()/
//                          .lock(), std::defer_lock / std::adopt_lock), and
//                          honors OSQ_REQUIRES / OSQ_REQUIRES_SHARED /
//                          OSQ_EXCLUDES contracts at call sites of annotated
//                          helpers.  Constructor and destructor bodies are
//                          exempt (single-threaded by contract).
//   osq-lock-order         OSQ_ACQUIRED_BEFORE(...) annotations form a
//                          global acquired-before DAG over mutex member
//                          names; acquiring a mutex while already holding
//                          one that the DAG (transitively) orders after it
//                          is flagged.  First edges: the write-intent gate
//                          precedes the snapshot lock in both serving tiers.
//   osq-layering           Module-dependency DAG over src/ includes:
//                          common/graph/ontology/core/query/gen/baseline
//                          (tier 0) <- serve <- shard; ingest may depend on
//                          the serving tiers only through the update_sink
//                          bridge (update_sink.{h,cc}), and nothing outside
//                          src/ingest may include ingest headers.  concept
//                          (the paper's concept graphs and ConceptIndex)
//                          may include tier 0 but is in no tier itself, so
//                          no other src/ module may include it: only the
//                          paper harnesses, osq_cli and tests, outside
//                          src/, build it.  Fails on back-edges so the
//                          module decoupling cannot erode.
//
// Suppression: a finding on a line is suppressed by a comment on the same
// line `NOLINT(osq-<rule>): <justification>` or the previous line
// `NOLINTNEXTLINE(osq-<rule>): <justification>`.  The justification text is
// mandatory; a suppression without one is itself a violation.

#ifndef OSQ_TOOLS_OSQ_LINT_H_
#define OSQ_TOOLS_OSQ_LINT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace osq {
namespace lint {

struct Violation {
  std::string file;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;

  // "file:line: [rule] message" — clickable in editors and CI logs.
  std::string ToString() const;
};

// Which rule groups apply to a file, derived from its path.
struct FileClass {
  bool header = false;      // .h: declaration-side nodiscard rule
  bool emission = false;    // match-emission layer: unordered-iter rule
  bool rng_exempt = false;  // common/rng*: may hold the raw engine
  bool graph_core = false;  // graph/graph.{h,cc}: owns the adjacency arrays
  // Shard-layer coordinator code (not the ShardEngine adapter or the
  // partitioner): engine/graph internals are off-limits.
  bool shard_coordinator = false;
  // src/ module the file belongs to ("serve", "core", ...; empty when the
  // path maps to no module) — drives osq-layering.  Fixtures opt in by
  // naming: bad_layering_<module>_*.cc.
  std::string module;
};

// --- lock-discipline annotations (src/common/annotations.h) ---------------

// Lock contract of one annotated function.
struct FunctionLockAnnotation {
  std::vector<std::string> requires_exclusive;  // OSQ_REQUIRES
  std::vector<std::string> requires_shared;     // OSQ_REQUIRES_SHARED
  std::vector<std::string> excludes;            // OSQ_EXCLUDES
};

// Annotations of one class (or struct), keyed by member / function name.
struct ClassLockAnnotations {
  std::map<std::string, std::string> guarded_members;       // member -> mutex
  std::map<std::string, FunctionLockAnnotation> functions;  // fn -> contract
  // (earlier, later) pairs from OSQ_ACQUIRED_BEFORE on mutex members.
  std::vector<std::pair<std::string, std::string>> acquired_before;
};

// Tree-wide annotation index.  Classes are keyed by unqualified name; a .cc
// file's method bodies are checked against the annotations its class
// declared in the header (LintTree collects from every file first, LintFile
// additionally pulls in the sibling .h/.cc).
struct AnnotationIndex {
  std::map<std::string, ClassLockAnnotations> classes;
};

// Scans `content` for OSQ_* annotations, merging findings into `index`.
void CollectAnnotations(const std::string& content, AnnotationIndex* index);

// Path-substring classification; works both for tree files (src/core/...)
// and for test fixtures named after the layer they imitate.
FileClass ClassifyPath(const std::string& path);

// Lints one file's contents; appends findings to `out`.  The three-argument
// form runs the flow rules against the annotations found in `content`
// itself (self-contained fixtures and snippets); the four-argument form
// checks against a caller-supplied tree-wide index.
void LintContent(const std::string& path, const std::string& content,
                 const FileClass& cls, std::vector<Violation>* out);
void LintContent(const std::string& path, const std::string& content,
                 const FileClass& cls, const AnnotationIndex& index,
                 std::vector<Violation>* out);

// Reads and lints `path` (classified from the path).  Returns false when the
// file cannot be read.
bool LintFile(const std::string& path, std::vector<Violation>* out);

// Recursively lints every .h/.cc under `root`/src.  Returns false when the
// directory cannot be walked.
bool LintTree(const std::string& root, std::vector<Violation>* out);

}  // namespace lint
}  // namespace osq

#endif  // OSQ_TOOLS_OSQ_LINT_H_
