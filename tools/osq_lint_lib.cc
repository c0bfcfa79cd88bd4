#include "osq_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "osq_lint_internal.h"

namespace osq {
namespace lint {
namespace internal {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// True when the code accumulated so far ends in a genuine raw-string prefix
// (R, u8R, uR, UR, LR) — i.e. the next '"' opens a raw string.  An
// identifier that merely ends in R (STR_R"...") is an ordinary string
// following an identifier (macro-paste style), not a raw string.
bool EndsInRawPrefix(const std::string& code) {
  size_t len = code.size();
  if (len == 0 || code[len - 1] != 'R') {
    return false;
  }
  size_t before_r = len - 1;  // chars preceding the 'R'
  // Optional encoding prefix directly before the R.
  if (before_r >= 2 && code[before_r - 2] == 'u' && code[before_r - 1] == '8') {
    before_r -= 2;
  } else if (before_r >= 1 &&
             (code[before_r - 1] == 'u' || code[before_r - 1] == 'U' ||
              code[before_r - 1] == 'L')) {
    before_r -= 1;
  }
  // Whatever precedes the (possibly prefixed) R must not extend an
  // identifier, otherwise R is just the last letter of a longer name.
  return before_r == 0 || !IsIdentChar(code[before_r - 1]);
}

}  // namespace

// Splits `content` into lines and blanks comments and literals with a small
// state machine; the blanked columns keep positions stable so reported
// columns/lines match the file.
std::vector<Line> Preprocess(const std::string& content) {
  enum class State { kCode, kString, kChar, kBlockComment, kRawString };
  std::vector<Line> lines;
  Line cur;
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the ")delim" terminator
  size_t i = 0;
  const size_t n = content.size();
  auto flush_line = [&]() {
    lines.push_back(cur);
    cur = Line();
  };
  while (i < n) {
    char c = content[i];
    if (c == '\n') {
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;  // unterminated literal: recover at newline
      }
      flush_line();
      ++i;
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          // Line comment: consume to end of line into the comment view.
          i += 2;
          while (i < n && content[i] != '\n') {
            cur.comment.push_back(content[i]);
            ++i;
          }
          continue;
        }
        if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          cur.code += "  ";
          i += 2;
          continue;
        }
        if (c == '"') {
          // Raw string?  A genuine raw-string prefix must directly precede
          // the quote (R / u8R / uR / UR / LR, not an identifier that
          // happens to end in R).  The delimiter may be up to 16 chars (the
          // standard's cap); a longer one is ill-formed and falls back to
          // plain-string handling.
          if (EndsInRawPrefix(cur.code)) {
            size_t j = i + 1;
            std::string delim;
            while (j < n && content[j] != '(' && content[j] != '\n' &&
                   delim.size() < 16) {
              delim.push_back(content[j]);
              ++j;
            }
            if (j < n && content[j] == '(') {
              raw_delim = ")" + delim + "\"";
              state = State::kRawString;
              // Blank the quote, delimiter and opening paren one-for-one so
              // columns after the raw string stay aligned with the file.
              for (size_t k = i; k <= j; ++k) {
                cur.code.push_back(' ');
              }
              i = j + 1;
              continue;
            }
          }
          state = State::kString;
          cur.code.push_back(' ');
          ++i;
          continue;
        }
        if (c == '\'') {
          state = State::kChar;
          cur.code.push_back(' ');
          ++i;
          continue;
        }
        cur.code.push_back(c);
        ++i;
        break;
      }
      case State::kString:
      case State::kChar: {
        if (c == '\\' && i + 1 < n) {
          cur.code += "  ";
          i += 2;
          continue;
        }
        if ((state == State::kString && c == '"') ||
            (state == State::kChar && c == '\'')) {
          state = State::kCode;
        }
        cur.code.push_back(' ');
        ++i;
        break;
      }
      case State::kBlockComment: {
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          state = State::kCode;
          cur.code += "  ";
          i += 2;
          continue;
        }
        cur.comment.push_back(c);
        cur.code.push_back(' ');
        ++i;
        break;
      }
      case State::kRawString: {
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          for (size_t k = 0; k < raw_delim.size(); ++k) {
            cur.code.push_back(' ');
          }
          i += raw_delim.size();
          continue;
        }
        cur.code.push_back(' ');
        ++i;
        break;
      }
    }
  }
  if (!cur.code.empty() || !cur.comment.empty()) {
    flush_line();
  }
  return lines;
}

// Parses `comment` for "NOLINT(rules)" or (when `next_line`) a
// "NOLINTNEXTLINE(rules)" directive covering `rule`.  A justification is any
// non-blank text after a ':' that follows the closing parenthesis.
Suppression ParseNolint(const std::string& comment, const std::string& rule,
                        bool next_line) {
  const std::string tag = next_line ? "NOLINTNEXTLINE(" : "NOLINT(";
  size_t pos = comment.find(tag);
  // Plain NOLINT( also appears inside NOLINTNEXTLINE(; reject that overlap.
  while (!next_line && pos != std::string::npos && pos >= 8 &&
         comment.compare(pos - 8, 8, "NEXTLINE") == 0) {
    pos = comment.find(tag, pos + 1);
  }
  if (pos == std::string::npos) {
    return Suppression::kNone;
  }
  size_t close = comment.find(')', pos);
  if (close == std::string::npos) {
    return Suppression::kNone;
  }
  std::string rules = comment.substr(pos + tag.size(), close - pos - tag.size());
  bool covers = false;
  std::stringstream ss(rules);
  std::string item;
  while (std::getline(ss, item, ',')) {
    size_t b = item.find_first_not_of(" \t");
    size_t e = item.find_last_not_of(" \t");
    if (b != std::string::npos && item.substr(b, e - b + 1) == rule) {
      covers = true;
    }
  }
  if (!covers) {
    return Suppression::kNone;
  }
  size_t colon = comment.find(':', close);
  if (colon == std::string::npos) {
    return Suppression::kUnjustified;
  }
  size_t text = comment.find_first_not_of(" \t", colon + 1);
  return text == std::string::npos ? Suppression::kUnjustified
                                   : Suppression::kJustified;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace internal

namespace {

using internal::HasSuffix;
using internal::Line;
using internal::ParseNolint;
using internal::Preprocess;
using internal::Suppression;

class Linter {
 public:
  Linter(std::string path, const std::vector<Line>& lines,
         const FileClass& cls, std::vector<Violation>* out)
      : path_(std::move(path)), lines_(lines), cls_(cls), out_(out) {}

  void Run() {
    CollectGuards();
    CollectUnorderedVars();
    for (size_t i = 0; i < lines_.size(); ++i) {
      const std::string& code = lines_[i].code;
      CheckStatusNodiscard(i, code);
      CheckRawLock(i, code);
      CheckStdout(i, code);
      CheckUnorderedIter(i, code);
      CheckDeterminism(i, code);
      CheckGraphAdjacency(i, code);
      CheckShardIsolation(i, code);
    }
  }

 private:
  void Report(size_t idx, const std::string& rule, std::string message) {
    // A NOLINT on the offending line (or NOLINTNEXTLINE on the previous)
    // suppresses the finding — but only with a written justification.
    Suppression s = ParseNolint(lines_[idx].comment, rule, false);
    if (s == Suppression::kNone && idx > 0) {
      s = ParseNolint(lines_[idx - 1].comment, rule, true);
    }
    if (s == Suppression::kJustified) {
      return;
    }
    if (s == Suppression::kUnjustified) {
      message = "suppression requires a justification: NOLINT(" + rule +
                "): <why this is safe>";
    }
    out_->push_back(Violation{path_, idx + 1, rule, std::move(message)});
  }

  // --- osq-status-nodiscard ----------------------------------------------

  void CheckStatusNodiscard(size_t idx, const std::string& code) {
    if (!cls_.header) {
      return;
    }
    static const std::regex kClassDef(
        R"(\bclass\s+(Status|StatusOr)\b(?!\s*;))");
    static const std::regex kFreeDecl(
        R"(^(?:static\s+)?(?:osq::)?Status\s+\w+\s*\()");
    if (std::regex_search(code, kClassDef) &&
        code.find("nodiscard") == std::string::npos) {
      Report(idx, "osq-status-nodiscard",
             "Status/StatusOr class definition must be [[nodiscard]]");
      return;
    }
    if (std::regex_search(code, kFreeDecl) &&
        code.find("nodiscard") == std::string::npos &&
        !(idx > 0 &&
          lines_[idx - 1].code.find("[[nodiscard]]") != std::string::npos)) {
      Report(idx, "osq-status-nodiscard",
             "Status-returning declaration must be [[nodiscard]]");
    }
  }

  // --- osq-raw-lock -------------------------------------------------------

  void CollectGuards() {
    // Named RAII guards (and weak_ptr, whose .lock() is unrelated) declared
    // anywhere in the file; collected up front so declaration order does not
    // matter.
    static const std::regex kGuardDecl(
        R"(\b(?:unique_lock|shared_lock|scoped_lock|lock_guard|weak_ptr))"
        R"((?:\s*<[^;{}>]*(?:<[^;{}>]*>)?[^;{}>]*>)?\s+(\w+))");
    for (const Line& line : lines_) {
      auto begin = std::sregex_iterator(line.code.begin(), line.code.end(),
                                        kGuardDecl);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        guards_.insert((*it)[1].str());
      }
    }
  }

  void CheckRawLock(size_t idx, const std::string& code) {
    static const std::regex kLockCall(
        R"((\w+)\s*(\.|->)\s*)"
        R"(((?:try_)?lock(?:_shared|_for|_until)?|unlock(?:_shared)?)\s*\()");
    auto begin = std::sregex_iterator(code.begin(), code.end(), kLockCall);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string receiver = (*it)[1].str();
      const bool through_pointer = (*it)[2].str() == "->";
      if (!through_pointer && guards_.count(receiver) > 0) {
        continue;  // early release / re-acquire through a named RAII guard
      }
      Report(idx, "osq-raw-lock",
             "raw " + (*it)[3].str() + "() on '" + receiver +
                 "' outside an RAII guard (use std::unique_lock / "
                 "std::scoped_lock)");
    }
  }

  // --- osq-no-stdout ------------------------------------------------------

  void CheckStdout(size_t idx, const std::string& code) {
    static const std::regex kStdout(
        R"((?:^|[^\w])(std\s*::\s*cout|printf\s*\(|puts\s*\())");
    std::smatch m;
    if (std::regex_search(code, m, kStdout)) {
      Report(idx, "osq-no-stdout",
             "library code must not print (" + m[1].str() +
                 "); return data and let the caller render it");
    }
  }

  // --- osq-unordered-iter -------------------------------------------------

  void CollectUnorderedVars() {
    if (!cls_.emission) {
      return;
    }
    static const std::regex kUnordered(
        R"(\bunordered_(?:map|set|multimap|multiset)\b)");
    for (const Line& line : lines_) {
      const std::string& code = line.code;
      auto begin = std::sregex_iterator(code.begin(), code.end(), kUnordered);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        // Skip the template argument list (bracket counting handles nested
        // templates), then take the following identifier as the variable.
        size_t p = static_cast<size_t>(it->position()) + it->length();
        while (p < code.size() && std::isspace(
                                      static_cast<unsigned char>(code[p]))) {
          ++p;
        }
        if (p < code.size() && code[p] == '<') {
          int depth = 0;
          while (p < code.size()) {
            if (code[p] == '<') ++depth;
            if (code[p] == '>' && --depth == 0) {
              ++p;
              break;
            }
            ++p;
          }
        }
        while (p < code.size() &&
               (std::isspace(static_cast<unsigned char>(code[p])) ||
                code[p] == '&' || code[p] == '*')) {
          ++p;
        }
        size_t b = p;
        while (p < code.size() &&
               (std::isalnum(static_cast<unsigned char>(code[p])) ||
                code[p] == '_')) {
          ++p;
        }
        if (p > b) {
          unordered_vars_.insert(code.substr(b, p - b));
        }
      }
    }
  }

  // Joins a `for (` header that spans physical lines (paren-counted, capped
  // so a parse hiccup cannot run away).
  std::string ForHeader(size_t idx, size_t open_pos) const {
    std::string header;
    int depth = 0;
    for (size_t i = idx; i < lines_.size() && i < idx + 6; ++i) {
      const std::string& code = lines_[i].code;
      size_t start = (i == idx) ? open_pos : 0;
      for (size_t p = start; p < code.size(); ++p) {
        if (code[p] == '(') ++depth;
        if (code[p] == ')' && --depth == 0) {
          return header;
        }
        header.push_back(code[p]);
      }
      header.push_back(' ');
    }
    return header;
  }

  void CheckUnorderedIter(size_t idx, const std::string& code) {
    if (!cls_.emission) {
      return;
    }
    static const std::regex kFor(R"(\bfor\s*\()");
    static const std::regex kIdent(R"(\w+)");
    std::smatch m;
    std::string::const_iterator search_start = code.begin();
    while (std::regex_search(search_start, code.cend(), m, kFor)) {
      size_t open = static_cast<size_t>(m.position() +
                                        (search_start - code.begin()) +
                                        m.length() - 1);
      std::string header = ForHeader(idx, open);
      size_t colon = header.find(':');
      // Only range-for: an init;cond;step header has no lone ':'.
      if (colon != std::string::npos &&
          header.find(';') == std::string::npos) {
        std::string range = header.substr(colon + 1);
        bool bad = range.find("unordered") != std::string::npos;
        auto begin = std::sregex_iterator(range.begin(), range.end(), kIdent);
        for (auto it = begin; !bad && it != std::sregex_iterator(); ++it) {
          bad = unordered_vars_.count(it->str()) > 0;
        }
        if (bad) {
          Report(idx, "osq-unordered-iter",
                 "match-emission code iterates an unordered container; hash "
                 "order would leak into result order (copy into a sorted "
                 "vector first)");
        }
      }
      search_start = code.begin() + static_cast<std::string::difference_type>(
                                        open + 1);
    }
    // Explicit iterator loops over unordered members are just as
    // order-dependent as range-for.
    static const std::regex kBegin(R"((\w+)\s*\.\s*c?begin\s*\()");
    auto begin = std::sregex_iterator(code.begin(), code.end(), kBegin);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if (unordered_vars_.count((*it)[1].str()) > 0) {
        Report(idx, "osq-unordered-iter",
               "match-emission code iterates unordered container '" +
                   (*it)[1].str() + "' via begin()");
      }
    }
  }

  // --- osq-core-determinism ----------------------------------------------

  void CheckDeterminism(size_t idx, const std::string& code) {
    // Engines are allowed only inside the seeded Rng wrapper.
    if (!cls_.rng_exempt) {
      static const std::regex kEngine(
          R"((?:^|[^\w])(random_device|mt19937(?:_64)?|)"
          R"(default_random_engine|minstd_rand0?)\b)");
      std::smatch m;
      if (std::regex_search(code, m, kEngine)) {
        Report(idx, "osq-core-determinism",
               "raw random engine '" + m[1].str() +
                   "' in library code; use the seeded osq::Rng "
                   "(common/rng.h) so runs replay");
      }
    }
    static const std::regex kCall(R"((?:^|[^\w])(rand|srand|time)\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, kCall)) {
      Report(idx, "osq-core-determinism",
             "call to " + m[1].str() +
                 "() in library code; randomness must flow through "
                 "osq::Rng and clocks through timer.h/deadline.h");
    }
    static const std::regex kWallClock(R"(\bsystem_clock\b)");
    if (std::regex_search(code, kWallClock)) {
      Report(idx, "osq-core-determinism",
             "system_clock (wall time) in library code; use the steady "
             "clocks in timer.h/deadline.h");
    }
  }

  // --- osq-graph-adjacency -------------------------------------------------

  void CheckGraphAdjacency(size_t idx, const std::string& code) {
    if (cls_.graph_core) {
      return;  // the Graph implementation owns the arrays
    }
    // The CSR member names may not appear at all outside graph core — a
    // mirrored copy of the arrays is as layout-coupled as a subscript.
    static const std::regex kCsrMember(
        R"(\b(out_offsets_|in_offsets_|out_entries_|in_entries_|)"
        R"(csr_anchor_|out_slot_|in_slot_|dyn_out_|dyn_in_)\b)");
    auto begin = std::sregex_iterator(code.begin(), code.end(), kCsrMember);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      Report(idx, "osq-graph-adjacency",
             "direct use of Graph adjacency storage '" + (*it)[1].str() +
                 "' outside graph/graph.{h,cc}; go through "
                 "OutEdges()/InEdges()/OutDegree()");
    }
    // Pre-CSR style `out_[v]` / `in_[v]` adjacency subscripts.
    static const std::regex kLegacy(R"(\b(out_|in_)\s*\[)");
    begin = std::sregex_iterator(code.begin(), code.end(), kLegacy);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      Report(idx, "osq-graph-adjacency",
             "legacy '" + (*it)[1].str() +
                 "[v]'-style adjacency access bypasses the Graph API; use "
                 "OutEdges()/InEdges()");
    }
  }

  // --- osq-shard-isolation -------------------------------------------------

  void CheckShardIsolation(size_t idx, const std::string& code) {
    if (!cls_.shard_coordinator) {
      return;
    }
    // Engine-layer types and free functions the coordinator must not name:
    // it talks to shards through the ShardEngine adapter only.
    static const std::regex kEngineType(
        R"(\b(QueryEngine|OntologyIndex|GviewFilter|KMatchOnGraph)\b)");
    std::smatch m;
    if (std::regex_search(code, m, kEngineType)) {
      Report(idx, "osq-shard-isolation",
             "shard coordinator names engine internal '" + m[1].str() +
                 "'; route the work through the ShardEngine adapter");
    }
    static const std::regex kEngineCall(
        R"(\b(KMatch|InducedSubgraph)\s*\()");
    if (std::regex_search(code, m, kEngineCall)) {
      Report(idx, "osq-shard-isolation",
             "shard coordinator calls '" + m[1].str() +
                 "()' directly; per-shard evaluation belongs in "
                 "ShardEngine");
    }
    // Graph traversal / mutation members: the coordinator never walks or
    // edits a shard's graph itself.
    static const std::regex kGraphMember(
        R"((\.|->)\s*(OutEdges|InEdges|EdgeLabelRange|AddEdge|RemoveEdge))"
        R"(\s*\()");
    auto begin = std::sregex_iterator(code.begin(), code.end(), kGraphMember);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      Report(idx, "osq-shard-isolation",
             "shard coordinator uses Graph member '" + (*it)[2].str() +
                 "()'; graph access belongs behind the ShardEngine "
                 "adapter");
    }
  }

  const std::string path_;
  const std::vector<Line>& lines_;
  const FileClass cls_;
  std::vector<Violation>* out_;
  std::set<std::string> guards_;
  std::set<std::string> unordered_vars_;
};

// The src/ modules osq-layering knows about; anything else (system headers,
// gtest, tools/) is outside the layering DAG.
const char* const kModules[] = {"baseline", "common",   "concept", "core",
                                "gen",      "graph",    "ingest",
                                "ontology", "query",    "serve",
                                "shard"};

std::string ModuleOf(const std::string& path, const std::string& stem) {
  for (const char* mod : kModules) {
    if (path.find("src/" + std::string(mod) + "/") != std::string::npos) {
      return mod;
    }
  }
  // Fixtures opt in by naming: {bad,clean}_layering_<module>_*.cc.
  size_t tag = stem.find("layering_");
  if (tag != std::string::npos) {
    std::string rest = stem.substr(tag + 9);
    for (const char* mod : kModules) {
      if (rest.rfind(mod, 0) == 0) {
        return mod;
      }
    }
  }
  return "";
}

}  // namespace

std::string Violation::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

FileClass ClassifyPath(const std::string& path) {
  FileClass cls;
  cls.header = HasSuffix(path, ".h");
  std::string stem = std::filesystem::path(path).filename().string();
  cls.module = ModuleOf(path, stem);
  for (const char* layer :
       {"kmatch", "diversify", "explain", "query_engine"}) {
    if (stem.find(layer) != std::string::npos) {
      cls.emission = true;
    }
  }
  if (path.find("serve") != std::string::npos) {
    cls.emission = true;
  }
  if (path.find("common/rng") != std::string::npos ||
      stem.find("rng") == 0) {
    cls.rng_exempt = true;
  }
  // Only the Graph implementation itself (graph/graph.h + graph/graph.cc,
  // not graph_io or graph_algorithms) may touch the adjacency arrays.
  if (path.find("graph/graph.") != std::string::npos) {
    cls.graph_core = true;
  }
  // The shard layer emits merged matches (same determinism stakes as
  // serve/), and its coordinator files — everything except the ShardEngine
  // adapter and the partitioner, which exist to own the engine/graph
  // internals — must stay isolated from those internals.
  if (path.find("shard") != std::string::npos) {
    cls.emission = true;
    if (stem.find("shard_engine") == std::string::npos &&
        stem.find("partitioner") == std::string::npos) {
      cls.shard_coordinator = true;
    }
  }
  return cls;
}

void LintContent(const std::string& path, const std::string& content,
                 const FileClass& cls, const AnnotationIndex& index,
                 std::vector<Violation>* out) {
  std::vector<Line> lines = Preprocess(content);
  Linter(path, lines, cls, out).Run();
  internal::LintFlow(path, lines, index, out);
  internal::LintLayering(path, content, lines, cls, out);
}

void LintContent(const std::string& path, const std::string& content,
                 const FileClass& cls, std::vector<Violation>* out) {
  // Self-contained mode: the flow rules see only the annotations declared
  // in this content (fixtures, snippets).
  AnnotationIndex index;
  CollectAnnotations(content, &index);
  LintContent(path, content, cls, index, out);
}

namespace {

bool ReadWholeFile(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *content = buf.str();
  return true;
}

}  // namespace

bool LintFile(const std::string& path, std::vector<Violation>* out) {
  std::string content;
  if (!ReadWholeFile(path, &content)) {
    return false;
  }
  AnnotationIndex index;
  CollectAnnotations(content, &index);
  // A .cc file's methods are checked against the annotations its class
  // declared in the sibling header (and vice versa for inline bodies whose
  // class grew annotations in a split header/impl fixture).
  std::string sibling;
  if (HasSuffix(path, ".cc")) {
    sibling = path.substr(0, path.size() - 3) + ".h";
  } else if (HasSuffix(path, ".h")) {
    sibling = path.substr(0, path.size() - 2) + ".cc";
  }
  std::string sibling_content;
  if (!sibling.empty() && ReadWholeFile(sibling, &sibling_content)) {
    CollectAnnotations(sibling_content, &index);
  }
  LintContent(path, content, ClassifyPath(path), index, out);
  return true;
}

bool LintTree(const std::string& root, std::vector<Violation>* out) {
  namespace fs = std::filesystem;
  fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return false;
  }
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(src, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      return false;
    }
    if (!it->is_regular_file()) {
      continue;
    }
    std::string p = it->path().string();
    if (HasSuffix(p, ".h") || HasSuffix(p, ".cc")) {
      files.push_back(std::move(p));
    }
  }
  std::sort(files.begin(), files.end());

  // Two passes: first collect every OSQ_* annotation in the tree (so a .cc
  // body is checked against its header's contracts regardless of scan
  // order), then lint each file against the full index.
  AnnotationIndex index;
  std::vector<std::string> contents(files.size());
  std::vector<char> readable(files.size(), 0);
  bool ok = true;
  for (size_t i = 0; i < files.size(); ++i) {
    if (ReadWholeFile(files[i], &contents[i])) {
      readable[i] = 1;
      CollectAnnotations(contents[i], &index);
    } else {
      ok = false;
    }
  }
  for (size_t i = 0; i < files.size(); ++i) {
    if (readable[i]) {
      LintContent(files[i], contents[i], ClassifyPath(files[i]), index, out);
    }
  }
  return ok;
}

}  // namespace lint
}  // namespace osq
