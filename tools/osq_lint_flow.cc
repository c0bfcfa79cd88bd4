// Flow-aware intra-procedural analysis for osq_lint (DESIGN.md §15).
//
// Three rule families live here, all driven by the OSQ_* lock annotations
// from src/common/annotations.h (parsed textually — enforcement works on the
// GCC-only tier-1 even though the macros also expand to Clang thread-safety
// attributes):
//
//   osq-guarded-access  members annotated OSQ_GUARDED_BY(mu) are read only
//                       under a live shared/exclusive RAII lock on mu and
//                       written only under an exclusive one; OSQ_REQUIRES /
//                       OSQ_REQUIRES_SHARED / OSQ_EXCLUDES contracts are
//                       checked at call sites of annotated helpers.
//   osq-lock-order      OSQ_ACQUIRED_BEFORE edges form a global DAG over
//                       mutex member names; an acquisition that contradicts
//                       the (transitive) order is flagged.
//   osq-layering        module-dependency DAG over src/ #includes.
//
// Analysis model (deliberately simple, tuned for this codebase's idioms):
//   * Lock state is tracked linearly through each function body with a
//     scope stack: a guard dies when its scope closes, .unlock()/.lock()
//     toggle it, std::defer_lock constructs it inactive, std::adopt_lock
//     active (without an acquisition-order event — the acquisition happened
//     elsewhere, e.g. via std::lock's deadlock avoidance).
//   * Mutexes are identified by normalized expression text ("mu_",
//     "state->mu"), so OSQ_GUARDED_BY(mu_) is discharged by any live guard
//     constructed from `mu_` in the same body.
//   * A lambda body is analyzed under the lock state at its definition
//     point.  That matches how lambdas are used here (ParallelFor fan-outs
//     that run while the caller blocks holding the lock, cv.wait
//     predicates); a lambda stashed and invoked later would need its own
//     OSQ_REQUIRES-annotated function instead.
//   * Member accesses spelled through another object (x.member_,
//     ptr->member_) are not checked — the discipline is per-instance and
//     only `member_` / `this->member_` inside the owning class's methods is
//     attributable.  Constructor/destructor bodies are exempt
//     (single-threaded by contract).
//   * Writes are recognized as assignment / compound assignment / ++ / --
//     on the member (or a sub-object chain), or a call whose method name is
//     mutating (push_back, erase, Apply*, Add*, ...).  Anything else is a
//     read.  std::map::operator[] without an assignment is classified by
//     the following operator — under-approximation accepted.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "osq_lint.h"
#include "osq_lint_internal.h"

namespace osq {
namespace lint {
namespace internal {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

size_t SkipWs(const std::string& t, size_t pos) {
  while (pos < t.size() && IsSpace(t[pos])) ++pos;
  return pos;
}

std::string ReadIdent(const std::string& t, size_t* pos) {
  size_t b = *pos;
  while (*pos < t.size() && IsIdentChar(t[*pos])) ++*pos;
  return t.substr(b, *pos - b);
}

// t[pos] is `open`; returns the offset just past the matching close (or
// t.size() when unbalanced).
size_t SkipBalanced(const std::string& t, size_t pos, char open, char close) {
  int depth = 0;
  for (; pos < t.size(); ++pos) {
    if (t[pos] == open) ++depth;
    if (t[pos] == close && --depth == 0) return pos + 1;
  }
  return t.size();
}

// Mutex expressions compare by whitespace-stripped text with an optional
// this-> prefix removed, so `mu_`, `this->mu_` and ` mu_ ` all name the
// same lock.
std::string NormalizeExpr(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!IsSpace(c)) out.push_back(c);
  }
  if (out.rfind("this->", 0) == 0) out = out.substr(6);
  return out;
}

// Splits `s` on commas at paren/angle/brace depth 0.
std::vector<std::string> SplitArgs(const std::string& s) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (char c : s) {
    if (c == '(' || c == '<' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      args.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) args.push_back(cur);
  return args;
}

// --- code text with offset -> line mapping --------------------------------

struct CodeText {
  std::string text;               // code views joined with '\n'
  std::vector<size_t> line_start; // offset of each line's first char
};

CodeText JoinCode(const std::vector<Line>& lines) {
  CodeText ct;
  ct.line_start.reserve(lines.size());
  for (const Line& l : lines) {
    ct.line_start.push_back(ct.text.size());
    ct.text += l.code;
    ct.text.push_back('\n');
  }
  return ct;
}

size_t LineIndexOf(const CodeText& ct, size_t offset) {
  auto it = std::upper_bound(ct.line_start.begin(), ct.line_start.end(),
                             offset);
  return it == ct.line_start.begin()
             ? 0
             : static_cast<size_t>(it - ct.line_start.begin()) - 1;
}

// --- scope walking --------------------------------------------------------

struct Statement {
  std::string class_name;  // enclosing class ("" at namespace scope)
  std::string text;
};

struct FunctionBody {
  std::string class_name;  // "" for free functions / unattributed lambdas
  std::string func_name;
  bool ctor_dtor = false;
  size_t begin = 0;  // offset just past the opening '{'
  size_t end = 0;    // offset of the matching '}'
};

struct ParsedScopes {
  std::vector<Statement> statements;  // class/namespace-scope + fn headers
  std::vector<FunctionBody> functions;
};

bool ContainsToken(const std::string& s, const std::string& token) {
  size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    size_t after = pos + token.size();
    bool right_ok = after >= s.size() || !IsIdentChar(s[after]);
    if (left_ok && right_ok) return true;
    pos = after;
  }
  return false;
}

bool IsControlKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "alignof", "decltype", "assert", "static_assert"};
  return kKeywords.count(name) > 0;
}

// Extracts the (possibly qualified) name owning the first depth-0 '(' in a
// candidate function-header statement; "" when there is none or it looks
// like a control-flow header.
std::string HeaderFunctionName(const std::string& stmt) {
  int angle = 0;
  size_t open = std::string::npos;
  for (size_t i = 0; i < stmt.size(); ++i) {
    char c = stmt[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == '(' && angle == 0) {
      open = i;
      break;
    }
  }
  if (open == std::string::npos) return "";
  size_t e = open;
  while (e > 0 && IsSpace(stmt[e - 1])) --e;
  if (e == 0) return "";
  if (stmt[e - 1] == ']') return "<lambda>";
  // Built right to left; a class template's argument list in an
  // out-of-class member definition (`Box<T>::Put`) is dropped, so the
  // member is attributed to `Box` like one defined in the class body.
  std::string name;
  size_t b = e;
  while (true) {
    size_t seg_end = b;
    while (b > 0 && (IsIdentChar(stmt[b - 1]) || stmt[b - 1] == ':' ||
                     stmt[b - 1] == '~')) {
      --b;
    }
    name = stmt.substr(b, seg_end - b) + name;
    if (b == 0 || stmt[b - 1] != '>' || name.rfind("::", 0) != 0) break;
    int depth = 0;
    while (b > 0) {
      char c = stmt[--b];
      if (c == '>') ++depth;
      if (c == '<' && --depth == 0) break;
    }
  }
  if (name.empty()) {
    // operator==, operator+=, ...: symbols back to the `operator` keyword.
    size_t s = e;
    while (s > 0 && std::string("=!<>+-*/%^&|~[]").find(stmt[s - 1]) !=
                        std::string::npos) {
      --s;
    }
    size_t ib = s;
    while (ib > 0 && IsIdentChar(stmt[ib - 1])) --ib;
    if (stmt.substr(ib, s - ib) == "operator") {
      name = stmt.substr(ib, e - ib);
    }
  }
  return name;
}

// Splits "A::B::f" into class ("B", overriding `scope_class` when
// qualified) and function name; flags ctors/dtors.
void AttributeFunction(const std::string& raw_name,
                       const std::string& scope_class, FunctionBody* fb) {
  std::vector<std::string> parts;
  size_t b = 0;
  while (b <= raw_name.size()) {
    size_t e = raw_name.find("::", b);
    if (e == std::string::npos) {
      parts.push_back(raw_name.substr(b));
      break;
    }
    parts.push_back(raw_name.substr(b, e - b));
    b = e + 2;
  }
  std::string last = parts.empty() ? "" : parts.back();
  fb->func_name = last;
  fb->class_name = scope_class;
  if (parts.size() >= 2 && !parts[parts.size() - 2].empty()) {
    fb->class_name = parts[parts.size() - 2];
  }
  if (!last.empty() && last[0] == '~') {
    fb->ctor_dtor = true;
    fb->func_name = last.substr(1);
  } else if (parts.size() >= 2 && last == parts[parts.size() - 2]) {
    fb->ctor_dtor = true;
  } else if (!scope_class.empty() && last == scope_class) {
    fb->ctor_dtor = true;
  }
}

ParsedScopes WalkScopes(const std::string& text) {
  struct Scope {
    enum Kind { kNamespace, kClass, kOther } kind;
    std::string name;
  };
  ParsedScopes out;
  std::vector<Scope> scopes;
  auto current_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  };

  size_t stmt_start = 0;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (c == ';') {
      out.statements.push_back(
          Statement{current_class(), text.substr(stmt_start, i - stmt_start)});
      stmt_start = ++i;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      stmt_start = ++i;
      continue;
    }
    if (c != '{') {
      ++i;
      continue;
    }

    std::string stmt = text.substr(stmt_start, i - stmt_start);
    // Function headers and class heads carry annotations too.
    out.statements.push_back(Statement{current_class(), stmt});

    if (ContainsToken(stmt, "namespace")) {
      scopes.push_back(Scope{Scope::kNamespace, ""});
      stmt_start = ++i;
      continue;
    }
    if (!ContainsToken(stmt, "enum")) {
      // class/struct head: the last depth-0 keyword wins (skips `template
      // <class T>` parameters); a '(' anywhere at depth 0 means this is a
      // function or initializer instead.
      int angle = 0, paren = 0;
      bool has_paren = false;
      std::string cls_name;
      for (size_t p = 0; p < stmt.size(); ++p) {
        char sc = stmt[p];
        if (sc == '<') ++angle;
        if (sc == '>' && angle > 0) --angle;
        if (sc == '(') {
          ++paren;
          has_paren = true;
        }
        if (sc == ')' && paren > 0) --paren;
        if (angle == 0 && paren == 0 && IsIdentStart(sc) &&
            (p == 0 || !IsIdentChar(stmt[p - 1]))) {
          size_t q = p;
          std::string tok = ReadIdent(stmt, &q);
          if (tok == "class" || tok == "struct") {
            size_t r = SkipWs(stmt, q);
            if (r < stmt.size() && IsIdentStart(stmt[r])) {
              cls_name = ReadIdent(stmt, &r);
            }
          }
          p = q - 1;
        }
      }
      if (!cls_name.empty() && !has_paren) {
        scopes.push_back(Scope{Scope::kClass, cls_name});
        stmt_start = ++i;
        continue;
      }
    }

    std::string fn = HeaderFunctionName(stmt);
    if (!fn.empty() && !IsControlKeyword(fn) && !ContainsToken(stmt, "enum")) {
      FunctionBody fb;
      AttributeFunction(fn, current_class(), &fb);
      fb.begin = i + 1;
      fb.end = SkipBalanced(text, i, '{', '}');
      if (fb.end > 0) --fb.end;  // offset of the closing '}'
      out.functions.push_back(fb);
      i = fb.end + 1;
      stmt_start = i;
      continue;
    }

    scopes.push_back(Scope{Scope::kOther, ""});
    stmt_start = ++i;
  }
  return out;
}

// --- annotation collection ------------------------------------------------

std::string LastIdentBefore(const std::string& s, size_t pos) {
  while (pos > 0 && IsSpace(s[pos - 1])) --pos;
  size_t e = pos;
  while (pos > 0 && IsIdentChar(s[pos - 1])) --pos;
  return s.substr(pos, e - pos);
}

void CollectFromStatement(const std::string& cls, const std::string& stmt,
                          AnnotationIndex* index) {
  size_t pos = 0;
  while ((pos = stmt.find("OSQ_", pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(stmt[pos - 1])) {
      pos += 4;
      continue;
    }
    size_t e = pos;
    std::string macro = ReadIdent(stmt, &e);
    size_t open = SkipWs(stmt, e);
    if (open >= stmt.size() || stmt[open] != '(') {
      pos = e;
      continue;
    }
    size_t close = SkipBalanced(stmt, open, '(', ')');
    std::vector<std::string> raw_args =
        SplitArgs(stmt.substr(open + 1, close - open - 2));
    std::vector<std::string> args;
    for (const std::string& a : raw_args) {
      std::string norm = NormalizeExpr(a);
      if (!norm.empty()) args.push_back(norm);
    }
    if (cls.empty()) {  // annotations attach to class members only
      pos = close;
      continue;
    }
    if (macro == "OSQ_GUARDED_BY" || macro == "OSQ_ACQUIRED_BEFORE") {
      std::string member = LastIdentBefore(stmt, pos);
      if (!member.empty()) {
        ClassLockAnnotations& ca = index->classes[cls];
        if (macro == "OSQ_GUARDED_BY" && !args.empty()) {
          ca.guarded_members[member] = args[0];
        } else if (macro == "OSQ_ACQUIRED_BEFORE") {
          for (const std::string& later : args) {
            ca.acquired_before.emplace_back(member, later);
          }
        }
      }
    } else if (macro == "OSQ_REQUIRES" || macro == "OSQ_REQUIRES_SHARED" ||
               macro == "OSQ_EXCLUDES") {
      std::string raw = HeaderFunctionName(stmt);
      FunctionBody fb;
      AttributeFunction(raw, cls, &fb);
      if (!fb.func_name.empty() && !fb.class_name.empty()) {
        FunctionLockAnnotation& fa =
            index->classes[fb.class_name].functions[fb.func_name];
        std::vector<std::string>* dst =
            macro == "OSQ_REQUIRES"
                ? &fa.requires_exclusive
                : macro == "OSQ_REQUIRES_SHARED" ? &fa.requires_shared
                                                 : &fa.excludes;
        for (const std::string& m : args) {
          if (std::find(dst->begin(), dst->end(), m) == dst->end()) {
            dst->push_back(m);
          }
        }
      }
    }
    pos = close;
  }
}

// --- reporting (NOLINT-aware) ---------------------------------------------

class Reporter {
 public:
  Reporter(const std::string& path, const std::vector<Line>& lines,
           const CodeText& ct, std::vector<Violation>* out)
      : path_(path), lines_(lines), ct_(ct), out_(out) {}

  void Report(size_t offset, const std::string& rule, std::string message) {
    ReportLine(LineIndexOf(ct_, offset), rule, std::move(message));
  }

  void ReportLine(size_t idx, const std::string& rule, std::string message) {
    Suppression s = idx < lines_.size()
                        ? ParseNolint(lines_[idx].comment, rule, false)
                        : Suppression::kNone;
    if (s == Suppression::kNone && idx > 0 && idx - 1 < lines_.size()) {
      s = ParseNolint(lines_[idx - 1].comment, rule, true);
    }
    if (s == Suppression::kJustified) return;
    if (s == Suppression::kUnjustified) {
      message = "suppression requires a justification: NOLINT(" + rule +
                "): <why this is safe>";
    }
    out_->push_back(Violation{path_, idx + 1, rule, std::move(message)});
  }

 private:
  const std::string& path_;
  const std::vector<Line>& lines_;
  const CodeText& ct_;
  std::vector<Violation>* out_;
};

// --- lock-state tracking --------------------------------------------------

using OrderClosure = std::map<std::string, std::set<std::string>>;

bool IsMutatingMethod(const std::string& m) {
  static const std::set<std::string> kExact = {
      "push_back",    "pop_back", "push_front", "pop_front", "insert",
      "erase",        "clear",    "resize",     "reserve",   "assign",
      "swap",         "splice",   "merge",      "emplace",   "emplace_back",
      "emplace_front", "store",   "exchange",   "fetch_add", "fetch_sub"};
  static const char* const kPrefixes[] = {"Apply", "Add",    "Remove",
                                          "Set",   "Reset",  "Invalidate",
                                          "Finish", "Insert", "Clear"};
  if (kExact.count(m) > 0) return true;
  for (const char* p : kPrefixes) {
    if (m.rfind(p, 0) == 0) return true;
  }
  return false;
}

// True when the token at `start` is a plain (or this->) member use, not a
// qualified name or another object's member.
bool IsOwnMemberContext(const std::string& t, size_t start) {
  size_t b = start;
  while (b > 0 && IsSpace(t[b - 1])) --b;
  if (b == 0) return true;
  char p = t[b - 1];
  if (p == '.' || p == ':') return false;
  if (p == '>' && b >= 2 && t[b - 2] == '-') {
    size_t q = b - 2;
    while (q > 0 && IsSpace(t[q - 1])) --q;
    return q >= 4 && t.compare(q - 4, 4, "this") == 0 &&
           (q == 4 || !IsIdentChar(t[q - 5]));
  }
  return true;
}

// Classifies the member use starting at [start, after) as a write (see file
// comment for the recognized forms).
bool IsWriteUse(const std::string& t, size_t start, size_t after,
                size_t limit) {
  size_t b = start;
  while (b > 0 && IsSpace(t[b - 1])) --b;
  if (b >= 2 && ((t[b - 1] == '+' && t[b - 2] == '+') ||
                 (t[b - 1] == '-' && t[b - 2] == '-'))) {
    return true;
  }
  size_t p = after;
  bool mutated = false;
  std::string last_method;
  while (p < limit) {
    p = SkipWs(t, p);
    if (p >= limit) break;
    if (t[p] == '.') {
      size_t q = SkipWs(t, p + 1);
      last_method = ReadIdent(t, &q);
      if (last_method.empty()) break;
      p = q;
      continue;
    }
    if (t[p] == '-' && p + 1 < limit && t[p + 1] == '>') {
      size_t q = SkipWs(t, p + 2);
      last_method = ReadIdent(t, &q);
      if (last_method.empty()) break;
      p = q;
      continue;
    }
    if (t[p] == '[') {
      p = SkipBalanced(t, p, '[', ']');
      last_method.clear();
      continue;
    }
    if (t[p] == '(') {
      p = SkipBalanced(t, p, '(', ')');
      if (IsMutatingMethod(last_method)) mutated = true;
      last_method.clear();
      continue;
    }
    break;
  }
  if (mutated) return true;
  p = SkipWs(t, p);
  if (p + 1 < limit &&
      ((t[p] == '+' && t[p + 1] == '+') || (t[p] == '-' && t[p + 1] == '-'))) {
    return true;
  }
  if (p < limit && t[p] == '=' && (p + 1 >= limit || t[p + 1] != '=')) {
    return true;
  }
  if (p + 1 < limit && t[p + 1] == '=' &&
      std::string("+-*/%&|^").find(t[p]) != std::string::npos) {
    return true;
  }
  if (p + 2 < limit && t[p + 2] == '=' &&
      ((t[p] == '<' && t[p + 1] == '<') || (t[p] == '>' && t[p + 1] == '>'))) {
    return true;
  }
  return false;
}

struct Hold {
  std::string mutex;   // normalized expression
  bool shared = false;
  bool active = false;
  int depth = 0;       // scope depth at declaration; 0 = function entry
  std::string guard;   // RAII object name; "" for OSQ_REQUIRES entry locks
};

const Hold* FindActive(const std::vector<Hold>& holds, const std::string& m,
                       bool need_exclusive) {
  const Hold* found = nullptr;
  for (const Hold& h : holds) {
    if (!h.active || h.mutex != m) continue;
    if (!need_exclusive || !h.shared) return &h;
    found = &h;  // shared hold: remember, keep looking for an exclusive one
  }
  return need_exclusive ? nullptr : found;
}

bool AnyActive(const std::vector<Hold>& holds, const std::string& m) {
  return FindActive(holds, m, false) != nullptr;
}

bool AnyActiveExclusive(const std::vector<Hold>& holds, const std::string& m) {
  for (const Hold& h : holds) {
    if (h.active && !h.shared && h.mutex == m) return true;
  }
  return false;
}

bool OnlySharedActive(const std::vector<Hold>& holds, const std::string& m) {
  return AnyActive(holds, m) && !AnyActiveExclusive(holds, m);
}

void CheckAcquisitionOrder(size_t offset, const std::string& acquiring,
                           const std::vector<Hold>& holds,
                           const OrderClosure& order, Reporter* rep) {
  auto it = order.find(acquiring);
  if (it == order.end()) return;
  std::set<std::string> reported;
  for (const Hold& h : holds) {
    if (!h.active || h.mutex == acquiring) continue;
    if (it->second.count(h.mutex) > 0 && reported.insert(h.mutex).second) {
      rep->Report(offset, "osq-lock-order",
                  "acquires '" + acquiring + "' while holding '" + h.mutex +
                      "', but '" + acquiring + "' is acquired-before '" +
                      h.mutex + "' (OSQ_ACQUIRED_BEFORE)");
    }
  }
}

void AnalyzeFunction(const CodeText& ct, const FunctionBody& fb,
                     const AnnotationIndex& index, const OrderClosure& order,
                     Reporter* rep) {
  const ClassLockAnnotations* ca = nullptr;
  auto cit = index.classes.find(fb.class_name);
  if (cit != index.classes.end()) ca = &cit->second;
  if (ca == nullptr && order.empty()) return;

  std::vector<Hold> holds;
  if (ca != nullptr) {
    auto fit = ca->functions.find(fb.func_name);
    if (fit != ca->functions.end()) {
      for (const std::string& m : fit->second.requires_exclusive) {
        holds.push_back(Hold{m, false, true, 0, ""});
      }
      for (const std::string& m : fit->second.requires_shared) {
        holds.push_back(Hold{m, true, true, 0, ""});
      }
    }
  }

  const std::string& t = ct.text;
  int depth = 1;
  size_t pos = fb.begin;
  while (pos < fb.end) {
    char c = t[pos];
    if (c == '{') {
      ++depth;
      ++pos;
      continue;
    }
    if (c == '}') {
      holds.erase(std::remove_if(holds.begin(), holds.end(),
                                 [&](const Hold& h) {
                                   return h.depth == depth;
                                 }),
                  holds.end());
      --depth;
      ++pos;
      continue;
    }
    if (!IsIdentStart(c) || (pos > 0 && IsIdentChar(t[pos - 1]))) {
      ++pos;
      continue;
    }
    size_t start = pos;
    std::string token = ReadIdent(t, &pos);

    // Guard declaration: lock_guard<...> name(mutexes...);
    if (token == "lock_guard" || token == "unique_lock" ||
        token == "shared_lock" || token == "scoped_lock") {
      size_t p = SkipWs(t, pos);
      if (p < t.size() && t[p] == '<') p = SkipBalanced(t, p, '<', '>');
      p = SkipWs(t, p);
      if (p >= fb.end || !IsIdentStart(t[p])) continue;
      size_t name_pos = p;
      std::string gname = ReadIdent(t, &name_pos);
      size_t open = SkipWs(t, name_pos);
      if (open >= fb.end || (t[open] != '(' && t[open] != '{')) continue;
      char close_ch = t[open] == '(' ? ')' : '}';
      size_t close = SkipBalanced(t, open, t[open], close_ch);
      bool defer = false, adopt = false;
      std::vector<std::string> mutexes;
      for (const std::string& raw :
           SplitArgs(t.substr(open + 1, close - open - 2))) {
        std::string a = NormalizeExpr(raw);
        if (a.empty()) continue;
        if (a.find("defer_lock") != std::string::npos) {
          defer = true;
        } else if (a.find("adopt_lock") != std::string::npos) {
          adopt = true;
        } else if (a.find("try_to_lock") != std::string::npos) {
          // optimistic: treat as acquired
        } else {
          mutexes.push_back(a);
        }
      }
      bool active = !defer;
      for (const std::string& m : mutexes) {
        if (active && !adopt) {
          CheckAcquisitionOrder(start, m, holds, order, rep);
        }
        holds.push_back(
            Hold{m, token == "shared_lock", active, depth, gname});
      }
      // Note: close may lie past a '{' if the args used brace-init; the
      // main scan resumes at the close so depth stays balanced either way.
      pos = close;
      continue;
    }

    // Guard method calls: g.unlock() / g.lock() toggle its holds.
    bool is_guard = false;
    for (const Hold& h : holds) {
      if (!h.guard.empty() && h.guard == token) {
        is_guard = true;
        break;
      }
    }
    if (is_guard) {
      size_t p = SkipWs(t, pos);
      if (p < fb.end && t[p] == '.') {
        size_t q = SkipWs(t, p + 1);
        std::string method = ReadIdent(t, &q);
        if (method == "unlock" || method == "unlock_shared") {
          for (Hold& h : holds) {
            if (h.guard == token) h.active = false;
          }
        } else if (method == "lock" || method == "lock_shared" ||
                   method == "try_lock" || method == "try_lock_shared") {
          for (Hold& h : holds) {
            if (h.guard == token && !h.active) {
              CheckAcquisitionOrder(start, h.mutex, holds, order, rep);
              h.active = true;
            }
          }
        }
      }
      continue;
    }

    if (ca == nullptr) continue;

    // Guarded member access.
    auto git = ca->guarded_members.find(token);
    if (git != ca->guarded_members.end() && !fb.ctor_dtor &&
        IsOwnMemberContext(t, start)) {
      const std::string& m = git->second;
      bool write = IsWriteUse(t, start, pos, fb.end);
      if (write && !AnyActiveExclusive(holds, m)) {
        rep->Report(start, "osq-guarded-access",
                    OnlySharedActive(holds, m)
                        ? "writes '" + token + "' (guarded by '" + m +
                              "') under a shared lock; writes require an "
                              "exclusive lock on '" + m + "'"
                        : "writes '" + token + "' (guarded by '" + m +
                              "') without an exclusive lock on '" + m + "'");
      } else if (!write && !AnyActive(holds, m)) {
        rep->Report(start, "osq-guarded-access",
                    "reads '" + token + "' (guarded by '" + m +
                        "') without holding '" + m +
                        "' (shared or exclusive RAII lock required)");
      }
      continue;
    }

    // Annotated helper call: check its lock contract at the call site.
    auto fit = ca->functions.find(token);
    if (fit != ca->functions.end() && IsOwnMemberContext(t, start)) {
      size_t p = SkipWs(t, pos);
      if (p < fb.end && t[p] == '(') {
        const FunctionLockAnnotation& fa = fit->second;
        for (const std::string& m : fa.requires_exclusive) {
          if (!AnyActiveExclusive(holds, m)) {
            rep->Report(start, "osq-guarded-access",
                        OnlySharedActive(holds, m)
                            ? "call to '" + token + "' requires '" + m +
                                  "' held exclusively (OSQ_REQUIRES) but "
                                  "only a shared lock is live"
                            : "call to '" + token + "' requires '" + m +
                                  "' held exclusively (OSQ_REQUIRES)");
          }
        }
        for (const std::string& m : fa.requires_shared) {
          if (!AnyActive(holds, m)) {
            rep->Report(start, "osq-guarded-access",
                        "call to '" + token + "' requires '" + m +
                            "' held shared or exclusive "
                            "(OSQ_REQUIRES_SHARED)");
          }
        }
        for (const std::string& m : fa.excludes) {
          if (AnyActive(holds, m)) {
            rep->Report(start, "osq-guarded-access",
                        "call to '" + token + "' requires '" + m +
                            "' NOT held (OSQ_EXCLUDES)");
          }
        }
      }
      continue;
    }
  }
}

OrderClosure BuildOrderClosure(const AnnotationIndex& index) {
  OrderClosure order;
  for (const auto& entry : index.classes) {
    for (const auto& edge : entry.second.acquired_before) {
      order[edge.first].insert(edge.second);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& node : order) {
      std::set<std::string> add;
      for (const std::string& mid : node.second) {
        auto it = order.find(mid);
        if (it == order.end()) continue;
        for (const std::string& far : it->second) {
          if (node.second.count(far) == 0) add.insert(far);
        }
      }
      if (!add.empty()) {
        node.second.insert(add.begin(), add.end());
        changed = true;
      }
    }
  }
  return order;
}

}  // namespace

void LintFlow(const std::string& path, const std::vector<Line>& lines,
              const AnnotationIndex& index, std::vector<Violation>* out) {
  if (index.classes.empty()) return;
  CodeText ct = JoinCode(lines);
  ParsedScopes scopes = WalkScopes(ct.text);
  OrderClosure order = BuildOrderClosure(index);
  Reporter rep(path, lines, ct, out);
  for (const FunctionBody& fb : scopes.functions) {
    AnalyzeFunction(ct, fb, index, order, &rep);
  }
}

void LintLayering(const std::string& path, const std::string& content,
                  const std::vector<Line>& lines, const FileClass& cls,
                  std::vector<Violation>* out) {
  if (cls.module.empty()) return;
  static const std::set<std::string> kTier0 = {
      "baseline", "common", "core", "gen", "graph", "ontology", "query"};
  static const std::set<std::string> kAll = {
      "baseline", "common", "concept", "core",  "gen",   "graph",
      "ingest",   "ontology", "query", "serve", "shard"};
  std::string stem = path;
  size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const bool is_bridge =
      stem == "update_sink.h" || stem == "update_sink.cc";

  auto allowed = [&](const std::string& target) {
    if (target == cls.module || kTier0.count(target) > 0) return true;
    if (cls.module == "shard" && target == "serve") return true;
    if (cls.module == "ingest" && (target == "serve" || target == "shard")) {
      return is_bridge;
    }
    return false;
  };

  CodeText dummy;  // unused; layering reports by line index directly
  Reporter rep(path, lines, dummy, out);

  size_t line_idx = 0;
  size_t b = 0;
  while (b <= content.size()) {
    size_t e = content.find('\n', b);
    std::string raw = content.substr(
        b, e == std::string::npos ? std::string::npos : e - b);
    size_t p = SkipWs(raw, 0);
    if (p < raw.size() && raw[p] == '#') {
      p = SkipWs(raw, p + 1);
      if (raw.compare(p, 7, "include") == 0) {
        p = SkipWs(raw, p + 7);
        if (p < raw.size() && raw[p] == '"') {
          size_t close = raw.find('"', p + 1);
          size_t sep = raw.find('/', p + 1);
          if (close != std::string::npos && sep != std::string::npos &&
              sep < close) {
            std::string target = raw.substr(p + 1, sep - p - 1);
            if (kAll.count(target) > 0 && !allowed(target)) {
              std::string inc = raw.substr(p + 1, close - p - 1);
              rep.ReportLine(
                  line_idx, "osq-layering",
                  "module '" + cls.module + "' must not include '" + inc +
                      "' (tier order: common/graph/ontology/core/query <- "
                      "serve <- shard; ingest bridges to the serving tiers "
                      "only via update_sink.{h,cc}; concept sits beside the "
                      "serving tiers and nothing in src/ includes it)");
            }
          }
        }
      }
    }
    if (e == std::string::npos) break;
    b = e + 1;
    ++line_idx;
  }
}

}  // namespace internal

void CollectAnnotations(const std::string& content, AnnotationIndex* index) {
  std::vector<internal::Line> lines = internal::Preprocess(content);
  internal::CodeText ct = internal::JoinCode(lines);
  internal::ParsedScopes scopes = internal::WalkScopes(ct.text);
  for (const internal::Statement& stmt : scopes.statements) {
    if (stmt.text.find("OSQ_") != std::string::npos) {
      internal::CollectFromStatement(stmt.class_name, stmt.text, index);
    }
  }
}

}  // namespace lint
}  // namespace osq
