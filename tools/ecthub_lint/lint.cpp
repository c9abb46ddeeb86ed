#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ecthub::lint {

namespace {

// ---------------------------------------------------------------------------
// Lexical preprocessing
// ---------------------------------------------------------------------------

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string strip_comments_and_literals(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::string out(content);
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" that terminates the active raw string
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && i > 0 && content[i - 1] == 'R') {
          // Raw string: R"delim( ... )delim".  Capture the close sequence.
          std::size_t paren = content.find('(', i + 1);
          if (paren == std::string::npos) {
            out[i] = ' ';  // malformed; degrade to stripping the rest
            state = State::kString;
          } else {
            raw_close = ")" + content.substr(i + 1, paren - i - 1) + "\"";
            state = State::kRawString;
            out[i] = ' ';
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && i > 0 && is_ident(content[i - 1])) {
          // Digit separator (1'000'000) or suffix position — not a literal.
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (c == raw_close.front() && content.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t k = 0; k < raw_close.size(); ++k) out[i + k] = ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Brace-context tracking
//
// One linear pass over the stripped text classifies every '{' by the
// statement text that precedes it (namespace / type / function / plain
// block) and records, for every character position, whether it sits inside a
// function body and whether that function is on the hot path.  Rule matching
// then reads those per-position flags, so a one-line hot function is handled
// exactly like a multi-line one.
// ---------------------------------------------------------------------------

struct CharFlags {
  bool in_function = false;
  bool in_hot = false;
};

struct Ctx {
  bool in_function = false;
  bool in_hot = false;
};

const std::vector<std::string> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "do", "else", "return", "try"};
const std::vector<std::string> kTypeKeywords = {"namespace", "class", "struct",
                                                "union", "enum", "concept", "requires"};

bool first_token_is(const std::string& stmt, const std::vector<std::string>& words) {
  const std::string t = trim(stmt);
  for (const std::string& w : words) {
    if (t.compare(0, w.size(), w) == 0 &&
        (t.size() == w.size() || !is_ident(t[w.size()]))) {
      return true;
    }
  }
  return false;
}

/// The identifier immediately before the first '(' of `stmt`; empty when the
/// brace does not open a function body (initializer list, lambda, control).
std::string function_name_of(const std::string& stmt) {
  std::string t = trim(stmt);
  if (t.empty()) return {};
  if (t.back() == '=' || t.back() == ',') return {};       // brace initializer
  if (t.find("](") != std::string::npos) return {};        // lambda introducer
  if (first_token_is(t, kControlKeywords)) return {};
  // Skip a leading template parameter list so `template <...> T f(...)` is
  // classified by what follows it.
  if (first_token_is(t, {"template"})) {
    std::size_t lt = t.find('<');
    if (lt != std::string::npos) {
      int depth = 0;
      std::size_t k = lt;
      for (; k < t.size(); ++k) {
        if (t[k] == '<') ++depth;
        if (t[k] == '>' && --depth == 0) break;
      }
      t = k < t.size() ? trim(t.substr(k + 1)) : std::string();
    }
  }
  if (first_token_is(t, kTypeKeywords)) return {};
  const std::size_t paren = t.find('(');
  if (paren == std::string::npos) return {};
  std::size_t e = paren;
  while (e > 0 && std::isspace(static_cast<unsigned char>(t[e - 1])) != 0) --e;
  std::size_t b = e;
  while (b > 0 && is_ident(t[b - 1])) --b;
  if (b == e) return {};
  std::string name = t.substr(b, e - b);
  if (first_token_is(name, kControlKeywords) || first_token_is(name, kTypeKeywords)) {
    return {};
  }
  return name;
}

bool is_hot_name(const std::string& name) {
  if (name == "decide_rows" || name == "act_rows") return true;
  static const std::string kSuffix = "_into";
  return name.size() > kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

/// Non-const `static` / `thread_local` statement check (function-locals only;
/// the caller guarantees function context).  Returns true when the statement
/// declares mutable static-duration state.
bool is_mutable_static_local(const std::string& stmt) {
  std::string t = trim(stmt);
  bool saw_static = false;
  for (;;) {
    if (first_token_is(t, {"static"})) {
      saw_static = true;
      t = trim(t.substr(6));
    } else if (first_token_is(t, {"thread_local"})) {
      saw_static = true;
      t = trim(t.substr(12));
    } else {
      break;
    }
  }
  if (!saw_static) return false;
  // `static_assert`, member-function-like uses, etc. never reach here: the
  // loop above only strips whole keywords.
  if (first_token_is(t, {"const", "constexpr", "constinit"})) return false;
  // `static const`-qualified pointers (`static X* const p`) stay rare enough
  // to go through the allowlist instead of complicating the grammar.
  return true;
}

struct ScanResult {
  std::vector<CharFlags> flags;          // per character of the stripped text
  std::vector<std::pair<std::size_t, std::size_t>> static_locals;  // (pos, unused)
};

ScanResult scan_contexts(const std::string& stripped) {
  ScanResult r;
  r.flags.resize(stripped.size());
  std::vector<Ctx> stack;
  std::string stmt;
  std::size_t stmt_start = 0;  // position of the first meaningful char
  bool stmt_has_content = false;

  auto current = [&]() -> Ctx {
    return stack.empty() ? Ctx{} : stack.back();
  };
  auto flush_statement = [&](bool opening_brace) {
    (void)opening_brace;
    if (stmt_has_content && current().in_function && is_mutable_static_local(stmt)) {
      r.static_locals.emplace_back(stmt_start, 0);
    }
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '{') {
      flush_statement(true);
      const std::string name = function_name_of(stmt);
      Ctx next = current();
      if (!name.empty() && !next.in_function) {
        // A parenthesized signature at namespace/class scope opens a
        // function body.  Nested braces (blocks, lambdas, local types)
        // inherit the enclosing function's flags.
        next.in_function = true;
        next.in_hot = is_hot_name(name);
      }
      stack.push_back(next);
      stmt.clear();
      stmt_has_content = false;
    } else if (c == '}') {
      flush_statement(false);
      if (!stack.empty()) stack.pop_back();
      stmt.clear();
      stmt_has_content = false;
    } else if (c == ';') {
      flush_statement(false);
      stmt.clear();
      stmt_has_content = false;
    } else {
      if (!stmt_has_content && std::isspace(static_cast<unsigned char>(c)) == 0) {
        stmt_has_content = true;
        stmt_start = i;
      }
      if (stmt_has_content) stmt += c;
    }
    r.flags[i] = CharFlags{current().in_function, current().in_hot};
  }
  return r;
}

// ---------------------------------------------------------------------------
// Token search helpers
// ---------------------------------------------------------------------------

/// All positions where `token` occurs as a whole word in `text`.
std::vector<std::size_t> word_occurrences(const std::string& text, const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

/// Positions of `token(` as a whole word (whitespace allowed before '(').
std::vector<std::size_t> call_occurrences(const std::string& text, const std::string& token) {
  std::vector<std::size_t> hits;
  for (std::size_t pos : word_occurrences(text, token)) {
    std::size_t k = pos + token.size();
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k])) != 0) ++k;
    if (k < text.size() && text[k] == '(') hits.push_back(pos);
  }
  return hits;
}

/// The member-access receiver chain ending just before position `pos` (which
/// points at the method name, i.e. after '.' or '->').  "ws.probs" for
/// "ws.probs.resize", "scratch->trunk" for "scratch->trunk.resize_zeroed".
std::string receiver_chain(const std::string& text, std::size_t pos) {
  if (pos == 0) return {};
  std::size_t e = pos;
  // Step over the '.' or '->' that separates receiver from method.
  if (text[e - 1] == '.') {
    --e;
  } else if (e >= 2 && text[e - 1] == '>' && text[e - 2] == '-') {
    e -= 2;
  } else {
    return {};  // unqualified call — no receiver to inspect
  }
  std::size_t b = e;
  while (b > 0) {
    const char p = text[b - 1];
    if (is_ident(p) || p == '.' || p == ')' || p == ']') {
      --b;
    } else if (p == '>' && b >= 2 && text[b - 2] == '-') {
      b -= 2;
    } else {
      break;
    }
  }
  return text.substr(b, e - b);
}

/// Workspace / output-buffer receivers are the sanctioned warm-up-growth
/// targets of the `*_into` contract: caller-owned scratch reused across
/// calls, where a steady-state resize is a no-op.  Matching works on the
/// identifier components of the chain ("ws", "scratch->trunk", "out_ghi"),
/// never raw substrings — "rows" must not pass as "ws".
bool is_workspace_receiver(std::string chain) {
  std::transform(chain.begin(), chain.end(), chain.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  std::vector<std::string> parts;
  std::string cur;
  for (char ch : chain) {
    if (is_ident(ch)) {
      cur += ch;
    } else if (!cur.empty()) {
      parts.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  auto starts = [](const std::string& s, const char* p) {
    return s.rfind(p, 0) == 0;
  };
  auto ends = [](const std::string& s, const char* p) {
    const std::string suf(p);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
  };
  for (const std::string& c : parts) {
    if (c == "ws" || starts(c, "ws_") || ends(c, "_ws")) return true;
    if (c.find("workspace") != std::string::npos) return true;
    if (c.find("scratch") != std::string::npos) return true;
    if (c.find("buf") != std::string::npos) return true;
    if (c == "out" || starts(c, "out_") || starts(c, "output") || ends(c, "_out")) {
      return true;
    }
  }
  return false;
}

/// Whether `path` lies under one of `dirs` ("src/nn/"), given relative to
/// the repo root or inside an absolute path.
bool under_any(const std::string& path, std::initializer_list<const char*> dirs) {
  for (const char* dir : dirs) {
    const std::string d(dir);
    if (path.compare(0, d.size(), d) == 0 || path.find("/" + d) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// The identifier right after the `std::` at `pos` (`std::ranges::` looks
/// one scope further), and whether a '(' follows it.
std::pair<std::string, bool> std_member_at(const std::string& text, std::size_t pos) {
  std::size_t k = pos + 5;
  const auto skip_space = [&] {
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k])) != 0) ++k;
  };
  const auto ident = [&] {
    skip_space();
    const std::size_t b = k;
    while (k < text.size() && is_ident(text[k])) ++k;
    return text.substr(b, k - b);
  };
  std::string name = ident();
  if (name == "ranges" && text.compare(k, 2, "::") == 0) {
    k += 2;
    name = ident();
  }
  skip_space();
  return {name, k < text.size() && text[k] == '('};
}

/// <random>'s algorithms named through std::: an engine, a distribution,
/// generate_canonical, or a call to shuffle / sample (both draw through a
/// library-chosen uniform_int_distribution).
bool is_std_random_name(const std::string& name, bool called) {
  const std::string dist = "_distribution";
  const bool distribution =
      name.size() > dist.size() &&
      name.compare(name.size() - dist.size(), dist.size(), dist) == 0;
  return name.rfind("mt19937", 0) == 0 || distribution || name == "generate_canonical" ||
         (called && (name == "shuffle" || name == "sample"));
}

/// Whether the name at `pos` (followed by '(') calls the libm function:
/// std::-qualified, ::-qualified or unqualified.  A member call, a call
/// qualified by another namespace (nn::elementary::tanh) and a declaration
/// (`double tanh(double x)`: a type name right before it) are not.
bool is_libm_call(const std::string& text, std::size_t pos) {
  auto skip_space_back = [&](std::size_t e) {
    while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) --e;
    return e;
  };
  auto word_before = [&](std::size_t e) {
    std::size_t b = e;
    while (b > 0 && is_ident(text[b - 1])) --b;
    return text.substr(b, e - b);
  };
  std::size_t e = skip_space_back(pos);
  if (e == 0) return true;
  if (text[e - 1] == '.' || (e >= 2 && text[e - 2] == '-' && text[e - 1] == '>')) return false;
  if (e >= 2 && text[e - 2] == ':' && text[e - 1] == ':') {
    const std::string scope = word_before(skip_space_back(e - 2));
    return scope.empty() || scope == "std";
  }
  if (is_ident(text[e - 1])) {
    const std::string prev = word_before(e);
    return prev == "return" || prev == "co_return" || prev == "co_yield" || prev == "case" ||
           prev == "throw" || prev == "else" || prev == "do";
  }
  return true;
}

bool is_header_path(const std::string& path) {
  for (const char* ext : {".hpp", ".h", ".hh", ".hxx"}) {
    const std::string e(ext);
    if (path.size() > e.size() &&
        path.compare(path.size() - e.size(), e.size(), e) == 0) {
      return true;
    }
  }
  return false;
}

std::size_t line_of(const std::vector<std::size_t>& line_starts, std::size_t pos) {
  // line_starts[k] is the offset of line k+1; binary search for pos.
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<std::size_t>(it - line_starts.begin());
}

std::string excerpt_of(const std::string& content,
                       const std::vector<std::size_t>& line_starts, std::size_t line) {
  const std::size_t b = line_starts[line - 1];
  std::size_t e = content.find('\n', b);
  if (e == std::string::npos) e = content.size();
  return trim(content.substr(b, e - b));
}

}  // namespace

std::vector<Finding> lint_source(const std::string& path, const std::string& content) {
  const std::string stripped = strip_comments_and_literals(content);
  const ScanResult scan = scan_contexts(stripped);

  std::vector<std::size_t> line_starts;
  line_starts.push_back(0);
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') line_starts.push_back(i + 1);
  }

  std::vector<Finding> findings;
  auto add = [&](std::size_t pos, const std::string& rule, const std::string& message) {
    const std::size_t line = line_of(line_starts, pos);
    findings.push_back(Finding{path, line, rule, message,
                               excerpt_of(content, line_starts, line)});
  };

  // --- determinism: hidden entropy sources, anywhere -----------------------
  struct TokenRule {
    const char* token;
    bool call_only;  // must be followed by '('
    const char* rule;
    const char* message;
  };
  const TokenRule kEntropy[] = {
      {"rand", true, "determinism/rand",
       "std::rand draws from hidden global state; use an ecthub::Rng seeded via mix_seed"},
      {"srand", true, "determinism/rand",
       "srand mutates hidden global state; use an ecthub::Rng seeded via mix_seed"},
      {"random_device", false, "determinism/random-device",
       "std::random_device is nondeterministic entropy; seed Rng streams via mix_seed"},
      {"time", true, "determinism/wall-clock",
       "wall-clock time makes results irreproducible; derive all variation from config seeds"},
      {"getenv", false, "determinism/getenv",
       "environment lookups make results host-dependent; thread configuration explicitly"},
  };
  for (const TokenRule& tr : kEntropy) {
    const auto hits = tr.call_only ? call_occurrences(stripped, tr.token)
                                   : word_occurrences(stripped, tr.token);
    for (std::size_t pos : hits) add(pos, tr.rule, tr.message);
  }
  {
    // Any `..._clock::now` (steady_clock, system_clock, high_resolution_clock).
    std::size_t pos = 0;
    const std::string needle = "_clock::now";
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      add(pos, "determinism/wall-clock",
          "clock reads make results irreproducible; benchmarks live in bench/, not src/");
      pos += needle.size();
    }
  }

  // --- determinism: libm transcendental functions in the library ---------
  if (under_any(path, {"src/"})) {
    for (const char* fn : {"tanh",  "exp",  "expm1", "log",   "log1p", "pow",  "sin",
                           "cos",   "tan",  "atan2", "atan",  "asin",  "acos", "sinh",
                           "cosh",  "hypot", "lgamma", "tgamma", "erf", "erfc", "cbrt",
                           "exp2",  "log2", "log10"}) {
      for (std::size_t pos : call_occurrences(stripped, fn)) {
        if (!is_libm_call(stripped, pos)) continue;
        add(pos, "determinism/libm",
            std::string("libm's ") + fn +
                " may pick a CPU-dependent variant at run time; the library calls "
                "common/elementary (or writes powers as products and norms with sqrt) so "
                "results do not depend on the host");
      }
    }
  }

  // --- determinism: <random>'s algorithms in the library -------------------
  if (under_any(path, {"src/"})) {
    const std::string message =
        "<random>'s engines and distributions are the C++ library's choice, so results "
        "would change with the library; draw through ecthub::Rng (common/rng)";
    for (std::size_t pos = 0; (pos = stripped.find("<random>", pos)) != std::string::npos;
         pos += 8) {
      const std::size_t line_begin = stripped.rfind('\n', pos) + 1;  // npos + 1 == 0
      std::string head = stripped.substr(line_begin, pos - line_begin);
      head.erase(std::remove_if(head.begin(), head.end(),
                                [](unsigned char ch) { return std::isspace(ch) != 0; }),
                 head.end());
      if (head == "#include") add(pos, "determinism/std-random", message);
    }
    for (std::size_t pos = 0; (pos = stripped.find("std::", pos)) != std::string::npos;
         pos += 5) {
      if (pos > 0 && is_ident(stripped[pos - 1])) continue;  // `mystd::`, not `std::`
      const auto [name, called] = std_member_at(stripped, pos);
      if (is_std_random_name(name, called)) {
        add(pos, "determinism/std-random", message);
      }
    }
  }

  // --- determinism: mutable static-duration function-locals ----------------
  for (const auto& [pos, unused] : scan.static_locals) {
    (void)unused;
    add(pos, "determinism/static-local",
        "non-const static/thread_local function-local is hidden mutable state; "
        "hoist it into a member or pass it explicitly (PR 5's checkpoint-load bug)");
  }

  // --- hot-path allocation hygiene -----------------------------------------
  auto hot_at = [&](std::size_t pos) {
    return pos < scan.flags.size() && scan.flags[pos].in_hot;
  };
  for (std::size_t pos : word_occurrences(stripped, "new")) {
    if (hot_at(pos)) {
      add(pos, "hotpath/new",
          "operator new inside a *_into/decide_rows/act_rows body; allocate in the "
          "constructor or workspace instead");
    }
  }
  for (const char* maker : {"make_unique", "make_shared"}) {
    for (std::size_t pos : word_occurrences(stripped, maker)) {
      if (hot_at(pos)) {
        add(pos, "hotpath/make-owning",
            "owning allocation inside a hot-path body; construct it outside the "
            "steady-state loop");
      }
    }
  }
  for (std::size_t pos : word_occurrences(stripped, "string")) {
    // `std::string` as a token — construction or declaration.  Signatures are
    // scanned before their '{', so a (cold-path legal) const-ref parameter in
    // a hot function's signature never reaches here.
    const bool qualified = pos >= 5 && stripped.compare(pos - 5, 5, "std::") == 0;
    if (qualified && hot_at(pos)) {
      add(pos, "hotpath/string-construction",
          "std::string inside a hot-path body allocates; format outside the loop or "
          "use a preallocated buffer");
    }
  }
  for (const char* grower :
       {"push_back", "emplace_back", "resize", "resize_zeroed", "reserve"}) {
    for (std::size_t pos : call_occurrences(stripped, grower)) {
      if (!hot_at(pos)) continue;
      if (is_workspace_receiver(receiver_chain(stripped, pos))) continue;
      add(pos, "hotpath/container-growth",
          std::string(grower) +
              " on a non-workspace receiver inside a hot-path body; grow only "
              "caller-owned workspace/output buffers (warm-up idiom)");
    }
  }

  // --- header hygiene ------------------------------------------------------
  if (is_header_path(path)) {
    // First meaningful line must be `#pragma once` or open an include guard.
    std::istringstream lines(stripped);
    std::string raw;
    std::size_t lineno = 0;
    bool guarded = false;
    bool saw_code = false;
    std::size_t first_code_line = 1;
    while (std::getline(lines, raw)) {
      ++lineno;
      const std::string t = trim(raw);
      if (t.empty()) continue;
      if (t.compare(0, 12, "#pragma once") == 0 || t.compare(0, 7, "#ifndef") == 0 ||
          t.compare(0, 9, "#if !defi") == 0) {
        guarded = true;
      } else {
        saw_code = true;
        first_code_line = lineno;
      }
      break;
    }
    if (!guarded) {
      findings.push_back(Finding{
          path, saw_code ? first_code_line : 1, "header/missing-guard",
          "header must start with #pragma once (or an include guard) before any code",
          saw_code ? excerpt_of(content, line_starts, first_code_line) : std::string()});
    }
    for (std::size_t pos : word_occurrences(stripped, "using")) {
      std::size_t k = pos + 5;
      while (k < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[k])) != 0) {
        ++k;
      }
      if (stripped.compare(k, 9, "namespace") != 0) continue;
      const bool in_function = pos < scan.flags.size() && scan.flags[pos].in_function;
      if (!in_function) {
        add(pos, "header/using-namespace",
            "using-namespace at namespace scope in a header leaks into every includer");
      }
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

namespace {

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx" ||
         ext == ".cpp" || ext == ".cc" || ext == ".cxx";
}

bool skip_directory(const std::filesystem::path& p) {
  const std::string name = p.filename().string();
  return (!name.empty() && name.front() == '.') || name.rfind("build", 0) == 0 ||
         name == "CMakeFiles";
}

std::vector<std::string> collect_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (fs::is_regular_file(root)) {
    files.push_back(root);
    return files;
  }
  if (!fs::is_directory(root)) {
    throw std::runtime_error("ecthub_lint: no such file or directory: " + root);
  }
  fs::recursive_directory_iterator it(root), end;
  for (; it != end; ++it) {
    if (it->is_directory()) {
      if (skip_directory(it->path())) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable_extension(it->path())) {
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ecthub_lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<Finding> lint_tree(const std::string& root) {
  std::vector<Finding> all;
  for (const std::string& file : collect_files(root)) {
    std::vector<Finding> fs = lint_source(file, read_file(file));
    all.insert(all.end(), fs.begin(), fs.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

namespace {

/// True when `path` ends with repo-relative `suffix` on a path-component
/// boundary ("src/sim/fleet_runner.cpp" matches "/root/repo/src/sim/…").
bool path_matches(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
  return path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/';
}

}  // namespace

bool Allowlist::parse(std::istream& in, Allowlist& out, std::string& error) {
  out.entries_.clear();
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const std::size_t p1 = t.find('|');
    const std::size_t p2 = p1 == std::string::npos ? std::string::npos : t.find('|', p1 + 1);
    if (p2 == std::string::npos) {
      error = "allowlist line " + std::to_string(lineno) +
              ": expected `path | needle | justification`";
      return false;
    }
    AllowEntry e;
    e.file = trim(t.substr(0, p1));
    e.needle = trim(t.substr(p1 + 1, p2 - p1 - 1));
    e.reason = trim(t.substr(p2 + 1));
    e.ordinal = lineno;
    if (e.file.empty() || e.needle.empty() || e.reason.empty()) {
      error = "allowlist line " + std::to_string(lineno) +
              ": every entry needs a path, a needle and a written justification";
      return false;
    }
    out.entries_.push_back(std::move(e));
  }
  return true;
}

bool Allowlist::load(const std::string& path, Allowlist& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open allowlist: " + path;
    return false;
  }
  return parse(in, out, error);
}

bool Allowlist::suppresses(const Finding& f) const {
  for (const AllowEntry& e : entries_) {
    if (path_matches(f.file, e.file) && f.excerpt.find(e.needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> apply_allowlist(std::vector<Finding> findings, const Allowlist& allow,
                                     std::vector<bool>* used) {
  if (used != nullptr) used->assign(allow.entries().size(), false);
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (std::size_t i = 0; i < allow.entries().size(); ++i) {
      const AllowEntry& e = allow.entries()[i];
      if (path_matches(f.file, e.file) && f.excerpt.find(e.needle) != std::string::npos) {
        suppressed = true;
        if (used != nullptr) (*used)[i] = true;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  return kept;
}

std::vector<AllowEntry> stale_entries(const Allowlist& allow, const std::string& root) {
  const std::vector<std::string> files = collect_files(root);
  std::vector<AllowEntry> stale;
  for (const AllowEntry& e : allow.entries()) {
    bool matched = false;
    for (const std::string& file : files) {
      if (!path_matches(file, e.file)) continue;
      const std::string content = read_file(file);
      if (content.find(e.needle) != std::string::npos) {
        matched = true;
        break;
      }
    }
    if (!matched) stale.push_back(e);
  }
  return stale;
}

}  // namespace ecthub::lint
