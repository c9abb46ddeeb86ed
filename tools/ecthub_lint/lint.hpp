// ecthub_lint: repo-specific invariant linter.
//
// Every parallel path in this engine is pinned bit-identical to its serial
// reference, and the zero-allocation episode loop is what makes fleet-scale
// batching affordable.  Those guarantees rest on source-level invariants the
// type system cannot express:
//
//  * determinism — no hidden entropy sources (std::rand, std::random_device,
//    wall clocks, environment variables) and no mutable static state inside
//    functions.  Every stochastic stream must be an Rng seeded via mix_seed
//    from the experiment configuration; a single `static thread_local`
//    scratch RNG (the PR 5 checkpoint-load bug) silently makes results
//    history-dependent.  Under src/, no libm transcendental function
//    either (exp, log, pow, sin, cos, atan2, hypot, lgamma, ...): glibc
//    dispatches them by CPU, so they go through common/elementary or
//    nn/elementary (called with their namespace), and powers and norms are
//    written with products and sqrt.
//    Under src/, no <random> (its include, std::mt19937*, std::*_distribution,
//    std::generate_canonical, calls to std::shuffle / std::sample): their
//    algorithms are the C++ library's choice, so every draw goes through
//    ecthub::Rng, which owns them.
//  * hot-path allocation hygiene — functions on the steady-state episode
//    path (the `*_into` family, `decide_rows`, `act_rows`) must not allocate:
//    no `new`, no make_unique/make_shared, no std::string construction, and
//    no push_back/emplace_back/reserve/resize on anything that is not a
//    caller-owned workspace or output buffer (warm-up growth of reused
//    scratch is the sanctioned idiom).
//  * header hygiene — every header declares `#pragma once` (or a classic
//    include guard) before any code, and never opens `using namespace` at
//    namespace scope.
//
// The linter is deliberately a lexical scanner, not a compiler frontend: it
// strips comments and string literals, tracks brace contexts well enough to
// know "inside a function body" and "inside a hot-path function", and pattern
// matches the stripped text.  That is exactly the right power level for CI on
// an image with no clang tooling — fast, dependency-free, and every rule is
// fixture-tested against the repo's real idioms (tests/test_lint.cpp).
// Justified exceptions live in tools/lint_allowlist.txt, one line each, and a
// stale-entry detector keeps that file honest.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ecthub::lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string file;     ///< path as passed to the scanner
  std::size_t line = 0; ///< 1-based line number
  std::string rule;     ///< stable rule id, e.g. "determinism/static-local"
  std::string message;  ///< human-readable explanation
  std::string excerpt;  ///< the offending source line, whitespace-trimmed
};

/// One justified exception: suppresses findings in `file` whose source line
/// contains `needle`.  Every entry must carry a non-empty justification.
struct AllowEntry {
  std::string file;    ///< repo-relative path (suffix match on Finding::file)
  std::string needle;  ///< literal substring of the allowlisted source line
  std::string reason;  ///< why this site is exempt
  std::size_t ordinal = 0; ///< 1-based line number inside the allowlist file
};

/// Parsed allowlist: `path | needle | justification` per line, `#` comments.
class Allowlist {
 public:
  /// Parses from a stream.  Malformed lines (wrong field count, empty
  /// justification) are reported through `error` and make parsing fail.
  static bool parse(std::istream& in, Allowlist& out, std::string& error);

  /// Convenience: parse from a file path.  Missing file is an error.
  static bool load(const std::string& path, Allowlist& out, std::string& error);

  [[nodiscard]] bool suppresses(const Finding& f) const;

  [[nodiscard]] const std::vector<AllowEntry>& entries() const { return entries_; }

 private:
  std::vector<AllowEntry> entries_;
};

/// Lints one file's content.  `path` selects the rule set (header rules for
/// .hpp/.h/.hh, source rules for everything else; determinism and hot-path
/// rules apply to both, determinism/libm and determinism/std-random only
/// under src/).  Findings come back in line order.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& content);

/// Recursively lints every .hpp/.h/.hh/.cpp/.cc under `root` (sorted paths,
/// so output order is stable).  Throws std::runtime_error on I/O failure.
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root);

/// Drops findings the allowlist covers.  When `used` is non-null it receives
/// one flag per allowlist entry telling whether that entry suppressed
/// anything — the input to stale-entry detection on a lint run.
[[nodiscard]] std::vector<Finding> apply_allowlist(std::vector<Finding> findings,
                                                   const Allowlist& allow,
                                                   std::vector<bool>* used = nullptr);

/// Stale-allowlist detector: returns the entries whose (file, needle) no
/// longer matches any line of any linted file under `root`.  An entry that
/// matches a line which no rule flags anymore is *not* stale — it is merely
/// dormant; staleness means the referenced source line is gone entirely, so
/// the justification no longer documents anything real.
[[nodiscard]] std::vector<AllowEntry> stale_entries(const Allowlist& allow,
                                                    const std::string& root);

/// Strips //, /* */ comments and the contents of string/char literals
/// (including raw strings) while preserving line structure, so lexical rules
/// never fire on prose or literal text.  Exposed for tests.
[[nodiscard]] std::string strip_comments_and_literals(const std::string& content);

}  // namespace ecthub::lint
