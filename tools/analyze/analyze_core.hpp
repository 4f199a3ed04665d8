// specomp-analyze: the repo's one static checker for the determinism and
// rollback-safety invariants that speculative rollback+replay depends on
// (DESIGN.md §8, §12).  One rule table, one annotation grammar, one gate.
//
//  * Per-site pass.  Token-level rules that fire wherever they match inside
//    their path scope: wall-clock reads and ambient randomness in the
//    deterministic simulation directories, std::function/std::bind in DES
//    hot-path headers, unordered-container iteration in order-sensitive
//    code, naked new/delete outside src/support.  Per-site findings are
//    zero-tolerance: the baseline never covers them.
//
//  * Nondeterminism taint (whole program).  Built on the symbol index
//    (symbols.hpp).  Seed sites — wall clocks, ambient PRNGs, thread ids,
//    pointer-to-integer casts, unordered-container iteration, raw `new` in a
//    body — taint their enclosing function; taint propagates along the
//    name-resolved call graph.  Only functions reachable from the engine /
//    DES / communicator / app replay roots are reported, each with the full
//    root→…→seed call chain, because nondeterminism is only fatal where a
//    replayed step could observe it.
//
//  * Rollback safety (whole program).  For every class derived from
//    spec::SyncIterativeApp, the member fields mutated by the
//    step/install/correct closure are checked against the fields referenced
//    by save_state / restore_state / pack_local.  State that escapes the
//    snapshot — unsaved members, static or mutable members, static locals,
//    file I/O, ambient RNG advancement — silently diverges after the first
//    rollback.
//
// The whole-program passes only index kWholeProgramDirs, so bench and test
// code never joins the call graph; the per-site pass sees every scanned
// file and applies each rule's own path scope.  Every rule is suppressible
// with a justified annotation:
//
//    // specomp: pure                          — function never taints
//    // specomp: rollback-covered(field): why  — field is rollback-safe
//    // specomp: allow(wall-clock): why        — silence one rule on a line
//
// Malformed directives are findings themselves (rule `bad-annotation`).  A
// committed baseline (tools/analyze/baseline.json) keys whole-program
// findings on (rule, path, symbol, detail) — no line numbers — so CI fails
// only on *new* ones.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "symbols.hpp"

namespace specana {

/// Directories whose files join the symbol index and call graph of the
/// whole-program passes ('/'-separated prefixes).
inline const std::vector<std::string_view> kWholeProgramDirs = {
    "src/", "tools/", "examples/"};

/// The directories a default run scans (the CLI and the `analyze` target).
inline const std::vector<std::string> kDefaultScanDirs = {
    "src", "bench", "tests", "tools", "examples"};

/// One row of the rule table.
struct RuleSpec {
  std::string_view id;
  std::string_view summary;
  /// Reported by the per-site pass for every match inside the scope below.
  bool per_site = false;
  /// Reported by a whole-program pass (taint or rollback) over
  /// kWholeProgramDirs.
  bool whole_program = false;
  /// Per-site scope: repo-relative path prefixes; an empty include list
  /// means every scanned file.
  std::vector<std::string_view> include_prefixes = {};
  std::vector<std::string_view> exclude_prefixes = {};
  /// Per-site scope restricted to headers (.hpp/.h/.hh).
  bool headers_only = false;
};

/// The rule table, in reporting order (drives allow() validation,
/// --list-rules, the SARIF rule table and the docs).
const std::vector<RuleSpec>& analyze_rules();

/// One analyzer finding.  `symbol` is the qualified function for taint
/// findings, `Class::field` for rollback findings and empty for per-site
/// findings; `detail` is stable across unrelated edits (no line numbers) so
/// the baseline key (rule, path, symbol, detail) survives file churn.
struct AnalyzeFinding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string symbol;
  std::string detail;
  /// Supporting frames, root first: "Qualified (path:line)".  Taint findings
  /// carry the root→seed call chain; rollback findings the mutation sites.
  std::vector<std::string> chain;
  /// Set by apply_baseline for findings already present in the baseline.
  bool baselined = false;
  /// From the per-site pass (or a malformed directive): never baselined.
  bool per_site = false;
};

struct AnalyzeResult {
  std::vector<AnalyzeFinding> findings;  // sorted (path, line, rule, symbol)
  std::size_t files_scanned = 0;
  std::size_t symbols_indexed = 0;
  std::size_t classes_indexed = 0;
  std::size_t taint_roots = 0;
};

/// Analyses in-memory files [(logical_path, content)] — the test entry
/// point.  Files are indexed in the given order.
AnalyzeResult analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Analyses `root`/<subdir> trees on disk (build*/ and fixtures/ dirs
/// skipped, sorted paths).
AnalyzeResult analyze_tree(const std::filesystem::path& root,
                           const std::vector<std::string>& subdirs);

/// The baseline identity of a finding: "rule|path|symbol|detail".
std::string baseline_key(const AnalyzeFinding& f);

/// Serialises the current whole-program findings as a baseline document
/// (schema_version 1, sorted unique keys); per-site findings are left out.
std::string make_baseline_json(const AnalyzeResult& result);

/// Marks whole-program findings whose key appears in `baseline_json` as
/// baselined; per-site findings always stay new.  Returns the number of
/// findings NOT baselined (the CI gate).
/// Throws std::runtime_error on malformed baseline documents.
std::size_t apply_baseline(AnalyzeResult& result,
                           std::string_view baseline_json);

/// "path:line: [rule] symbol: detail" plus indented chain frames.
std::string format_finding(const AnalyzeFinding& f);

/// Human-readable report with a `schema_version` header; byte-deterministic
/// for a given tree.
std::string to_text_report(const AnalyzeResult& result);

/// Machine-readable report (schema_version 1).
std::string to_json_report(const AnalyzeResult& result);

/// SARIF 2.1.0 (one run, full rule table; baselined findings demoted to
/// "note" so code-scanning UIs surface only new ones as errors).
std::string to_sarif_report(const AnalyzeResult& result);

}  // namespace specana
