#include "analyze_core.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace specana {

namespace {

using specscan::ScannedLine;
using specscan::Token;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

// Directories whose code decides virtual time or executes inside the
// deterministic simulation world.  Wall-clock and ambient randomness there
// destroy run-to-run bit identity.
const std::vector<std::string_view> kDeterministicDirs = {
    "src/des/", "src/runtime/", "src/spec/", "src/nbody/"};

// Directories whose iteration order reaches serialized output or
// virtual-time decisions (the simulation world plus the telemetry
// serializers).  std::map is fine; unordered containers are not.
const std::vector<std::string_view> kOrderSensitiveDirs = {
    "src/des/", "src/runtime/", "src/spec/", "src/nbody/", "src/obs/"};

const std::vector<RuleSpec> kRules = {
    {.id = "wall-clock",
     .summary = "wall-clock read (system_clock/steady_clock/time()/clock()/"
                "...) in deterministic simulation code or on a speculation "
                "replay path",
     .per_site = true,
     .whole_program = true,
     .include_prefixes = kDeterministicDirs},
    {.id = "ambient-rand",
     .summary = "ambient randomness (rand()/random_device/default-seeded "
                "engine) in deterministic simulation code or on a replay path",
     .per_site = true,
     .whole_program = true,
     .include_prefixes = kDeterministicDirs},
    {.id = "hot-path-callable",
     .summary = "std::function/std::bind in a DES hot-path header (regresses "
                "the allocation-free event arena; use des::EventFn or a "
                "template parameter)",
     .per_site = true,
     // Trace/distribution emission sits on the send/recv/compute hot paths,
     // so its headers get the same no-type-erased-callables discipline, as
     // do the collectives (every hop is a hot-path send/recv), the force
     // kernels (the per-pair inner loops), the integrator family (invoked
     // once per stage per step, with the force model on the stack), and the
     // CPUID feature probe (consulted on every kernel dispatch).
     // (runtime/communicator.hpp stays out: RankBody is std::function by
     // design — it is invoked once per rank, not per event.)
     .include_prefixes = {"src/des/", "src/obs/dist_sketch",
                          "src/obs/trace_export", "src/runtime/collective",
                          "src/nbody/kernels/", "src/nbody/integrators/",
                          "src/support/cpu_features"},
     .headers_only = true},
    {.id = "unordered-iter",
     .summary = "iteration over an unordered container in order-sensitive "
                "code or on a replay path (visit order is hash-seed "
                "dependent)",
     .per_site = true,
     .whole_program = true,
     .include_prefixes = kOrderSensitiveDirs},
    {.id = "naked-new",
     .summary = "naked new/delete outside src/support (own it with a "
                "container, unique_ptr, or an arena)",
     .per_site = true,
     .include_prefixes = {"src/", "bench/", "tests/"},
     .exclude_prefixes = {"src/support/"}},
    {.id = "thread-id",
     .summary = "thread identity observed on a replay path — rank must come "
                "from the communicator",
     .whole_program = true},
    {.id = "ptr-cast",
     .summary = "pointer value converted to an integer on a replay path — "
                "addresses differ across runs",
     .whole_program = true},
    {.id = "hot-path-new",
     .summary = "raw allocation on a replay path — allocation is timing- and "
                "placement-nondeterministic",
     .whole_program = true},
    {.id = "rollback-unsaved-field",
     .summary = "member mutated by the step/install/correct path but not "
                "covered by save_state/restore_state/pack_local",
     .whole_program = true},
    {.id = "rollback-static",
     .summary = "static or mutable state touched by a rollback-scoped method "
                "— shared across snapshots, escapes restore_state",
     .whole_program = true},
    {.id = "rollback-io",
     .summary = "file I/O inside a rollback-scoped method — externally "
                "visible effects cannot be rolled back",
     .whole_program = true},
    {.id = "rollback-rng",
     .summary = "RNG advanced inside a rollback-scoped method — stream "
                "position escapes the snapshot",
     .whole_program = true},
    {.id = "bad-annotation",
     .summary = "malformed specomp: directive (unknown rule id, unknown form, "
                "or missing justification)",
     .per_site = true},
};

const RuleSpec* find_rule(std::string_view id) {
  for (const auto& r : kRules)
    if (r.id == id) return &r;
  return nullptr;
}

bool has_prefix(std::string_view path,
                const std::vector<std::string_view>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return path.starts_with(p); });
}

bool is_header(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".hh");
}

// Per-site scope of `rule` (an id from kRules) at `path`.
bool site_rule_applies(std::string_view rule, std::string_view path) {
  const RuleSpec& r = *find_rule(rule);
  if (r.headers_only && !is_header(path)) return false;
  if (!r.include_prefixes.empty() && !has_prefix(path, r.include_prefixes))
    return false;
  return !has_prefix(path, r.exclude_prefixes);
}

// ---------------------------------------------------------------------------
// Token vocabulary, shared by the per-site pass, the taint seeds and the
// rollback escapes
// ---------------------------------------------------------------------------

const std::set<std::string_view> kClockIdents = {
    "system_clock",  "steady_clock",  "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "localtime",
    "gmtime",        "timespec_get",  "mktime"};

const std::set<std::string_view> kRandCalls = {"rand", "srand", "drand48",
                                               "lrand48", "mrand48"};

const std::set<std::string_view> kEngines = {
    "mt19937",  "mt19937_64", "minstd_rand",           "minstd_rand0",
    "ranlux24", "ranlux48",   "default_random_engine", "knuth_b"};

const std::set<std::string_view> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string_view> kMutatingMembers = {
    "push_back", "pop_back", "emplace_back", "emplace", "clear",  "resize",
    "reserve",   "assign",   "insert",       "erase",   "swap",   "push",
    "pop",       "fill",     "shrink_to_fit"};

const std::set<std::string_view> kIoIdents = {
    "ofstream", "fstream", "fopen", "fwrite", "fprintf", "fputs", "FILE"};

std::string_view text_at(const std::vector<Token>& toks, std::size_t i) {
  return i < toks.size() ? toks[i].text : std::string_view{};
}

bool is_member_access(const std::vector<Token>& toks, std::size_t i) {
  const std::string_view prev = i > 0 ? text_at(toks, i - 1) : "";
  return prev == "." || prev == "->";
}

// Keywords that can legitimately precede a function call expression; any
// other preceding identifier means `name(` is a declaration (`VectorClock
// clock(int)`) or a qualified member (`HbChecker::clock(r)`), not a call to
// the libc function.
const std::set<std::string_view> kCallPrecedingKeywords = {
    "return", "co_return", "co_yield", "case", "throw", "else", "do"};

bool is_libc_style_call(const std::vector<Token>& toks, std::size_t i) {
  if (text_at(toks, i + 1) != "(") return false;
  if (i == 0) return true;
  const std::string_view prev = text_at(toks, i - 1);
  if (prev == "." || prev == "->") return false;
  // `std::time(` is the libc call; any other qualifier (`HbChecker::clock(`)
  // names a member.
  if (prev == "::") return i >= 2 && text_at(toks, i - 2) == "std";
  if (specscan::is_identifier(prev) && kCallPrecedingKeywords.count(prev) == 0)
    return false;  // declaration: preceding identifier is the return type
  return true;
}

// A wall-clock source: a host clock type or function, or a libc-style
// time()/clock() call.
bool is_wall_clock(const std::vector<Token>& toks, std::size_t i) {
  const std::string_view t = text_at(toks, i);
  return kClockIdents.count(t) != 0 ||
         ((t == "time" || t == "clock") && is_libc_style_call(toks, i));
}

// `std::mt19937 gen;` / `std::mt19937 gen{};` — a default-seeded engine.
bool is_default_engine(const std::vector<Token>& toks, std::size_t i) {
  if (kEngines.count(text_at(toks, i)) == 0 ||
      !specscan::is_identifier(text_at(toks, i + 1)))
    return false;
  const std::string_view after = text_at(toks, i + 2);
  return after == ";" || (after == "{" && text_at(toks, i + 3) == "}");
}

// Ambient randomness: std::random_device, a libc PRNG call (`rand()`,
// `std::rand()`; not a member `eng.rand()`), or a default-seeded engine.
bool is_ambient_rand(const std::vector<Token>& toks, std::size_t i) {
  const std::string_view t = text_at(toks, i);
  if (t == "random_device") return true;
  if (kRandCalls.count(t) != 0)
    return text_at(toks, i + 1) == "(" && !is_member_access(toks, i);
  return is_default_engine(toks, i);
}

// `::new (ptr) T(...)` constructs in caller-owned storage.
bool is_placement_new(const std::vector<Token>& toks, std::size_t i) {
  return text_at(toks, i + 1) == "(";
}

// ---------------------------------------------------------------------------
// Annotations: specomp: pure / rollback-covered(field): why / allow(rule): why
// ---------------------------------------------------------------------------

struct FileAnnotations {
  // line -> rule ids allowed on that line and the next.
  std::map<int, std::set<std::string>> allows;
  std::set<int> pure_lines;
  std::vector<std::pair<int, std::string>> covered;  // (line, field)
  std::vector<AnalyzeFinding> bad;

  bool allowed(int line, std::string_view rule) const {
    for (const int l : {line, line - 1}) {
      const auto it = allows.find(l);
      if (it != allows.end() && it->second.count(std::string(rule)) != 0)
        return true;
    }
    return false;
  }
};

// Extracts comma-separated ids from "...(a, b)" starting after the '('.
// Returns npos-terminated ids and sets `close` to the ')' position (npos if
// unterminated).
std::vector<std::string> parse_id_list(const std::string& text,
                                       std::size_t open,
                                       std::size_t& close) {
  close = text.find(')', open);
  std::vector<std::string> ids;
  if (close == std::string::npos) return ids;
  std::string id;
  for (std::size_t j = open; j < close; ++j) {
    const char c = text[j];
    if (c == ',') {
      ids.push_back(id);
      id.clear();
    } else if (c != ' ') {
      id.push_back(c);
    }
  }
  ids.push_back(id);
  return ids;
}

// Is there a non-empty justification ": why" starting at `k`?
bool has_justification(const std::string& text, std::size_t k) {
  while (k < text.size() && text[k] == ' ') ++k;
  if (k >= text.size() || text[k] != ':') return false;
  ++k;
  while (k < text.size() && text[k] == ' ') ++k;
  return k < text.size();
}

FileAnnotations parse_annotations(std::string_view path,
                                  const std::vector<ScannedLine>& lines) {
  FileAnnotations a;
  constexpr std::string_view kDirective = "specomp:";
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& comment = lines[li].comment;
    const int line_no = static_cast<int>(li) + 1;
    std::size_t pos = comment.find(kDirective);
    while (pos != std::string::npos) {
      // Reject prose matches: "specomp::obs" (namespace).
      if (pos + kDirective.size() < comment.size() &&
          comment[pos + kDirective.size()] == ':') {
        pos = comment.find(kDirective, pos + kDirective.size() + 1);
        continue;
      }
      std::size_t i = pos + kDirective.size();
      auto fail = [&](const std::string& why) {
        a.bad.push_back({"bad-annotation", std::string(path), line_no,
                         std::string{}, why, {}, false, true});
      };
      while (i < comment.size() && comment[i] == ' ') ++i;
      if (comment.compare(i, 4, "pure") == 0 &&
          (i + 4 == comment.size() ||
           (!std::isalnum(static_cast<unsigned char>(comment[i + 4])) &&
            comment[i + 4] != '_' && comment[i + 4] != '('))) {
        a.pure_lines.insert(line_no);  // justification optional
        pos = comment.find(kDirective, i + 4);
        continue;
      }
      if (comment.compare(i, 6, "allow(") == 0) {
        std::size_t close = std::string::npos;
        const auto ids = parse_id_list(comment, i + 6, close);
        if (close == std::string::npos) {
          fail("unterminated allow( — missing ')'");
          break;
        }
        bool ok = true;
        for (const auto& id : ids) {
          if (id.empty() || find_rule(id) == nullptr) {
            fail("unknown rule id '" + id + "' in specomp: allow(...)");
            ok = false;
          }
        }
        if (!has_justification(comment, close + 1)) {
          fail("allow(...) needs a justification: '// specomp: "
               "allow(<rule>): <why this is safe>'");
          ok = false;
        }
        if (ok)
          for (const auto& id : ids) a.allows[line_no].insert(id);
        pos = comment.find(kDirective, close);
        continue;
      }
      if (comment.compare(i, 17, "rollback-covered(") == 0) {
        std::size_t close = std::string::npos;
        const auto ids = parse_id_list(comment, i + 17, close);
        if (close == std::string::npos) {
          fail("unterminated rollback-covered( — missing ')'");
          break;
        }
        bool ok = ids.size() == 1 && !ids[0].empty();
        if (!ok) fail("rollback-covered(...) names exactly one field");
        if (!has_justification(comment, close + 1)) {
          fail("rollback-covered(...) needs a justification: '// specomp: "
               "rollback-covered(<field>): <why replay is safe>'");
          ok = false;
        }
        if (ok) a.covered.emplace_back(line_no, ids[0]);
        pos = comment.find(kDirective, close);
        continue;
      }
      fail("directive must be 'specomp: pure', 'specomp: allow(<rule>): "
           "<why>' or 'specomp: rollback-covered(<field>): <why>'");
      break;
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Per-site pass: every match inside the rule's path scope is a finding
// ---------------------------------------------------------------------------

struct SiteScan {
  const std::string& path;
  const std::vector<Token>& toks;
  const FileAnnotations& ann;
  std::vector<AnalyzeFinding>& out;

  std::string_view tok(std::size_t i) const { return text_at(toks, i); }
  void report(std::size_t i, std::string_view rule,
              std::string message) const {
    const int line = toks[i].line;
    if (ann.allowed(line, rule)) return;
    out.push_back({std::string(rule), path, line, std::string{},
                   std::move(message), {}, false, true});
  }
};

void site_wall_clock(const SiteScan& f) {
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    if (!is_wall_clock(f.toks, i)) continue;
    const std::string t(f.tok(i));
    f.report(i, "wall-clock",
             (kClockIdents.count(t) != 0 ? "wall-clock source '" + t + "'"
                                         : "call to '" + t + "()'") +
                 " in deterministic simulation code — virtual time must "
                 "come from the DES kernel");
  }
}

void site_ambient_rand(const SiteScan& f) {
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    if (!is_ambient_rand(f.toks, i)) continue;
    const std::string t(f.tok(i));
    if (t == "random_device")
      f.report(i, "ambient-rand",
               "std::random_device in deterministic simulation code — "
               "randomness must flow from an explicit seed "
               "(support::Xoshiro256)");
    else if (kRandCalls.count(t) != 0)
      f.report(i, "ambient-rand",
               "ambient PRNG call '" + t +
                   "()' — randomness must flow from an explicit seed");
    else
      f.report(i, "ambient-rand",
               "default-constructed random engine '" + t + " " +
                   std::string(f.tok(i + 1)) +
                   "' — seed it explicitly for reproducible streams");
  }
}

void site_hot_path_callable(const SiteScan& f) {
  for (std::size_t i = 0; i + 2 < f.toks.size(); ++i) {
    if (f.tok(i) == "std" && f.tok(i + 1) == "::" &&
        (f.tok(i + 2) == "function" || f.tok(i + 2) == "bind")) {
      f.report(i + 2, "hot-path-callable",
               "std::" + std::string(f.tok(i + 2)) +
                   " in a DES hot-path header — use des::EventFn or a "
                   "template parameter (keeps the event arena allocation-free)");
    }
  }
}

void site_unordered_iter(const SiteScan& f) {
  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string_view> vars;
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    if (kUnorderedContainers.count(f.tok(i)) == 0) continue;
    std::size_t j = i + 1;
    if (f.tok(j) == "<") {
      int depth = 1;
      ++j;
      while (j < f.toks.size() && depth > 0) {
        if (f.tok(j) == "<") ++depth;
        if (f.tok(j) == ">") --depth;
        ++j;
      }
    }
    // Skip ref/pointer declarators and trailing cv-qualifiers so parameters
    // like `const std::unordered_map<K, V>& name` are tracked too.
    while (f.tok(j) == "&" || f.tok(j) == "&&" || f.tok(j) == "*" ||
           f.tok(j) == "const")
      ++j;
    if (specscan::is_identifier(f.tok(j))) vars.insert(f.tok(j));
  }
  if (vars.empty()) return;

  auto flag = [&](std::size_t i, std::string_view name) {
    f.report(i, "unordered-iter",
             "iteration over unordered container '" + std::string(name) +
                 "' — iteration order is implementation-defined and must not "
                 "reach serialized output or virtual-time decisions (use "
                 "std::map or sort first)");
  };

  // Pass 2a: range-for whose range expression names one of the containers.
  for (std::size_t i = 0; i + 1 < f.toks.size(); ++i) {
    if (f.tok(i) != "for" || f.tok(i + 1) != "(") continue;
    int depth = 1;
    std::size_t j = i + 2;
    std::size_t colon = 0;
    while (j < f.toks.size() && depth > 0) {
      if (f.tok(j) == "(") ++depth;
      if (f.tok(j) == ")") --depth;
      if (depth == 1 && f.tok(j) == ":" && colon == 0) colon = j;
      ++j;
    }
    if (colon == 0) continue;
    for (std::size_t k = colon + 1; k < j; ++k) {
      if (vars.count(f.tok(k)) != 0) {
        flag(i, f.tok(k));
        break;
      }
    }
  }
  // Pass 2b: iterator walks (`m.begin()` / `m.cbegin()`).
  for (std::size_t i = 0; i + 3 < f.toks.size(); ++i) {
    if (vars.count(f.tok(i)) != 0 &&
        (f.tok(i + 1) == "." || f.tok(i + 1) == "->") &&
        (f.tok(i + 2) == "begin" || f.tok(i + 2) == "cbegin" ||
         f.tok(i + 2) == "rbegin") &&
        f.tok(i + 3) == "(") {
      flag(i, f.tok(i));
    }
  }
}

void site_naked_new(const SiteScan& f) {
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const std::string_view t = f.tok(i);
    const std::string_view prev = i > 0 ? f.tok(i - 1) : std::string_view{};
    if (prev == "operator") continue;  // operator new/delete definitions
    if (t == "new") {
      if (is_placement_new(f.toks, i)) continue;
      f.report(i, "naked-new",
               "naked 'new' outside src/support — own the allocation with a "
               "container, std::unique_ptr, or an arena");
    } else if (t == "delete") {
      if (prev == "=") continue;  // = delete
      f.report(i, "naked-new",
               "naked 'delete' outside src/support — pair allocations with "
               "owning types instead");
    }
  }
}

void site_pass(const SiteScan& f) {
  using Check = void (*)(const SiteScan&);
  static const std::pair<std::string_view, Check> kChecks[] = {
      {"wall-clock", site_wall_clock},
      {"ambient-rand", site_ambient_rand},
      {"hot-path-callable", site_hot_path_callable},
      {"unordered-iter", site_unordered_iter},
      {"naked-new", site_naked_new},
  };
  for (const auto& [rule, check] : kChecks)
    if (site_rule_applies(rule, f.path)) check(f);
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

struct Seed {
  std::string rule;
  std::string token;  // the seed identifier, for the message
  int line = 0;
  std::size_t symbol = 0;  // enclosing symbol (global index)
};

// Maps a token index to the symbol whose body contains it, via the sorted
// disjoint [tok_begin, tok_end) ranges of the file's symbols.
class BodyMap {
 public:
  BodyMap(const FileIndex& file, const std::vector<Symbol>& symbols) {
    for (const std::size_t s : file.symbols)
      ranges_.push_back({symbols[s].tok_begin, symbols[s].tok_end, s});
  }
  /// Returns true and sets `sym` when token `i` lies inside a body.
  bool enclosing(std::size_t i, std::size_t& sym) const {
    for (const auto& r : ranges_) {
      if (i < r.begin) return false;  // ranges are ascending
      if (i < r.end) {
        sym = r.sym;
        return true;
      }
    }
    return false;
  }

 private:
  struct Range {
    std::size_t begin, end, sym;
  };
  std::vector<Range> ranges_;
};

void collect_seeds(const FileIndex& file, const std::vector<Symbol>& symbols,
                   const FileAnnotations& ann, std::vector<Seed>& out) {
  const BodyMap bodies(file, symbols);
  const auto& toks = file.tokens;
  const auto tok = [&](std::size_t i) {
    return i < toks.size() ? toks[i].text : std::string_view{};
  };
  // Which symbols' bodies mention an unordered container (feeds the
  // range-for heuristic below).
  std::set<std::size_t> has_unordered;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    std::size_t sym = 0;
    if (!bodies.enclosing(i, sym)) continue;
    const std::string_view t = toks[i].text;
    const int line = toks[i].line;
    auto add = [&](std::string_view rule) {
      if (ann.allowed(line, rule)) return;
      out.push_back({std::string(rule), std::string(t), line, sym});
    };
    if (is_wall_clock(toks, i)) {
      add("wall-clock");
    } else if (is_ambient_rand(toks, i)) {
      add("ambient-rand");
    } else if (t == "get_id" && tok(i + 1) == "(") {
      add("thread-id");
    } else if (t == "uintptr_t" || t == "intptr_t") {
      add("ptr-cast");
    } else if (t == "new" && !is_placement_new(toks, i)) {
      add("hot-path-new");
    } else if (kUnorderedContainers.count(t) != 0) {
      has_unordered.insert(sym);
    }
  }

  // Range-for inside a body that also mentions an unordered container: the
  // visit order is hash-seed (and address) dependent.  A sorted snapshot
  // helper breaks the pattern — and a false pairing is silenced with
  // `// specomp: allow(unordered-iter): <why>` on the loop line.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    std::size_t sym = 0;
    if (!bodies.enclosing(i, sym) || has_unordered.count(sym) == 0) continue;
    int depth = 0;
    bool range_for = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      else if (toks[j].text == ")" && --depth == 0) break;
      else if (toks[j].text == ":" && depth == 1) {
        range_for = true;
        break;
      }
    }
    if (!range_for || ann.allowed(toks[i].line, "unordered-iter")) continue;
    out.push_back({"unordered-iter", "for(:)", toks[i].line, sym});
  }
}

// ---------------------------------------------------------------------------
// Member-field mutation detection (rollback pass)
// ---------------------------------------------------------------------------

struct Mutation {
  std::string field;
  int line = 0;
  std::string how;
};

const std::set<std::string_view> kCompoundOps = {"+", "-", "*", "/",
                                                 "%", "&", "|", "^"};

void collect_mutations(const FileIndex& file, const Symbol& sym,
                       const std::set<std::string>& fields,
                       std::vector<Mutation>& out) {
  const auto& toks = file.tokens;
  const auto tok = [&](std::size_t i) {
    return i < toks.size() ? toks[i].text : std::string_view{};
  };
  for (std::size_t i = sym.tok_begin; i < sym.tok_end && i < toks.size();
       ++i) {
    const std::string_view t = toks[i].text;
    if (fields.count(std::string(t)) == 0) continue;
    const std::string_view prev = i > 0 ? tok(i - 1) : std::string_view{};
    // Member of another object (`peer.pos_`) or qualified name: the
    // snapshot only covers *this*; skip unless explicitly `this->field`.
    if ((prev == "." || prev == "->") && (i < 2 || tok(i - 2) != "this"))
      continue;
    if (prev == "::") continue;
    auto add = [&](std::string how) {
      out.push_back({std::string(t), toks[i].line, std::move(how)});
    };
    // Prefix ++/--.
    if (i >= 2 && ((prev == "+" && tok(i - 2) == "+") ||
                   (prev == "-" && tok(i - 2) == "-"))) {
      add("incremented");
      continue;
    }
    // Skip subscripts: `pos_[i] = ...` mutates pos_.
    std::size_t j = i + 1;
    while (tok(j) == "[") {
      int depth = 0;
      while (j < toks.size()) {
        if (tok(j) == "[") ++depth;
        else if (tok(j) == "]" && --depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
    }
    const std::string_view a = tok(j);
    const std::string_view b = tok(j + 1);
    if (a == "=" && b != "=") {
      add("assigned");
    } else if (kCompoundOps.count(a) != 0 && b == "=" && tok(j + 2) != "=") {
      add("compound-assigned");
    } else if ((a == "+" && b == "+") || (a == "-" && b == "-")) {
      add("incremented");
    } else if ((a == "<" && b == "<" && tok(j + 2) == "=") ||
               (a == ">" && b == ">" && tok(j + 2) == "=")) {
      add("compound-assigned");
    } else if ((a == "." || a == "->") && tok(j + 2) == "(") {
      if (kMutatingMembers.count(b) != 0)
        add("mutating call '." + std::string(b) + "()'");
      else if (b == "data")
        add("mutable buffer handle '.data()'");
    } else if ((prev == "(" || prev == ",") && (a == "," || a == ")")) {
      add("passed by reference to a call");
    }
  }
}

// ---------------------------------------------------------------------------
// The analysis driver
// ---------------------------------------------------------------------------

struct Analyzer {
  SymbolTable table;
  std::map<std::string, FileAnnotations> annotations;  // by path
  std::map<std::string, std::size_t> file_by_path;
  AnalyzeResult result;

  // Files under kWholeProgramDirs join the symbol index; every file gets
  // its directives checked and the per-site pass.
  void add_file(std::string path, std::string_view content) {
    std::replace(path.begin(), path.end(), '\\', '/');
    if (!has_prefix(path, kWholeProgramDirs)) {
      const std::vector<ScannedLine> lines = specscan::scan(content);
      check_sites(path, lines, specscan::tokenize(lines));
      return;
    }
    table.add_file(path, content);
    const FileIndex& file = table.files().back();
    annotations.emplace(file.path,
                        check_sites(file.path, file.lines, file.tokens));
    file_by_path.emplace(file.path, table.files().size() - 1);
  }

  FileAnnotations check_sites(const std::string& path,
                              const std::vector<ScannedLine>& lines,
                              const std::vector<Token>& tokens) {
    FileAnnotations ann = parse_annotations(path, lines);
    auto& out = result.findings;
    out.insert(out.end(), std::make_move_iterator(ann.bad.begin()),
               std::make_move_iterator(ann.bad.end()));
    ann.bad.clear();
    site_pass({path, tokens, ann, out});
    return ann;
  }

  bool is_pure(const Symbol& s) const {
    const auto it = annotations.find(s.path);
    if (it == annotations.end()) return false;
    const int hi = std::max(s.line, s.body_open_line);
    for (int l = s.line - 2; l <= hi; ++l)
      if (it->second.pure_lines.count(l) != 0) return true;
    return false;
  }

  const FileAnnotations& ann_for(const std::string& path) const {
    static const FileAnnotations kEmpty;
    const auto it = annotations.find(path);
    return it == annotations.end() ? kEmpty : it->second;
  }

  void run() {
    result.symbols_indexed = table.symbols().size();
    result.classes_indexed = table.classes().size();
    taint_pass();
    rollback_pass();
    std::sort(result.findings.begin(), result.findings.end(),
              [](const AnalyzeFinding& x, const AnalyzeFinding& y) {
                return std::tie(x.path, x.line, x.rule, x.symbol, x.detail) <
                       std::tie(y.path, y.line, y.rule, y.symbol, y.detail);
              });
    result.findings.erase(
        std::unique(result.findings.begin(), result.findings.end(),
                    [](const AnalyzeFinding& x, const AnalyzeFinding& y) {
                      return x.path == y.path && x.line == y.line &&
                             x.rule == y.rule && x.symbol == y.symbol &&
                             x.detail == y.detail;
                    }),
        result.findings.end());
  }

  // ---- taint ----

  std::vector<std::string> root_owners() const {
    // Engine, DES kernel, communicators and mailboxes drive speculation,
    // checking and replay; every SyncIterativeApp implementation is called
    // from the replay loop.
    std::vector<std::string> owners = {"SpecEngine", "Kernel",
                                       "SimCommunicator",
                                       "ThreadCommunicator", "TimedMailbox"};
    for (const ClassInfo* c : table.derived_from("SyncIterativeApp"))
      owners.push_back(c->name);
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    return owners;
  }

  void taint_pass() {
    const auto& symbols = table.symbols();
    const std::vector<std::string> owners = root_owners();
    const std::set<std::string> owner_set(owners.begin(), owners.end());

    constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
    std::vector<std::size_t> parent(symbols.size(), kNoParent);
    std::vector<bool> reached(symbols.size(), false);
    std::deque<std::size_t> queue;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      if (owner_set.count(symbols[s].owner) == 0) continue;
      if (is_pure(symbols[s])) continue;
      reached[s] = true;
      queue.push_back(s);
      ++result.taint_roots;
    }
    while (!queue.empty()) {
      const std::size_t s = queue.front();
      queue.pop_front();
      for (const auto& callee : symbols[s].calls) {
        for (const std::size_t c : table.by_name(callee)) {
          if (reached[c] || is_pure(symbols[c])) continue;
          reached[c] = true;
          parent[c] = s;
          queue.push_back(c);
        }
      }
    }

    // Seed sites inside reached, non-pure symbols become findings with the
    // root→…→seed call chain.
    std::vector<Seed> seeds;
    for (const auto& file : table.files())
      collect_seeds(file, symbols, ann_for(file.path), seeds);
    for (const auto& seed : seeds) {
      if (!reached[seed.symbol]) continue;
      const Symbol& sym = symbols[seed.symbol];
      std::vector<std::string> chain;
      for (std::size_t s = seed.symbol; s != kNoParent; s = parent[s]) {
        chain.push_back(symbols[s].qualified() + " (" + symbols[s].path +
                        ":" + std::to_string(symbols[s].line) + ")");
        if (parent[s] == kNoParent) break;
      }
      std::reverse(chain.begin(), chain.end());
      const std::string root_name =
          chain.empty() ? sym.qualified()
                        : chain.front().substr(0, chain.front().find(" ("));
      AnalyzeFinding f;
      f.rule = seed.rule;
      f.path = sym.path;
      f.line = seed.line;
      f.symbol = sym.qualified();
      f.detail = "'" + seed.token + "' reachable from replay root " +
                 root_name;
      f.chain = std::move(chain);
      result.findings.push_back(std::move(f));
    }
  }

  // ---- rollback safety ----

  // Closure of symbols owned by `cls` reachable from the named entry
  // methods via same-class calls, in deterministic index order.
  std::vector<std::size_t> method_closure(
      const std::string& cls, const std::set<std::string>& entries) const {
    const auto& symbols = table.symbols();
    std::set<std::size_t> seen;
    std::deque<std::size_t> queue;
    for (const std::size_t s : table.methods_of(cls))
      if (entries.count(symbols[s].name) != 0 && seen.insert(s).second)
        queue.push_back(s);
    while (!queue.empty()) {
      const std::size_t s = queue.front();
      queue.pop_front();
      for (const auto& callee : symbols[s].calls)
        for (const std::size_t c : table.by_name(callee))
          if (symbols[c].owner == cls && seen.insert(c).second)
            queue.push_back(c);
    }
    return {seen.begin(), seen.end()};
  }

  void rollback_pass() {
    const auto& symbols = table.symbols();
    const std::set<std::string> kMutators = {"compute_step", "install_peer",
                                             "correct_last_step"};
    const std::set<std::string> kSavers = {"pack_local", "save_state",
                                           "restore_state"};
    for (const ClassInfo* cls : table.derived_from("SyncIterativeApp")) {
      if (cls->name == "SyncIterativeApp") continue;
      const auto mutators = method_closure(cls->name, kMutators);
      if (mutators.empty()) continue;  // abstract / helper base
      const auto savers = method_closure(cls->name, kSavers);

      std::set<std::string> field_names;
      for (const auto& f : cls->fields) field_names.insert(f.name);

      // Fields referenced anywhere in the save/restore/pack closure are
      // covered (loose on purpose: coverage over-approximates toward *not*
      // flagging).
      std::set<std::string> covered;
      for (const std::size_t s : savers) {
        const auto fit = file_by_path.find(symbols[s].path);
        if (fit == file_by_path.end()) continue;
        const FileIndex& file = table.files()[fit->second];
        for (std::size_t i = symbols[s].tok_begin;
             i < symbols[s].tok_end && i < file.tokens.size(); ++i) {
          const std::string t(file.tokens[i].text);
          if (field_names.count(t) != 0) covered.insert(t);
        }
      }
      // `// specomp: rollback-covered(field): why` on the field declaration
      // or in the comment block up to three lines above it.
      const FileAnnotations& cls_ann = ann_for(cls->path);
      for (const auto& f : cls->fields)
        for (const auto& [line, name] : cls_ann.covered)
          if (name == f.name && line >= f.line - 3 && line <= f.line)
            covered.insert(f.name);

      std::map<std::string, std::vector<std::pair<std::size_t, Mutation>>>
          mutated;  // field -> (symbol, site)
      for (const std::size_t s : mutators) {
        const auto fit = file_by_path.find(symbols[s].path);
        if (fit == file_by_path.end()) continue;
        const FileIndex& file = table.files()[fit->second];
        std::vector<Mutation> muts;
        collect_mutations(file, symbols[s], field_names, muts);
        for (auto& m : muts) mutated[m.field].emplace_back(s, std::move(m));
        scan_body_escapes(file, symbols[s]);
      }

      const std::map<std::string, const Field*> field_info = [&] {
        std::map<std::string, const Field*> m;
        for (const auto& f : cls->fields) m.emplace(f.name, &f);
        return m;
      }();
      for (const auto& [field, sites] : mutated) {
        const Field* info = field_info.at(field);
        std::vector<std::string> chain;
        std::set<std::string> via;
        for (const auto& [s, m] : sites) {
          if (chain.size() < 4)
            chain.push_back(symbols[s].qualified() + " (" + symbols[s].path +
                            ":" + std::to_string(m.line) + ") — " + m.how);
          via.insert(symbols[s].name);
        }
        std::string methods;
        for (const auto& v : via) methods += (methods.empty() ? "" : "/") + v;
        if (info->is_static || info->is_mutable) {
          if (!cls_ann.allowed(info->line, "rollback-static"))
            result.findings.push_back(
                {"rollback-static", cls->path, info->line,
                 cls->name + "::" + field,
                 std::string(info->is_static ? "static" : "mutable") +
                     " member '" + field + "' mutated by " + methods +
                     " — shared across snapshots, restore_state cannot "
                     "rewind it",
                 chain, false});
          continue;
        }
        if (covered.count(field) != 0) continue;
        if (cls_ann.allowed(info->line, "rollback-unsaved-field")) continue;
        result.findings.push_back(
            {"rollback-unsaved-field", cls->path, info->line,
             cls->name + "::" + field,
             "field '" + field + "' mutated by " + methods +
                 " but never referenced by "
                 "save_state/restore_state/pack_local — state escapes "
                 "rollback",
             chain, false});
      }
    }
  }

  // Static locals, file I/O and RNG advancement inside a rollback-scoped
  // method body.
  void scan_body_escapes(const FileIndex& file, const Symbol& sym) {
    const FileAnnotations& ann = ann_for(file.path);
    const auto& toks = file.tokens;
    const auto tok = [&](std::size_t i) {
      return i < toks.size() ? toks[i].text : std::string_view{};
    };
    auto add = [&](std::string_view rule, int line, std::string detail) {
      if (ann.allowed(line, rule)) return;
      result.findings.push_back({std::string(rule), file.path, line,
                                 sym.qualified(), std::move(detail),
                                 {}, false});
    };
    for (std::size_t i = sym.tok_begin; i < sym.tok_end && i < toks.size();
         ++i) {
      const std::string_view t = toks[i].text;
      const int line = toks[i].line;
      if (t == "static" && tok(i + 1) != "const" &&
          tok(i + 1) != "constexpr" && tok(i + 2) != "const" &&
          tok(i + 2) != "constexpr") {
        add("rollback-static", line,
            "static local state in rollback-scoped method " +
                sym.qualified() + " — survives restore_state");
      } else if (kIoIdents.count(t) != 0) {
        add("rollback-io", line,
            "file I/O '" + std::string(t) + "' in rollback-scoped method " +
                sym.qualified() + " — effects are not rolled back");
      } else if (is_ambient_rand(toks, i)) {
        add("rollback-rng", line,
            "RNG '" + std::string(t) + "' advanced in rollback-scoped "
            "method " + sym.qualified() + " — stream position escapes the "
            "snapshot");
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleSpec>& analyze_rules() { return kRules; }

AnalyzeResult analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Analyzer a;
  for (const auto& [path, content] : files) a.add_file(path, content);
  a.result.files_scanned = files.size();
  a.run();
  return std::move(a.result);
}

AnalyzeResult analyze_tree(const std::filesystem::path& root,
                           const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  Analyzer a;
  const std::vector<fs::path> paths =
      specscan::collect_sources(root, subdirs);
  for (const auto& p : paths)
    a.add_file(fs::relative(p, root).generic_string(),
               specscan::read_file(p));
  a.result.files_scanned = paths.size();
  a.run();
  return std::move(a.result);
}

std::string baseline_key(const AnalyzeFinding& f) {
  return f.rule + "|" + f.path + "|" + f.symbol + "|" + f.detail;
}

std::string make_baseline_json(const AnalyzeResult& result) {
  using specomp::obs::Json;
  std::vector<const AnalyzeFinding*> sorted;
  for (const auto& f : result.findings)
    if (!f.per_site) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const AnalyzeFinding* x, const AnalyzeFinding* y) {
              return baseline_key(*x) < baseline_key(*y);
            });
  Json entries = Json::array();
  std::string last;
  for (const AnalyzeFinding* f : sorted) {
    const std::string key = baseline_key(*f);
    if (key == last) continue;
    last = key;
    Json e = Json::object();
    e.set("rule", f->rule);
    e.set("path", f->path);
    e.set("symbol", f->symbol);
    e.set("detail", f->detail);
    entries.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("schema_version", 1);
  doc.set("tool", "specomp-analyze-baseline");
  doc.set("entries", std::move(entries));
  return doc.dump(2) + "\n";
}

std::size_t apply_baseline(AnalyzeResult& result,
                           std::string_view baseline_json) {
  using specomp::obs::Json;
  const Json doc = Json::parse(baseline_json);
  const Json* version = doc.find("schema_version");
  if (version == nullptr || version->as_int() != 1)
    throw std::runtime_error("baseline: unsupported schema_version");
  std::set<std::string> keys;
  if (const Json* entries = doc.find("entries")) {
    for (const auto& e : entries->as_array())
      keys.insert(e.at("rule").as_string() + "|" + e.at("path").as_string() +
                  "|" + e.at("symbol").as_string() + "|" +
                  e.at("detail").as_string());
  }
  std::size_t fresh = 0;
  for (auto& f : result.findings) {
    f.baselined = !f.per_site && keys.count(baseline_key(f)) != 0;
    if (!f.baselined) ++fresh;
  }
  return fresh;
}

std::string format_finding(const AnalyzeFinding& f) {
  std::string out = f.path + ":" + std::to_string(f.line) + ": [" + f.rule +
                    "] " + (f.symbol.empty() ? "" : f.symbol + ": ") +
                    f.detail;
  if (f.baselined) out += " [baselined]";
  for (const auto& frame : f.chain) out += "\n    via " + frame;
  return out;
}

std::string to_text_report(const AnalyzeResult& result) {
  std::ostringstream os;
  std::size_t fresh = 0, baselined = 0;
  for (const auto& f : result.findings) (f.baselined ? baselined : fresh)++;
  os << "# specomp-analyze report\n"
     << "# schema_version: 1\n"
     << "# files=" << result.files_scanned
     << " symbols=" << result.symbols_indexed
     << " classes=" << result.classes_indexed
     << " roots=" << result.taint_roots
     << " findings=" << result.findings.size() << " (new=" << fresh
     << " baselined=" << baselined << ")\n";
  if (result.findings.empty()) {
    os << "clean: no findings\n";
    return os.str();
  }
  for (const auto& f : result.findings) os << format_finding(f) << "\n";
  return os.str();
}

std::string to_json_report(const AnalyzeResult& result) {
  using specomp::obs::Json;
  std::size_t fresh = 0, baselined = 0;
  for (const auto& f : result.findings) (f.baselined ? baselined : fresh)++;
  Json doc = Json::object();
  doc.set("schema_version", 1);
  doc.set("tool", "specomp-analyze");
  doc.set("files_scanned", result.files_scanned);
  doc.set("symbols", result.symbols_indexed);
  doc.set("classes", result.classes_indexed);
  doc.set("taint_roots", result.taint_roots);
  doc.set("new_findings", fresh);
  doc.set("baselined_findings", baselined);
  Json arr = Json::array();
  for (const auto& f : result.findings) {
    Json e = Json::object();
    e.set("rule", f.rule);
    e.set("path", f.path);
    e.set("line", f.line);
    e.set("symbol", f.symbol);
    e.set("detail", f.detail);
    e.set("baselined", f.baselined);
    e.set("per_site", f.per_site);
    Json chain = Json::array();
    for (const auto& frame : f.chain) chain.push_back(frame);
    e.set("chain", std::move(chain));
    arr.push_back(std::move(e));
  }
  doc.set("findings", std::move(arr));
  return doc.dump(2) + "\n";
}

std::string to_sarif_report(const AnalyzeResult& result) {
  using specomp::obs::Json;
  Json rules = Json::array();
  for (const auto& rule : analyze_rules()) {
    Json r = Json::object();
    r.set("id", std::string(rule.id));
    Json text = Json::object();
    text.set("text", std::string(rule.summary));
    r.set("shortDescription", std::move(text));
    rules.push_back(std::move(r));
  }
  Json driver = Json::object();
  driver.set("name", "specomp-analyze");
  driver.set("version", "1.0.0");
  driver.set("informationUri",
             "https://github.com/specomp/specomp/blob/main/DESIGN.md");
  driver.set("rules", std::move(rules));
  Json tool = Json::object();
  tool.set("driver", std::move(driver));

  Json results = Json::array();
  for (const auto& f : result.findings) {
    Json msg = Json::object();
    std::string text = f.detail;
    for (const auto& frame : f.chain) text += "; via " + frame;
    msg.set("text", std::move(text));
    Json artifact = Json::object();
    artifact.set("uri", f.path);
    Json region = Json::object();
    region.set("startLine", f.line > 0 ? f.line : 1);
    Json physical = Json::object();
    physical.set("artifactLocation", std::move(artifact));
    physical.set("region", std::move(region));
    Json location = Json::object();
    location.set("physicalLocation", std::move(physical));
    Json locations = Json::array();
    locations.push_back(std::move(location));
    Json r = Json::object();
    r.set("ruleId", f.rule);
    r.set("level", f.baselined ? "note" : "error");
    r.set("message", std::move(msg));
    r.set("locations", std::move(locations));
    results.push_back(std::move(r));
  }

  Json run = Json::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  Json runs = Json::array();
  runs.push_back(std::move(run));
  Json doc = Json::object();
  doc.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  doc.set("version", "2.1.0");
  doc.set("runs", std::move(runs));
  return doc.dump(2) + "\n";
}

}  // namespace specana
