// specomp-analyze corpus: the symbol indexer, the whole-program passes, the
// annotation grammar, the baseline machinery and the report writers, each
// against small inline fixtures with pinned diagnostics; the per-site rule
// corpus (every rule fires on its positive fixture under
// tests/tools/fixtures/ and stays quiet on its negative one); three
// whole-repository locks (no per-site finding, clean against the committed
// baseline, byte-deterministic reports); and the rollback-escape fixture
// that is BOTH flagged statically and shown to diverge at runtime on the same
// field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze_core.hpp"
#include "obs/json.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/engine.hpp"

#include "fixtures/analyze/escaping_app.hpp"

namespace {

using specana::AnalyzeFinding;
using specana::AnalyzeResult;
using specana::analyze_files;
using specana::analyze_tree;

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(SPECOMP_ANALYZE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

AnalyzeResult analyze_one(const std::string& path, const std::string& body) {
  return analyze_files({{path, body}});
}

// The whole-program fixtures below sit under examples/: inside the call
// graph's scope and outside every per-site rule's, so they exercise the
// taint and rollback passes alone.  The per-site corpus aims its fixtures
// at src/ paths instead.

std::vector<AnalyzeFinding> with_rule(const AnalyzeResult& result,
                                      const std::string& rule) {
  std::vector<AnalyzeFinding> out;
  for (const auto& f : result.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

std::string dump(const AnalyzeResult& result) {
  std::string all;
  for (const auto& f : result.findings)
    all += specana::format_finding(f) + "\n";
  return all;
}

// ---------------------------------------------------------------------------
// Symbol index
// ---------------------------------------------------------------------------

TEST(AnalyzeSymbols, IndexesMethodsFieldsBasesAndCalls) {
  specana::SymbolTable table;
  table.add_file("src/x/widget.hpp",
                 "namespace outer {\n"
                 "class Widget final : public app::Base {\n"
                 " public:\n"
                 "  void step() { helper(); reader.read_span<double>(4); }\n"
                 "  int helper();\n"
                 " private:\n"
                 "  double x_ = 0.0;\n"
                 "  static long count_;\n"
                 "  mutable int scratch_;\n"
                 "};\n"
                 "int free_fn() { return 1; }\n"
                 "}  // namespace outer\n");
  const specana::ClassInfo* cls = table.find_class("Widget");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->bases, (std::vector<std::string>{"Base"}));
  ASSERT_EQ(cls->fields.size(), 3u);
  EXPECT_EQ(cls->fields[0].name, "x_");
  EXPECT_FALSE(cls->fields[0].is_static);
  EXPECT_TRUE(cls->fields[1].is_static);
  EXPECT_TRUE(cls->fields[2].is_mutable);

  const auto methods = table.methods_of("Widget");
  ASSERT_EQ(methods.size(), 1u);  // only `step` has an indexed body
  const specana::Symbol& step = table.symbols()[methods[0]];
  EXPECT_EQ(step.qualified(), "Widget::step");
  // Plain and template-argument calls are both captured.
  EXPECT_NE(std::find(step.calls.begin(), step.calls.end(), "helper"),
            step.calls.end());
  EXPECT_NE(std::find(step.calls.begin(), step.calls.end(), "read_span"),
            step.calls.end());
  EXPECT_EQ(table.by_name("free_fn").size(), 1u);
}

TEST(AnalyzeSymbols, DerivedFromIsTransitive) {
  specana::SymbolTable table;
  table.add_file("src/x/apps.hpp",
                 "class Mid : public spec::SyncIterativeApp {};\n"
                 "class Leaf final : public Mid {};\n"
                 "class Other {};\n");
  const auto derived = table.derived_from("SyncIterativeApp");
  std::vector<std::string> names;
  for (const auto* c : derived) names.push_back(c->name);
  EXPECT_EQ(names, (std::vector<std::string>{"Mid", "Leaf"}));
}

// ---------------------------------------------------------------------------
// Taint pass: root -> helper chains, per-seed firing and quiet fixtures
// ---------------------------------------------------------------------------

TEST(AnalyzeTaint, WallClockThroughHelperFiresWithChain) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  const auto hits = with_rule(result, "wall-clock");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "stamp");
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_EQ(hits[0].detail,
            "'steady_clock' reachable from replay root SpecEngine::drain");
  ASSERT_EQ(hits[0].chain.size(), 2u);
  EXPECT_EQ(hits[0].chain[0], "SpecEngine::drain (examples/fx.cpp:2)");
  EXPECT_EQ(hits[0].chain[1], "stamp (examples/fx.cpp:4)");
}

TEST(AnalyzeTaint, QuietWhenSeedIsUnreachableFromRoots) {
  // The same seeded helper, but nothing on a replay path calls it.
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() {}\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
  EXPECT_GT(result.taint_roots, 0u);
}

TEST(AnalyzeTaint, PureAnnotationStopsPropagation) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "// specomp: pure - wraps the simulated clock, never the host's\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, AllowDirectiveSilencesOneSeedLine) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() {\n"
      "  // specomp: allow(wall-clock): fixture, sampled outside replay\n"
      "  return steady_clock::now().count();\n"
      "}\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, UnorderedIterThroughWrapperFires) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { visit(); }\n"
      "};\n"
      "int visit() {\n"
      "  std::unordered_map<int, int> seen;\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : seen) sum = sum + kv.second;\n"
      "  return sum;\n"
      "}\n");
  const auto hits = with_rule(result, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "visit");
  EXPECT_EQ(hits[0].line, 7);
  EXPECT_EQ(hits[0].detail,
            "'for(:)' reachable from replay root SpecEngine::drain");
  ASSERT_EQ(hits[0].chain.size(), 2u);
  EXPECT_EQ(hits[0].chain[0], "SpecEngine::drain (examples/fx.cpp:2)");
}

TEST(AnalyzeTaint, UnorderedIterQuietOnOrderedMap) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { visit(); }\n"
      "};\n"
      "int visit() {\n"
      "  std::map<int, int> seen;\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : seen) sum = sum + kv.second;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

TEST(AnalyzeTaint, AmbientRandFiresAndMemberRandIsQuiet) {
  const auto fired = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { jitter(); }\n"
      "};\n"
      "int jitter() { return rand() % 7; }\n");
  const auto hits = with_rule(fired, "ambient-rand");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "jitter");
  EXPECT_EQ(hits[0].line, 4);

  // A member function that happens to be named rand() is not the libc PRNG.
  const auto quiet = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { jitter(); }\n"
      "};\n"
      "int jitter() { return eng.rand() % 7; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

TEST(AnalyzeTaint, QualifiedStdRandFiresWithChain) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { jitter(); }\n"
      "};\n"
      "int jitter() { return std::rand() % 7; }\n");
  const auto hits = with_rule(result, "ambient-rand");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "jitter");
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_EQ(hits[0].detail,
            "'rand' reachable from replay root SpecEngine::drain");
  EXPECT_EQ(hits[0].chain,
            (std::vector<std::string>{"SpecEngine::drain (examples/fx.cpp:2)",
                                      "jitter (examples/fx.cpp:4)"}));
}

TEST(AnalyzeTaint, DefaultSeededEngineFiresWithChain) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { roll(); }\n"
      "};\n"
      "unsigned roll() {\n"
      "  std::mt19937 gen;\n"
      "  std::mt19937 seeded(42);\n"
      "  return gen() + seeded();\n"
      "}\n");
  const auto hits = with_rule(result, "ambient-rand");
  ASSERT_EQ(hits.size(), 1u) << dump(result);  // the seeded engine is quiet
  EXPECT_EQ(hits[0].symbol, "roll");
  EXPECT_EQ(hits[0].line, 5);
  EXPECT_EQ(hits[0].detail,
            "'mt19937' reachable from replay root SpecEngine::drain");
  EXPECT_EQ(hits[0].chain,
            (std::vector<std::string>{"SpecEngine::drain (examples/fx.cpp:2)",
                                      "roll (examples/fx.cpp:4)"}));
}

TEST(AnalyzeTaint, ThreadIdFiresOnlyAsACall) {
  const auto fired = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { lane(); }\n"
      "};\n"
      "unsigned lane() { return hash(std::this_thread::get_id()); }\n");
  const auto hits = with_rule(fired, "thread-id");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "lane");

  const auto quiet = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { lane(); }\n"
      "};\n"
      "unsigned lane() { unsigned get_id = 3; return get_id; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

TEST(AnalyzeTaint, PtrCastFires) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain(void* p) { key(p); }\n"
      "};\n"
      "unsigned long key(void* p) {\n"
      "  return reinterpret_cast<uintptr_t>(p);\n"
      "}\n");
  const auto hits = with_rule(result, "ptr-cast");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "key");
  EXPECT_EQ(hits[0].line, 5);
}

TEST(AnalyzeTaint, HotPathNewFiresAndPlacementNewIsQuiet) {
  const auto fired = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { grow(); }\n"
      "};\n"
      "int* grow() { return new int[4]; }\n");
  const auto hits = with_rule(fired, "hot-path-new");
  ASSERT_EQ(hits.size(), 1u) << dump(fired);
  EXPECT_EQ(hits[0].symbol, "grow");

  const auto quiet = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain(char* buf) { grow(buf); }\n"
      "};\n"
      "int* grow(char* buf) { return new (buf) int; }\n");
  EXPECT_TRUE(quiet.findings.empty()) << dump(quiet);
}

// ---------------------------------------------------------------------------
// Annotation grammar
// ---------------------------------------------------------------------------

TEST(AnalyzeAnnotations, MalformedDirectivesAreFindings) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "// specomp: allow(wall-clock)\n"
      "// specomp: allow(no-such-rule): why\n"
      "// specomp: rollback-covered(a_, b_): why\n"
      "// specomp: rollback-covered(x_)\n"
      "// specomp: frobnicate\n"
      "int ok;\n");
  const auto bad = with_rule(result, "bad-annotation");
  std::vector<int> lines;
  for (const auto& f : bad) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{1, 2, 3, 4, 5})) << dump(result);
  EXPECT_EQ(result.findings.size(), bad.size());
}

TEST(AnalyzeAnnotations, WellFormedDirectivesAreClean) {
  const auto result = analyze_one(
      "examples/fx.cpp",
      "// specomp: pure\n"
      "// specomp: pure - reads only arguments\n"
      "// specomp: allow(wall-clock, ambient-rand): measurement harness\n"
      "// specomp: rollback-covered(cache_): rewritten every step\n"
      "// prose about specomp::obs::Json is not a directive\n"
      "// specomp: allow(naked-new): arena, freed in bulk\n"
      "int ok;\n");
  EXPECT_TRUE(result.findings.empty()) << dump(result);
}

// ---------------------------------------------------------------------------
// Rollback-safety pass
// ---------------------------------------------------------------------------

TEST(AnalyzeRollback, EscapingFixtureFlagsExactlyTheLeakedCounter) {
  const auto result = analyze_one("src/spec/escaping_app.hpp",
                                  read_fixture("analyze/escaping_app.hpp"));
  const auto hits = with_rule(result, "rollback-unsaved-field");
  ASSERT_EQ(hits.size(), 1u) << dump(result);
  EXPECT_EQ(hits[0].symbol, "EscapingApp::steps_done_");
  EXPECT_NE(hits[0].detail.find("never referenced by "
                                "save_state/restore_state/pack_local"),
            std::string::npos);
  ASSERT_FALSE(hits[0].chain.empty());
  EXPECT_NE(hits[0].chain[0].find("EscapingApp::compute_step"),
            std::string::npos);
  // CoveredApp mutates the same fields but snapshots the counter: only the
  // escaping class is reported.
  EXPECT_EQ(result.findings.size(), 1u) << dump(result);
}

TEST(AnalyzeRollback, StaticMutableIoAndRngEscapesAreFlagged) {
  const auto result = analyze_one(
      "examples/fx.hpp",
      "class LeakyApp final : public spec::SyncIterativeApp {\n"
      " public:\n"
      "  void compute_step() override {\n"
      "    static long calls = 0;\n"
      "    calls = calls + 1;\n"
      "    counter_ = counter_ + 1.0;\n"
      "    scratch_ = counter_;\n"
      "    std::ofstream log(\"leak.txt\");\n"
      "    x_ = x_ + 0.0 * rand();\n"
      "  }\n"
      "  std::vector<double> save_state() const override { return {x_}; }\n"
      "  void restore_state(std::span<const double> s) override "
      "{ x_ = s[0]; }\n"
      " private:\n"
      "  double x_ = 0.0;\n"
      "  static double counter_;\n"
      "  mutable double scratch_;\n"
      "};\n");
  const auto statics = with_rule(result, "rollback-static");
  std::vector<std::string> symbols;
  for (const auto& f : statics) symbols.push_back(f.symbol);
  std::sort(symbols.begin(), symbols.end());
  EXPECT_EQ(symbols,
            (std::vector<std::string>{"LeakyApp::compute_step",
                                      "LeakyApp::counter_",
                                      "LeakyApp::scratch_"}))
      << dump(result);
  ASSERT_EQ(with_rule(result, "rollback-io").size(), 1u) << dump(result);
  EXPECT_EQ(with_rule(result, "rollback-io")[0].line, 8);
  ASSERT_EQ(with_rule(result, "rollback-rng").size(), 1u) << dump(result);
  EXPECT_EQ(with_rule(result, "rollback-rng")[0].line, 9);
  // x_ is snapshot-covered; rand() also fires the taint pass because every
  // SyncIterativeApp subclass is a replay root.
  EXPECT_TRUE(with_rule(result, "rollback-unsaved-field").empty())
      << dump(result);
  EXPECT_EQ(with_rule(result, "ambient-rand").size(), 1u) << dump(result);
}

TEST(AnalyzeRollback, QualifiedStdRandInComputeStepIsFlagged) {
  const auto result = analyze_one(
      "examples/fx.hpp",
      "class NoisyApp final : public spec::SyncIterativeApp {\n"
      " public:\n"
      "  void compute_step() override {\n"
      "    x_ = x_ + 0.0 * std::rand();\n"
      "  }\n"
      "  std::vector<double> save_state() const override { return {x_}; }\n"
      "  void restore_state(std::span<const double> s) override "
      "{ x_ = s[0]; }\n"
      " private:\n"
      "  double x_ = 0.0;\n"
      "};\n");
  const auto rng = with_rule(result, "rollback-rng");
  ASSERT_EQ(rng.size(), 1u) << dump(result);
  EXPECT_EQ(rng[0].line, 4);
  EXPECT_EQ(rng[0].symbol, "NoisyApp::compute_step");
  EXPECT_EQ(with_rule(result, "ambient-rand").size(), 1u) << dump(result);
}

TEST(AnalyzeRollback, CoveredAnnotationSuppressesTheField) {
  const std::string flagged =
      "class CachedApp final : public spec::SyncIterativeApp {\n"
      " public:\n"
      "  void compute_step() override { cache_ = 1.0; x_ = x_ + cache_; }\n"
      "  std::vector<double> save_state() const override { return {x_}; }\n"
      "  void restore_state(std::span<const double> s) override "
      "{ x_ = s[0]; }\n"
      " private:\n"
      "  double x_ = 0.0;\n"
      "  double cache_ = 0.0;\n"
      "};\n";
  const auto without = analyze_one("examples/fx.hpp", flagged);
  const auto hits = with_rule(without, "rollback-unsaved-field");
  ASSERT_EQ(hits.size(), 1u) << dump(without);
  EXPECT_EQ(hits[0].symbol, "CachedApp::cache_");

  std::string annotated = flagged;
  const std::string decl = "  double cache_ = 0.0;";
  annotated.replace(annotated.find(decl), decl.size(),
                    "  // specomp: rollback-covered(cache_): rewritten at "
                    "the top of every step\n" +
                        decl);
  const auto with = analyze_one("examples/fx.hpp", annotated);
  EXPECT_TRUE(with.findings.empty()) << dump(with);
}

// ---------------------------------------------------------------------------
// Baseline machinery
// ---------------------------------------------------------------------------

TEST(AnalyzeBaseline, RoundTripMarksEverythingBaselined) {
  auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  ASSERT_EQ(result.findings.size(), 1u);
  const std::string baseline = specana::make_baseline_json(result);
  EXPECT_EQ(specana::apply_baseline(result, baseline), 0u);
  EXPECT_TRUE(result.findings[0].baselined);
  // An empty baseline leaves the finding fresh again.
  EXPECT_EQ(specana::apply_baseline(
                result,
                "{\"schema_version\": 1, \"entries\": []}"),
            1u);
  EXPECT_FALSE(result.findings[0].baselined);
}

TEST(AnalyzeBaseline, PerSiteFindingsAreNeverBaselined) {
  // The same wall-clock read in deterministic simulation code: the per-site
  // pass reports it where it is written, the taint pass with its chain.
  auto result = analyze_one(
      "src/spec/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n");
  ASSERT_EQ(result.findings.size(), 2u) << dump(result);
  const auto site = std::find_if(
      result.findings.begin(), result.findings.end(),
      [](const AnalyzeFinding& f) { return f.per_site; });
  ASSERT_NE(site, result.findings.end());
  EXPECT_EQ(site->rule, "wall-clock");
  EXPECT_EQ(site->line, 4);
  EXPECT_TRUE(site->symbol.empty());

  // make_baseline_json leaves the per-site finding out...
  const std::string baseline = specana::make_baseline_json(result);
  EXPECT_EQ(baseline.find(site->detail), std::string::npos) << baseline;
  EXPECT_EQ(specana::apply_baseline(result, baseline), 1u);

  // ...and a hand-written baseline that names its key still fails the gate.
  specomp::obs::Json doc = specomp::obs::Json::parse(baseline);
  specomp::obs::Json entries = doc.at("entries");
  specomp::obs::Json e = specomp::obs::Json::object();
  e.set("rule", site->rule);
  e.set("path", site->path);
  e.set("symbol", site->symbol);
  e.set("detail", site->detail);
  entries.push_back(std::move(e));
  doc.set("entries", std::move(entries));
  EXPECT_EQ(specana::apply_baseline(result, doc.dump(0)), 1u);
  for (const auto& f : result.findings) EXPECT_EQ(f.baselined, !f.per_site);
}

TEST(AnalyzeBaseline, RejectsUnknownSchema) {
  auto result = analyze_one("examples/fx.cpp", "int x;\n");
  EXPECT_THROW(specana::apply_baseline(result, "{\"schema_version\": 9}"),
               std::runtime_error);
  EXPECT_THROW(specana::apply_baseline(result, "{}"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

TEST(AnalyzeReports, TextJsonAndSarifAgreeOnTheFindings) {
  auto result = analyze_one(
      "examples/fx.cpp",
      "struct SpecEngine {\n"
      "  void drain() { stamp(); jitter(); }\n"
      "};\n"
      "double stamp() { return steady_clock::now().count(); }\n"
      "int jitter() { return rand() % 7; }\n");
  ASSERT_EQ(result.findings.size(), 2u);
  const std::string baseline = specana::make_baseline_json(result);
  // Baseline one of the two, then regenerate reports.
  specomp::obs::Json doc = specomp::obs::Json::parse(baseline);
  specomp::obs::Json entries = specomp::obs::Json::array();
  entries.push_back(doc.at("entries").as_array()[0]);
  doc.set("entries", std::move(entries));
  ASSERT_EQ(specana::apply_baseline(result, doc.dump(0)), 1u);

  const std::string text = specana::to_text_report(result);
  EXPECT_EQ(text.rfind("# specomp-analyze report\n# schema_version: 1\n", 0),
            0u);
  EXPECT_NE(text.find("(new=1 baselined=1)"), std::string::npos);
  EXPECT_NE(text.find("[baselined]"), std::string::npos);
  EXPECT_NE(text.find("    via SpecEngine::drain (examples/fx.cpp:2)"),
            std::string::npos);

  const specomp::obs::Json json =
      specomp::obs::Json::parse(specana::to_json_report(result));
  EXPECT_EQ(json.at("schema_version").as_int(), 1);
  EXPECT_EQ(json.at("new_findings").as_int(), 1);
  EXPECT_EQ(json.at("baselined_findings").as_int(), 1);
  EXPECT_EQ(json.at("findings").as_array().size(), 2u);

  const specomp::obs::Json sarif =
      specomp::obs::Json::parse(specana::to_sarif_report(result));
  EXPECT_EQ(sarif.at("version").as_string(), "2.1.0");
  const auto& runs = sarif.at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("tool").at("driver").at("rules").as_array().size(),
            specana::analyze_rules().size());
  const auto& results = runs[0].at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  // One demoted to note (baselined), one error (fresh).
  std::vector<std::string> levels = {results[0].at("level").as_string(),
                                     results[1].at("level").as_string()};
  std::sort(levels.begin(), levels.end());
  EXPECT_EQ(levels, (std::vector<std::string>{"error", "note"}));
}

// ---------------------------------------------------------------------------
// Per-site pass: every rule must both fire on its positive fixture (exact
// rule id, expected lines) and stay quiet on its negative fixture, at the
// logical path its scope covers
// ---------------------------------------------------------------------------

std::vector<AnalyzeFinding> check_site(const std::string& path,
                                       const std::string& content) {
  return analyze_one(path, content).findings;
}

std::vector<std::string> rule_ids(const std::vector<AnalyzeFinding>& findings) {
  std::vector<std::string> ids;
  ids.reserve(findings.size());
  for (const auto& f : findings) ids.push_back(f.rule);
  return ids;
}

std::vector<int> lines_of(const std::vector<AnalyzeFinding>& findings,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const auto& f : findings)
    if (f.rule == rule) lines.push_back(f.line);
  return lines;
}

TEST(LintRules, RuleTableIsStable) {
  std::set<std::string> site_ids, all_ids;
  for (const auto& r : specana::analyze_rules()) {
    all_ids.insert(std::string(r.id));
    if (r.per_site) site_ids.insert(std::string(r.id));
  }
  EXPECT_EQ(site_ids, (std::set<std::string>{
                          "wall-clock", "ambient-rand", "hot-path-callable",
                          "unordered-iter", "naked-new", "bad-annotation"}));
  EXPECT_EQ(all_ids,
            (std::set<std::string>{
                "wall-clock", "ambient-rand", "hot-path-callable",
                "unordered-iter", "naked-new", "thread-id", "ptr-cast",
                "hot-path-new", "rollback-unsaved-field", "rollback-static",
                "rollback-io", "rollback-rng", "bad-annotation"}));
}

TEST(LintRules, WallClockFires) {
  const auto findings =
      check_site("src/des/fixture.cpp", read_fixture("wall_clock_bad.cpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"wall-clock", "wall-clock"}));
  EXPECT_EQ(lines_of(findings, "wall-clock"), (std::vector<int>{7, 9}));
}

TEST(LintRules, WallClockQuietOnVirtualTime) {
  EXPECT_TRUE(check_site("src/des/fixture.cpp",
                         read_fixture("wall_clock_good.cpp"))
                  .empty());
}

TEST(LintRules, WallClockScopedToDeterministicDirs) {
  // The same violating content is fine in bench/ (measurement harness code).
  EXPECT_TRUE(
      check_site("bench/fixture.cpp", read_fixture("wall_clock_bad.cpp"))
          .empty());
}

TEST(LintRules, AmbientRandFires) {
  const auto findings = check_site("src/spec/fixture.cpp",
                                   read_fixture("ambient_rand_bad.cpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"ambient-rand", "ambient-rand",
                                      "ambient-rand"}));
  EXPECT_EQ(lines_of(findings, "ambient-rand"), (std::vector<int>{6, 7, 10}));
}

TEST(LintRules, AmbientRandQuietOnSeededEngine) {
  EXPECT_TRUE(check_site("src/spec/fixture.cpp",
                         read_fixture("ambient_rand_good.cpp"))
                  .empty());
}

TEST(LintRules, HotPathCallableFires) {
  const auto findings = check_site("src/des/fixture.hpp",
                                   read_fixture("hot_path_callable_bad.hpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"hot-path-callable"}));
  EXPECT_EQ(lines_of(findings, "hot-path-callable"), (std::vector<int>{7}));
}

TEST(LintRules, HotPathCallableQuietOnTemplates) {
  EXPECT_TRUE(check_site("src/des/fixture.hpp",
                         read_fixture("hot_path_callable_good.hpp"))
                  .empty());
}

TEST(LintRules, HotPathCallableHeadersOnly) {
  // The rule guards headers (inline hot-path code); spawn-time .cpp use of
  // std::function is outside its scope.
  EXPECT_TRUE(check_site("src/des/fixture.cpp",
                         read_fixture("hot_path_callable_bad.hpp"))
                  .empty());
}

TEST(LintRules, UnorderedIterFires) {
  const auto findings = check_site("src/runtime/fixture.cpp",
                                   read_fixture("unordered_iter_bad.cpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"unordered-iter", "unordered-iter"}));
  EXPECT_EQ(lines_of(findings, "unordered-iter"), (std::vector<int>{8, 12}));
}

TEST(LintRules, UnorderedIterQuietOnLookupsAndOrderedMaps) {
  EXPECT_TRUE(check_site("src/runtime/fixture.cpp",
                         read_fixture("unordered_iter_good.cpp"))
                  .empty());
}

TEST(LintRules, NakedNewFires) {
  const auto findings =
      check_site("src/spec/fixture.cpp", read_fixture("naked_new_bad.cpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"naked-new", "naked-new"}));
  EXPECT_EQ(lines_of(findings, "naked-new"), (std::vector<int>{8, 10}));
}

TEST(LintRules, NakedNewQuietOnOwnedAndPlacement) {
  EXPECT_TRUE(check_site("src/spec/fixture.cpp",
                         read_fixture("naked_new_good.cpp"))
                  .empty());
}

TEST(LintRules, NakedNewAllowedInSupport) {
  EXPECT_TRUE(check_site("src/support/fixture.cpp",
                         read_fixture("naked_new_bad.cpp"))
                  .empty());
}

TEST(LintDirectives, JustifiedAllowSilences) {
  EXPECT_TRUE(check_site("src/runtime/fixture.cpp",
                         read_fixture("allow_good.cpp"))
                  .empty());
}

TEST(LintDirectives, BareOrUnknownAllowIsReportedAndDoesNotSilence) {
  const auto findings =
      check_site("src/runtime/fixture.cpp", read_fixture("allow_bad.cpp"));
  // Line 6: bare allow -> bad-annotation + the original wall-clock finding.
  // Line 7: unknown rule id -> bad-annotation + the original wall-clock
  // finding.
  EXPECT_EQ(lines_of(findings, "bad-annotation"), (std::vector<int>{6, 7}));
  EXPECT_EQ(lines_of(findings, "wall-clock"), (std::vector<int>{6, 7}));
}

TEST(LintScanner, CommentsStringsAndPreprocessorAreInert) {
  const std::string content =
      "#include <new>\n"
      "/* steady_clock in a block comment\n"
      "   spanning lines: rand() */\n"
      "const char* s = \"delete everything at time(0)\";\n"
      "const char* r = R\"(new delete rand() steady_clock)\";\n";
  EXPECT_TRUE(check_site("src/des/fixture.cpp", content).empty());
}

// ---------------------------------------------------------------------------
// Whole-repository locks (the CI gate, exercised locally first)
// ---------------------------------------------------------------------------

// The zero-tolerance half: no per-site finding anywhere in the default scan,
// judged with no baseline at all, so nothing can be waved through by one.
TEST(LintTree, RepositoryIsClean) {
  const AnalyzeResult result =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultScanDirs);
  EXPECT_GT(result.files_scanned, 100u);  // sanity: the walk saw the real tree
  std::string per_site;
  for (const auto& f : result.findings)
    if (f.per_site) per_site += specana::format_finding(f) + "\n";
  EXPECT_TRUE(per_site.empty()) << per_site;
}

// The enforcement half: the real tree must be clean under the same scan the
// `analyze` target and CI run, so a violation fails locally first.  No
// per-site finding is tolerated; whole-program findings must be baselined.
TEST(AnalyzeTree, RepositoryIsCleanAgainstCommittedBaseline) {
  AnalyzeResult result =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultScanDirs);
  EXPECT_GT(result.files_scanned, 200u);
  EXPECT_GT(result.symbols_indexed, 500u);
  EXPECT_GT(result.taint_roots, 50u);

  std::ifstream in(std::string(SPECOMP_ANALYZE_SOURCE_ROOT) +
                       "/tools/analyze/baseline.json",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing committed tools/analyze/baseline.json";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::size_t fresh = specana::apply_baseline(result, buf.str());
  std::string fresh_text;
  for (const auto& f : result.findings)
    if (!f.baselined) fresh_text += specana::format_finding(f) + "\n";
  EXPECT_EQ(fresh, 0u) << "new analyzer findings (annotate, fix, or "
                          "re-baseline deliberately):\n"
                       << fresh_text;
}

TEST(AnalyzeTree, ReportsAreByteDeterministic) {
  const AnalyzeResult a =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultScanDirs);
  const AnalyzeResult b =
      analyze_tree(SPECOMP_ANALYZE_SOURCE_ROOT, specana::kDefaultScanDirs);
  EXPECT_EQ(specana::to_text_report(a), specana::to_text_report(b));
  EXPECT_EQ(specana::to_json_report(a), specana::to_json_report(b));
  EXPECT_EQ(specana::to_sarif_report(a), specana::to_sarif_report(b));
  EXPECT_EQ(specana::make_baseline_json(a), specana::make_baseline_json(b));
}

// ---------------------------------------------------------------------------
// The other half of the escaping fixture: the flagged field really does
// corrupt replay.  Same dynamics, same engine configuration; the only
// difference between the two apps is whether steps_done_ rides in the
// snapshot — exactly the field the static pass flags above.
// ---------------------------------------------------------------------------

namespace engine_fixture {

using specomp::runtime::Cluster;
using specomp::runtime::Communicator;
using specomp::runtime::SimConfig;
using specomp::spec::EngineConfig;
using specomp::spec::SpecEngine;
using specomp::spec::SpecStats;

struct FixtureRun {
  std::vector<double> finals;
  std::vector<SpecStats> stats;
};

template <class App>
FixtureRun run_fixture(int forward_window) {
  constexpr int kRanks = 3;
  constexpr long kIterations = 10;
  constexpr double kDrift = 0.5;
  SimConfig config;
  config.cluster = Cluster::homogeneous(kRanks, 1e4);
  config.channel.bandwidth_bytes_per_sec = 1e5;
  config.send_sw_time = specomp::des::SimTime::zero();

  FixtureRun run;
  run.finals.resize(kRanks);
  run.stats.resize(kRanks);
  specomp::runtime::run_simulated(config, [&](Communicator& comm) {
    App app(comm.rank(), kDrift);
    EngineConfig engine_config;
    engine_config.forward_window = forward_window;
    // The trajectory is quadratic in the step count; the linear speculator's
    // residual is the constant second difference 0.25 * drift = 0.125, so
    // this threshold rejects every guess and forces rollback + replay.
    engine_config.threshold = 0.05;
    if (forward_window > 0)
      engine_config.speculator = specomp::spec::make_speculator("linear");
    SpecEngine engine(comm, app, engine_config,
                      App::initial_blocks(kRanks));
    run.stats[static_cast<std::size_t>(comm.rank())] =
        engine.run(kIterations);
    run.finals[static_cast<std::size_t>(comm.rank())] = app.value();
  });
  return run;
}

}  // namespace engine_fixture

TEST(AnalyzeEngineFixture, EscapingCounterDivergesUnderRollback) {
  using specomp::spec::testing::EscapingApp;
  const auto sequential = engine_fixture::run_fixture<EscapingApp>(0);
  const auto speculative = engine_fixture::run_fixture<EscapingApp>(1);
  // Rollback + replay actually happened...
  bool replayed = false;
  for (const auto& st : speculative.stats) {
    EXPECT_GT(st.failures, 0u);
    replayed = replayed || st.replayed_iterations > 0;
  }
  EXPECT_TRUE(replayed);
  // ...and because compute_step re-runs with the over-advanced unsaved
  // counter, the speculative run lands on a different trajectory.
  double max_diff = 0.0;
  for (std::size_t r = 0; r < sequential.finals.size(); ++r)
    max_diff = std::max(max_diff, std::fabs(speculative.finals[r] -
                                            sequential.finals[r]));
  EXPECT_GT(max_diff, 1e-6)
      << "replay was expected to diverge on the unsaved counter";
}

TEST(AnalyzeEngineFixture, SnapshottedCounterReplaysExactly) {
  using specomp::spec::testing::CoveredApp;
  const auto sequential = engine_fixture::run_fixture<CoveredApp>(0);
  const auto speculative = engine_fixture::run_fixture<CoveredApp>(1);
  bool replayed = false;
  for (const auto& st : speculative.stats)
    replayed = replayed || st.replayed_iterations > 0;
  EXPECT_TRUE(replayed);  // same rejected guesses, same rollbacks...
  for (std::size_t r = 0; r < sequential.finals.size(); ++r)
    EXPECT_NEAR(speculative.finals[r], sequential.finals[r], 1e-9)
        << "rank " << r;
}

}  // namespace
