// specomp-analyze CLI — per-site determinism rules, whole-program
// nondeterminism taint and rollback-safety analysis (see analyze_core.hpp).
//
//   $ specomp-analyze --root .        # scans src bench tests tools examples
//   $ specomp-analyze --root . --baseline tools/analyze/baseline.json
//         --out analyze-report.txt --json analyze-report.json
//         --sarif analyze-report.sarif        # what CI runs (one line)
//   $ specomp-analyze --root . --write-baseline tools/analyze/baseline.json
//   $ specomp-analyze --list-rules
//
// Exit status: 0 clean (no per-site findings, every whole-program finding
// baselined), 1 new findings, 2 usage/IO error.  All reports are written
// atomically (stage + rename) so a crashed run never leaves a truncated
// artifact for CI to upload.
#include <cstdio>
#include <string>
#include <vector>

#include "analyze_core.hpp"
#include "obs/atomic_file.hpp"

namespace {

void print_rules() {
  std::printf("specomp-analyze rules:\n");
  for (const auto& rule : specana::analyze_rules()) {
    std::printf("  %-24s %s\n", std::string(rule.id).c_str(),
                std::string(rule.summary).c_str());
    std::string scope;
    if (rule.per_site) {
      scope += " per-site:";
      for (const auto& p : rule.include_prefixes) scope += " " + std::string(p);
      for (const auto& p : rule.exclude_prefixes) scope += " -" + std::string(p);
      if (rule.include_prefixes.empty()) scope += " (every scanned file)";
      if (rule.headers_only) scope += " (headers only)";
    }
    if (rule.whole_program) {
      scope += rule.per_site ? ";" : "";
      scope += " whole-program:";
      for (const auto& p : specana::kWholeProgramDirs)
        scope += " " + std::string(p);
    }
    std::printf("  %-24s  %s\n", "", scope.c_str());
  }
  std::printf(
      "\nsuppress with: // specomp: allow(<rule>): <justification>\n"
      "               // specomp: pure\n"
      "               // specomp: rollback-covered(<field>): <why>\n");
}

bool write_report(const std::string& path, const std::string& content) {
  if (!specomp::obs::atomic_write_file(path, content)) {
    std::fprintf(stderr, "specomp-analyze: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string out_path, json_path, sarif_path;
  std::string baseline_path, write_baseline_path;
  std::vector<std::string> subdirs;
  auto flag_value = [&](const std::string& arg, const char* name,
                        std::string& dst, int& i) {
    const std::string eq = std::string(name) + "=";
    if (arg == name && i + 1 < argc) {
      dst = argv[++i];
      return true;
    }
    if (arg.rfind(eq, 0) == 0) {
      dst = arg.substr(eq.size());
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (flag_value(arg, "--root", root, i)) continue;
    if (flag_value(arg, "--out", out_path, i)) continue;
    if (flag_value(arg, "--json", json_path, i)) continue;
    if (flag_value(arg, "--sarif", sarif_path, i)) continue;
    if (flag_value(arg, "--baseline", baseline_path, i)) continue;
    if (flag_value(arg, "--write-baseline", write_baseline_path, i)) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: specomp-analyze [--root DIR] [--out FILE] "
                   "[--json FILE] [--sarif FILE] [--baseline FILE] "
                   "[--write-baseline FILE] [--list-rules] [subdir...]\n");
      return 2;
    }
    subdirs.push_back(arg);
  }
  if (subdirs.empty()) subdirs = specana::kDefaultScanDirs;

  specana::AnalyzeResult result = specana::analyze_tree(root, subdirs);

  if (!write_baseline_path.empty())
    return write_report(write_baseline_path,
                        specana::make_baseline_json(result))
               ? 0
               : 2;

  std::size_t fresh = result.findings.size();
  if (!baseline_path.empty()) {
    const std::string content = specscan::read_file(baseline_path);
    if (content.empty()) {
      std::fprintf(stderr, "specomp-analyze: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    try {
      fresh = specana::apply_baseline(result, content);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "specomp-analyze: bad baseline %s: %s\n",
                   baseline_path.c_str(), e.what());
      return 2;
    }
  }

  const std::string report = specana::to_text_report(result);
  std::fputs(report.c_str(), fresh == 0 ? stdout : stderr);
  bool io_ok = true;
  if (!out_path.empty()) io_ok &= write_report(out_path, report);
  if (!json_path.empty())
    io_ok &= write_report(json_path, specana::to_json_report(result));
  if (!sarif_path.empty())
    io_ok &= write_report(sarif_path, specana::to_sarif_report(result));
  if (!io_ok) return 2;
  return fresh == 0 ? 0 : 1;
}
