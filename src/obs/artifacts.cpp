#include "obs/artifacts.hpp"

#include <cstdio>

#include "obs/atomic_file.hpp"
#include "obs/trace_export.hpp"

namespace specomp::obs {

Json table_to_json(const support::Table& table) {
  Json headers = Json::array();
  for (const auto& h : table.headers()) headers.push_back(h);
  Json rows = Json::array();
  for (std::size_t r = 0; r < table.rows(); ++r) {
    Json row = Json::array();
    for (std::size_t c = 0; c < table.columns(); ++c)
      row.push_back(table.cell(r, c));
    rows.push_back(std::move(row));
  }
  Json out = Json::object();
  out.set("headers", std::move(headers));
  out.set("rows", std::move(rows));
  return out;
}

ArtifactWriter::ArtifactWriter(std::string binary, const support::Cli& cli)
    : binary_(std::move(binary)),
      trace_path_(cli.get("trace-out", "")),
      report_path_(cli.get("report-out", "")),
      csv_path_(cli.get("csv-out", "")) {}

void ArtifactWriter::add_table(const std::string& name,
                               const support::Table& table) {
  tables_.emplace_back(name, table);
}

void ArtifactWriter::set_trace(const des::Trace& trace, std::size_t lanes) {
  trace_ = trace;
  trace_lanes_ = lanes;
  have_trace_ = true;
}

void ArtifactWriter::add_entry(const std::string& key, Json value) {
  entries_.set(key, std::move(value));
}

void ArtifactWriter::set_run_report(const RunReport& report) {
  run_report_ = report.to_json();
  have_run_report_ = true;
}

bool ArtifactWriter::flush() {
  bool ok = true;
  auto write_text = [&](const std::string& path, const std::string& text,
                        const char* what) {
    // Staged + renamed, so a crash-injected run never leaves a truncated
    // artifact for CI to harvest.
    if (!atomic_write_file(path, text)) {
      std::fprintf(stderr, "error: failed to write %s to '%s'\n", what,
                   path.c_str());
      ok = false;
    }
  };

  if (!trace_path_.empty()) {
    if (!have_trace_) {
      std::fprintf(stderr,
                   "warning: --trace-out given but this run recorded no "
                   "trace; writing an empty one to '%s'\n",
                   trace_path_.c_str());
    }
    if (!write_trace_file(trace_, trace_path_, trace_lanes_)) {
      std::fprintf(stderr, "error: failed to write trace to '%s'\n",
                   trace_path_.c_str());
      ok = false;
    }
  }

  if (!report_path_.empty()) {
    Json doc;
    if (have_run_report_) {
      doc = run_report_;
      if (!entries_.is_null()) doc.set("entries", entries_);
    } else {
      doc = Json::object();
      doc.set("schema", kBenchReportSchema);
      doc.set("schema_version", kBenchReportVersion);
      doc.set("binary", binary_);
      Json tables = Json::object();
      for (const auto& [name, table] : tables_)
        tables.set(name, table_to_json(table));
      doc.set("tables", std::move(tables));
      if (!entries_.is_null()) doc.set("entries", entries_);
    }
    write_text(report_path_, doc.dump(2) + "\n", "report");
  }

  if (!csv_path_.empty()) {
    std::string out;
    for (const auto& [name, table] : tables_) {
      if (!out.empty()) out += "\n";
      if (tables_.size() > 1) out += "# " + name + "\n";
      out += table.to_csv();
    }
    write_text(csv_path_, out, "csv");
  }

  return ok;
}

}  // namespace specomp::obs
