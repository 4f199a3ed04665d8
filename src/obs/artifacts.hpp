// Shared observability flag handling for examples and bench binaries.
//
// Every driver constructs an ArtifactWriter from its Cli right after
// parsing; the writer claims the shared telemetry flags
//
//   --trace-out=FILE     Chrome trace JSON (or JSONL if FILE ends .jsonl)
//   --report-out=FILE    structured run/bench report JSON
//   --csv-out=FILE       every recorded table, as diffable CSV
//
// and the driver hands it whatever it produced (tables, a trace, a
// RunReport, extra entries).  flush() writes only the artifacts that were
// requested, so binaries stay plain-stdout tools unless asked.
//
// Bench reports without a full RunReport use the
// "specomp.bench_report.v1" envelope:
//   {schema, binary, tables: {name: {headers, rows}}, entries: {...}}
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "des/trace.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace specomp::obs {

inline constexpr const char* kBenchReportSchema = "specomp.bench_report.v1";
/// Emitted as "schema_version" next to every envelope's "schema" so tooling
/// can reject artifacts from a future incompatible writer with a clear
/// error instead of a missing-key crash.
inline constexpr int kBenchReportVersion = 1;

/// Converts a Table to {"headers": [...], "rows": [[...], ...]} (cells stay
/// strings, exactly as printed, so the JSON matches the ASCII output).
Json table_to_json(const support::Table& table);

class ArtifactWriter {
 public:
  ArtifactWriter(std::string binary, const support::Cli& cli);

  /// True when --trace-out was given — drivers use this to turn on
  /// SimConfig::record_trace only when somebody will read the result.
  bool wants_trace() const noexcept { return !trace_path_.empty(); }
  bool wants_report() const noexcept { return !report_path_.empty(); }

  /// Records a named table for the CSV and bench-report outputs.
  void add_table(const std::string& name, const support::Table& table);
  /// Records the trace to export (copies; traces are modest).
  void set_trace(const des::Trace& trace, std::size_t lanes = 0);
  /// Adds a named entry to the bench report's "entries" object.
  void add_entry(const std::string& key, Json value);
  /// Replaces the bench-report envelope with a full RunReport document.
  void set_run_report(const RunReport& report);

  /// Writes every requested artifact; reports failures on stderr and
  /// returns false if any write failed.
  bool flush();

 private:
  std::string binary_;
  std::string trace_path_;
  std::string report_path_;
  std::string csv_path_;
  std::vector<std::pair<std::string, support::Table>> tables_;
  des::Trace trace_;
  std::size_t trace_lanes_ = 0;
  bool have_trace_ = false;
  Json entries_;
  Json run_report_;
  bool have_run_report_ = false;
};

}  // namespace specomp::obs
