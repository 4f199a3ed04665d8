// Structured end-of-run report.
//
// One JSON document per run with a stable schema ("specomp.run_report.v2"),
// collecting everything the paper's evaluation tables need: the run
// configuration (FW, θ, speculator, cluster shape), the Table-2 phase
// breakdown from runtime::PhaseTimer, the Table-3 speculation outcome from
// spec::SpecStats, the network totals from net::ChannelStats, and the DES
// and fault-injection totals from des::KernelStats and runtime::FaultStats.
// Each section is filled from that run's own stats structs.  Every
// bench binary and example can emit one, so BENCH_*.json trajectories are
// comparable across PRs.  from_json() restores a report, which is how the
// tests prove the schema round-trips.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "des/kernel.hpp"
#include "net/channel.hpp"
#include "obs/dist_sketch.hpp"
#include "obs/json.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault.hpp"
#include "runtime/phase_timer.hpp"
#include "spec/stats.hpp"

namespace specomp::obs {

inline constexpr const char* kRunReportSchema = "specomp.run_report.v2";
/// Current document version; from_json() also accepts v1 documents (which
/// simply lack the "distributions" section) and rejects anything newer or
/// unknown with a clear error.  The optional "des" and "faults" sections
/// are additive: documents without them load with the fields unset.
inline constexpr int kRunReportVersion = 2;
inline constexpr const char* kRunReportSchemaV1 = "specomp.run_report.v1";

struct RunReport {
  // ---- Identity & configuration ----
  std::string binary;              // emitting program, e.g. "nbody_sim"
  std::string backend = "sim";     // "sim" or "thread"
  std::string algorithm;           // e.g. "speculative", "fig7-baseline"
  std::string speculator;          // empty when not speculating
  int forward_window = 0;          // FW
  double theta = 0.0;              // θ
  long iterations = 0;
  std::size_t ranks = 0;
  /// Cluster shape: per-rank capacity M_i in ops/s, fastest first.
  std::vector<double> cluster_ops_per_sec;

  // ---- Timing (Table 2) ----
  double makespan_seconds = 0.0;
  struct PhaseRow {
    std::string phase;             // runtime::phase_name()
    double total_seconds = 0.0;    // summed over all ranks
    double mean_per_iteration_seconds = 0.0;  // total / (ranks * iterations)
  };
  std::vector<PhaseRow> phases;

  // ---- Speculation outcome (Table 3) ----
  std::uint64_t blocks_received_in_time = 0;
  std::uint64_t blocks_speculated = 0;
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::uint64_t incremental_corrections = 0;
  std::uint64_t replayed_iterations = 0;
  std::uint64_t rollbacks = 0;
  double failure_fraction = 0.0;   // the paper's k
  double error_mean = 0.0;
  double error_max = 0.0;
  int max_window_used = 0;
  // Adaptive-control observables (DESIGN.md §13); degenerate for fixed runs
  // (cascade 0, θ range collapsed to the configured threshold).
  int max_cascade_depth = 0;
  double theta_min_used = 0.0;
  double theta_max_used = 0.0;
  std::uint64_t theta_adjustments = 0;

  // ---- Network totals ----
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double mean_delay_seconds = 0.0;

  // ---- Observed distributions (schema v2) ----
  /// One summary row per DistSketch the run recorded (per-link delivery
  /// delay, per-rank service time); empty when SimConfig::record_dists was
  /// off.  Rows carry the sketch's summary statistics, not its internal
  /// marker state, so documents round-trip exactly.
  struct DistRow {
    std::string name;              // e.g. "link_delay.0->2", "service.rank1"
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<DistRow> distributions;

  // ---- DES kernel totals (optional) ----
  struct DesTotals {
    std::uint64_t events_executed = 0;
    std::uint64_t queue_peak = 0;
  };
  /// Set by fill_des for simulated runs; absent for the thread backend.
  std::optional<DesTotals> des;

  // ---- Fault injection (optional) ----
  /// Every FaultStats counter; set only when a fault plan was armed, so
  /// fault-free runs carry no all-zero "faults" section.
  std::optional<runtime::FaultStats> faults;

  /// Free-form per-binary additions, emitted under "extra".
  Json extra;

  // ---- Fillers ----

  /// Phase totals summed across `timers`, means divided by ranks*iterations
  /// — the same arithmetic the ASCII per-phase printouts use.
  void fill_phases(const std::vector<runtime::PhaseTimer>& timers,
                   long run_iterations);
  void fill_spec(const spec::SpecStats& stats);
  void fill_channel(const net::ChannelStats& stats);
  void fill_cluster(const runtime::Cluster& cluster);
  /// Summarises SimResult::dists into `distributions`.
  void fill_dists(const std::vector<NamedDist>& dists);
  void fill_des(const des::KernelStats& stats);
  /// Records `stats` when `plan` is armed (non-null); leaves `faults` unset
  /// otherwise.
  void fill_faults(const runtime::FaultPlan* plan,
                   const runtime::FaultStats& stats);

  /// Mean per-iteration seconds recorded for `phase` (0 when absent).
  double phase_mean_per_iteration(const std::string& phase) const;

  Json to_json() const;
  static RunReport from_json(const Json& doc);

  /// Serialises to `path` (pretty-printed); returns false on I/O failure.
  bool write(const std::string& path) const;
};

/// The "faults" object: one key per FaultStats counter.  Also used by
/// drivers that report faults in a bench-report envelope.
Json fault_stats_to_json(const runtime::FaultStats& stats);

}  // namespace specomp::obs
