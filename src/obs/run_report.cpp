#include "obs/run_report.hpp"

#include <stdexcept>

#include "obs/atomic_file.hpp"

namespace specomp::obs {

void RunReport::fill_phases(const std::vector<runtime::PhaseTimer>& timers,
                            long run_iterations) {
  phases.clear();
  ranks = timers.size();
  iterations = run_iterations;
  const double denom =
      static_cast<double>(timers.size()) *
      static_cast<double>(run_iterations > 0 ? run_iterations : 1);
  for (std::size_t p = 0; p < static_cast<std::size_t>(runtime::Phase::kCount);
       ++p) {
    const auto phase = static_cast<runtime::Phase>(p);
    double total = 0.0;
    for (const auto& timer : timers) total += timer.get(phase).to_seconds();
    PhaseRow row;
    row.phase = runtime::phase_name(phase);
    row.total_seconds = total;
    row.mean_per_iteration_seconds = total / denom;
    phases.push_back(std::move(row));
  }
}

void RunReport::fill_spec(const spec::SpecStats& stats) {
  blocks_received_in_time = stats.blocks_received_in_time;
  blocks_speculated = stats.blocks_speculated;
  checks = stats.checks;
  failures = stats.failures;
  incremental_corrections = stats.incremental_corrections;
  replayed_iterations = stats.replayed_iterations;
  rollbacks = stats.rollbacks;
  failure_fraction = stats.failure_fraction();
  error_mean = stats.checks > 0 ? stats.error.mean() : 0.0;
  error_max = stats.checks > 0 ? stats.error.max() : 0.0;
  max_window_used = stats.max_window_used;
  max_cascade_depth = stats.max_cascade_depth;
  theta_min_used = stats.theta_min_used;
  theta_max_used = stats.theta_max_used;
  theta_adjustments = stats.theta_adjustments;
}

void RunReport::fill_channel(const net::ChannelStats& stats) {
  messages = stats.messages;
  bytes = stats.bytes;
  mean_delay_seconds = stats.messages > 0 ? stats.delay_seconds.mean() : 0.0;
}

void RunReport::fill_cluster(const runtime::Cluster& cluster) {
  cluster_ops_per_sec.clear();
  for (const auto& machine : cluster.machines())
    cluster_ops_per_sec.push_back(machine.ops_per_sec);
}

void RunReport::fill_dists(const std::vector<NamedDist>& dists) {
  distributions.clear();
  distributions.reserve(dists.size());
  for (const auto& nd : dists) {
    DistRow row;
    row.name = nd.name;
    row.count = nd.sketch.count();
    row.mean = nd.sketch.mean();
    row.min = nd.sketch.min();
    row.max = nd.sketch.max();
    row.p50 = nd.sketch.quantile(0.5);
    row.p90 = nd.sketch.quantile(0.9);
    row.p99 = nd.sketch.quantile(0.99);
    distributions.push_back(std::move(row));
  }
}

void RunReport::fill_des(const des::KernelStats& stats) {
  des = DesTotals{stats.events_executed, stats.queue_peak};
}

void RunReport::fill_faults(const runtime::FaultPlan* plan,
                            const runtime::FaultStats& stats) {
  if (plan != nullptr) faults = stats;
}

Json fault_stats_to_json(const runtime::FaultStats& stats) {
  Json out = Json::object();
  out.set("injected_drops", stats.injected_drops);
  out.set("retransmits", stats.retransmits);
  out.set("messages_lost", stats.messages_lost);
  out.set("injected_duplicates", stats.injected_duplicates);
  out.set("duplicates_suppressed", stats.duplicates_suppressed);
  out.set("injected_reorders", stats.injected_reorders);
  out.set("slowdown_charges", stats.slowdown_charges);
  out.set("stalls", stats.stalls);
  out.set("crashed_ranks", stats.crashed_ranks);
  return out;
}

double RunReport::phase_mean_per_iteration(const std::string& phase) const {
  for (const auto& row : phases)
    if (row.phase == phase) return row.mean_per_iteration_seconds;
  return 0.0;
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kRunReportSchema);
  doc.set("schema_version", kRunReportVersion);
  doc.set("binary", binary);

  Json config = Json::object();
  config.set("backend", backend);
  config.set("algorithm", algorithm);
  config.set("speculator", speculator);
  config.set("forward_window", forward_window);
  config.set("theta", theta);
  config.set("iterations", iterations);
  config.set("ranks", ranks);
  Json shape = Json::array();
  for (const double m : cluster_ops_per_sec) shape.push_back(m);
  config.set("cluster_ops_per_sec", std::move(shape));
  doc.set("config", std::move(config));

  Json timing = Json::object();
  timing.set("makespan_seconds", makespan_seconds);
  Json phase_rows = Json::array();
  for (const auto& row : phases) {
    Json r = Json::object();
    r.set("phase", row.phase);
    r.set("total_seconds", row.total_seconds);
    r.set("mean_per_iteration_seconds", row.mean_per_iteration_seconds);
    phase_rows.push_back(std::move(r));
  }
  timing.set("phases", std::move(phase_rows));
  doc.set("timing", std::move(timing));

  Json spec = Json::object();
  spec.set("blocks_received_in_time", blocks_received_in_time);
  spec.set("blocks_speculated", blocks_speculated);
  spec.set("checks", checks);
  spec.set("failures", failures);
  spec.set("incremental_corrections", incremental_corrections);
  spec.set("replayed_iterations", replayed_iterations);
  spec.set("rollbacks", rollbacks);
  spec.set("failure_fraction", failure_fraction);
  spec.set("error_mean", error_mean);
  spec.set("error_max", error_max);
  spec.set("max_window_used", max_window_used);
  spec.set("max_cascade_depth", max_cascade_depth);
  spec.set("theta_min_used", theta_min_used);
  spec.set("theta_max_used", theta_max_used);
  spec.set("theta_adjustments", theta_adjustments);
  doc.set("speculation", std::move(spec));

  Json comm = Json::object();
  comm.set("messages", messages);
  comm.set("bytes", bytes);
  comm.set("mean_delay_seconds", mean_delay_seconds);
  doc.set("network", std::move(comm));

  if (!distributions.empty()) {
    Json rows = Json::array();
    for (const auto& d : distributions) {
      Json r = Json::object();
      r.set("name", d.name);
      r.set("count", d.count);
      r.set("mean", d.mean);
      r.set("min", d.min);
      r.set("max", d.max);
      r.set("p50", d.p50);
      r.set("p90", d.p90);
      r.set("p99", d.p99);
      rows.push_back(std::move(r));
    }
    doc.set("distributions", std::move(rows));
  }

  if (des) {
    Json d = Json::object();
    d.set("events_executed", des->events_executed);
    d.set("queue_peak", des->queue_peak);
    doc.set("des", std::move(d));
  }
  if (faults) doc.set("faults", fault_stats_to_json(*faults));

  if (!extra.is_null()) doc.set("extra", extra);
  return doc;
}

RunReport RunReport::from_json(const Json& doc) {
  if (!doc.is_object()) throw std::runtime_error("RunReport: not an object");
  const std::string schema = doc.at("schema").as_string();
  // v1 documents predate schema_version and the distributions section; they
  // load fine.  Anything else is a different or newer artifact — fail with
  // the identity so the caller knows what it actually read.
  if (schema != kRunReportSchema && schema != kRunReportSchemaV1) {
    throw std::runtime_error(
        "RunReport: incompatible schema \"" + schema + "\" (this build reads " +
        kRunReportSchema + " and " + kRunReportSchemaV1 + ")");
  }
  if (const Json* v = doc.find("schema_version");
      v != nullptr && v->as_int() > kRunReportVersion) {
    throw std::runtime_error(
        "RunReport: document schema_version " + std::to_string(v->as_int()) +
        " is newer than this build supports (" +
        std::to_string(kRunReportVersion) + ")");
  }
  RunReport report;
  report.binary = doc.at("binary").as_string();

  const Json& config = doc.at("config");
  report.backend = config.at("backend").as_string();
  report.algorithm = config.at("algorithm").as_string();
  report.speculator = config.at("speculator").as_string();
  report.forward_window = static_cast<int>(config.at("forward_window").as_int());
  report.theta = config.at("theta").as_double();
  report.iterations = static_cast<long>(config.at("iterations").as_int());
  report.ranks = static_cast<std::size_t>(config.at("ranks").as_uint());
  for (const Json& m : config.at("cluster_ops_per_sec").as_array())
    report.cluster_ops_per_sec.push_back(m.as_double());

  const Json& timing = doc.at("timing");
  report.makespan_seconds = timing.at("makespan_seconds").as_double();
  for (const Json& r : timing.at("phases").as_array()) {
    PhaseRow row;
    row.phase = r.at("phase").as_string();
    row.total_seconds = r.at("total_seconds").as_double();
    row.mean_per_iteration_seconds =
        r.at("mean_per_iteration_seconds").as_double();
    report.phases.push_back(std::move(row));
  }

  const Json& spec = doc.at("speculation");
  report.blocks_received_in_time = spec.at("blocks_received_in_time").as_uint();
  report.blocks_speculated = spec.at("blocks_speculated").as_uint();
  report.checks = spec.at("checks").as_uint();
  report.failures = spec.at("failures").as_uint();
  report.incremental_corrections = spec.at("incremental_corrections").as_uint();
  report.replayed_iterations = spec.at("replayed_iterations").as_uint();
  report.failure_fraction = spec.at("failure_fraction").as_double();
  report.error_mean = spec.at("error_mean").as_double();
  report.error_max = spec.at("error_max").as_double();
  report.max_window_used = static_cast<int>(spec.at("max_window_used").as_int());
  // Fields added with the adaptive controllers (DESIGN.md §13); absent in
  // reports written before them.
  if (const Json* v = spec.find("rollbacks")) report.rollbacks = v->as_uint();
  if (const Json* v = spec.find("max_cascade_depth"))
    report.max_cascade_depth = static_cast<int>(v->as_int());
  if (const Json* v = spec.find("theta_min_used"))
    report.theta_min_used = v->as_double();
  if (const Json* v = spec.find("theta_max_used"))
    report.theta_max_used = v->as_double();
  if (const Json* v = spec.find("theta_adjustments"))
    report.theta_adjustments = v->as_uint();

  const Json& comm = doc.at("network");
  report.messages = comm.at("messages").as_uint();
  report.bytes = comm.at("bytes").as_uint();
  report.mean_delay_seconds = comm.at("mean_delay_seconds").as_double();

  if (const Json* dists = doc.find("distributions")) {
    for (const Json& r : dists->as_array()) {
      DistRow row;
      row.name = r.at("name").as_string();
      row.count = r.at("count").as_uint();
      row.mean = r.at("mean").as_double();
      row.min = r.at("min").as_double();
      row.max = r.at("max").as_double();
      row.p50 = r.at("p50").as_double();
      row.p90 = r.at("p90").as_double();
      row.p99 = r.at("p99").as_double();
      report.distributions.push_back(std::move(row));
    }
  }

  if (const Json* d = doc.find("des")) {
    report.des = DesTotals{d->at("events_executed").as_uint(),
                           d->at("queue_peak").as_uint()};
  }
  if (const Json* f = doc.find("faults")) {
    runtime::FaultStats& fs = report.faults.emplace();
    fs.injected_drops = f->at("injected_drops").as_uint();
    fs.retransmits = f->at("retransmits").as_uint();
    fs.messages_lost = f->at("messages_lost").as_uint();
    fs.injected_duplicates = f->at("injected_duplicates").as_uint();
    fs.duplicates_suppressed = f->at("duplicates_suppressed").as_uint();
    fs.injected_reorders = f->at("injected_reorders").as_uint();
    fs.slowdown_charges = f->at("slowdown_charges").as_uint();
    fs.stalls = f->at("stalls").as_uint();
    fs.crashed_ranks = f->at("crashed_ranks").as_uint();
  }

  if (const Json* extra = doc.find("extra")) report.extra = *extra;
  return report;
}

bool RunReport::write(const std::string& path) const {
  return atomic_write_file(path, to_json().dump(2) + "\n");
}

}  // namespace specomp::obs
