// Speculation beyond N-body: the two PDE-flavoured applications.
//
//   $ ./examples/heat_jacobi [--p 8] [--iterations 50]
//
// Solves a dense linear system by Jacobi iteration and integrates a 1-D
// heat equation, each with and without speculation, and reports time,
// accuracy and speculation statistics — the paper's generality claim in
// executable form.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/heat.hpp"
#include "apps/jacobi.hpp"
#include "obs/artifacts.hpp"
#include "spec/adaptive.hpp"
#include "runtime/collective_algo.hpp"
#include "runtime/fault.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace specomp;
using namespace specomp::apps;

namespace {

constexpr std::size_t kJacobiUnknowns = 512;
constexpr std::size_t kHeatCells = 1024;

runtime::SimConfig latency_bound_network(std::size_t p) {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::linear(p, 1e6, 4.0);
  config.channel.propagation = des::SimTime::millis(80);
  config.channel.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(15));
  config.send_sw_time = des::SimTime::millis(1);
  return config;
}

// Every rank needs at least one Jacobi unknown and one heat cell under the
// capacity-proportional partition.
bool starves(std::size_t p) {
  const runtime::Cluster cluster = latency_bound_network(p).cluster;
  for (const std::size_t items : {kJacobiUnknowns, kHeatCells}) {
    const auto counts = cluster.proportional_partition(items);
    if (std::find(counts.begin(), counts.end(), 0u) != counts.end())
      return true;
  }
  return false;
}

// Bad command-line input is a message and exit status 1, never a library
// precondition abort.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("heat_jacobi", cli);
  std::size_t max_p = 1;
  while (!starves(max_p + 1)) ++max_p;
  const std::int64_t p_arg = cli.get_int("p", 8);
  if (p_arg < 1 || static_cast<std::size_t>(p_arg) > max_p)
    return usage_error("--p=" + std::to_string(p_arg) +
                       " out of range (want 1.." + std::to_string(max_p) +
                       " so every rank gets rows)");
  const auto p = static_cast<std::size_t>(p_arg);
  const long iterations = cli.get_int("iterations", 50);
  if (iterations < 1)
    return usage_error("--iterations=" + std::to_string(iterations) +
                       " out of range (want >= 1)");

  // Fault injection (DESIGN.md §9): --fault-plan=drop:0.05,... injects
  // deterministic faults on every run below and arms the engine's graceful
  // degradation so overdue halos are speculated past FW instead of stalling.
  // Collective-algorithm selection (runtime/collective_algo.hpp): routes
  // the backends' barriers and any collectives through flat linear or
  // logarithmic tree algorithms.  Auto defers to the size heuristic.
  const std::string collective_arg = cli.get("collective", "auto");
  const auto parsed_collective = runtime::parse_collective_algo(collective_arg);
  if (!parsed_collective)
    return usage_error("unknown --collective '" + collective_arg +
                       "' (want flat|tree|auto)");
  const runtime::CollectiveAlgo collective = *parsed_collective;
  runtime::set_default_collective_algo(collective);

  // Run-time controllers (DESIGN.md §13): applied to the speculative (FW>0)
  // rows of both apps.  Fail fast on unknown names.
  const std::string window_policy_arg = cli.get("window-policy", "static");
  const std::string theta_policy_arg = cli.get("theta-policy", "static");
  if (!spec::parse_window_policy(window_policy_arg)) {
    std::fprintf(stderr,
                 "error: unknown --window-policy '%s' (want "
                 "static|heuristic|hill-climb|model)\n",
                 window_policy_arg.c_str());
    return 1;
  }
  if (!spec::parse_theta_policy(theta_policy_arg)) {
    std::fprintf(stderr,
                 "error: unknown --theta-policy '%s' (want static|adaptive)\n",
                 theta_policy_arg.c_str());
    return 1;
  }
  const std::string window_policy =
      window_policy_arg == "static" ? "" : window_policy_arg;
  const std::string theta_policy =
      theta_policy_arg == "static" ? "" : theta_policy_arg;

  runtime::FaultPlanPtr fault;
  const std::string fault_spec = cli.get("fault-plan", "");
  if (!fault_spec.empty()) {
    runtime::FaultPlanConfig fault_config;
    // The modelled LAN delivers in ~80-100 ms; a 1 s ARQ timeout makes a
    // retransmitted halo clearly late without freezing the pipeline.
    fault_config.retransmit_timeout_seconds = 1.0;
    fault_config.seed =
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 0xfa017));
    std::string fault_error;
    if (!runtime::parse_fault_plan(fault_spec, fault_config, fault_error)) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   fault_error.c_str());
      return 1;
    }
    fault =
        std::make_shared<const runtime::FaultPlan>(std::move(fault_config));
  }
  runtime::FaultStats fault_total;
  std::uint64_t degraded_entries = 0;
  std::uint64_t degraded_iterations = 0;

  support::Table results({"app", "fw", "makespan_s", "accuracy", "k_percent"});

  std::printf("== Jacobi solver, %zu unknowns, %zu processors ==\n",
              kJacobiUnknowns, p);
  for (const int fw : {0, 1}) {
    JacobiScenario s;
    s.n = kJacobiUnknowns;
    s.iterations = iterations;
    s.forward_window = fw;
    s.theta = 1e-3;
    s.sim = latency_bound_network(p);
    s.sim.collective = collective;
    s.sim.hb_check = cli.get_bool("hb-check");
    s.sim.fault = fault;
    s.graceful_degradation = fault != nullptr;
    if (fw > 0) {
      s.window_policy = window_policy;
      s.theta_policy = theta_policy;
    }
    const JacobiRunResult run = run_jacobi_scenario(s);
    fault_total.merge(run.sim.fault_stats);
    degraded_entries += run.spec.degraded_entries;
    degraded_iterations += run.spec.degraded_iterations;
    std::printf(
        "  FW=%d: %6.2f s, residual %.2e, k = %.1f%% (%llu corrections)\n",
        fw, run.sim.makespan_seconds, run.residual,
        run.spec.failure_fraction() * 100.0,
        static_cast<unsigned long long>(run.spec.incremental_corrections));
    results.row()
        .add("jacobi")
        .add(fw)
        .add(run.sim.makespan_seconds)
        .add(run.residual, 6)
        .add(run.spec.failure_fraction() * 100.0, 2);
  }

  // The heat stencil computes so little per iteration that one iteration of
  // slack cannot hide an 80 ms latency — FW = 2 pipelines two of them and
  // wins big, a nice illustration of choosing FW from the comm/comp ratio.
  std::printf("\n== 1-D heat diffusion, %zu cells, %zu processors ==\n",
              kHeatCells, p);
  for (const int fw : {0, 1, 2}) {
    HeatScenario s;
    s.problem.n = kHeatCells;
    s.iterations = iterations;
    s.forward_window = fw;
    s.theta = 1e-4;
    s.sim = latency_bound_network(p);
    s.sim.collective = collective;
    s.sim.record_trace = fw == 2 && artifacts.wants_trace();
    s.sim.hb_check = cli.get_bool("hb-check");
    s.sim.fault = fault;
    s.graceful_degradation = fault != nullptr;
    if (fw > 0) {
      s.window_policy = window_policy;
      s.theta_policy = theta_policy;
    }
    const HeatRunResult run = run_heat_scenario(s);
    fault_total.merge(run.sim.fault_stats);
    degraded_entries += run.spec.degraded_entries;
    degraded_iterations += run.spec.degraded_iterations;
    const auto serial = serial_heat(s.problem, s.iterations);
    double deviation = 0.0;
    for (std::size_t i = 0; i < serial.size(); ++i)
      deviation = std::max(deviation, std::fabs(run.field[i] - serial[i]));
    std::printf(
        "  FW=%d: %6.2f s, max deviation from serial %.2e, k = %.1f%%\n", fw,
        run.sim.makespan_seconds, deviation,
        run.spec.failure_fraction() * 100.0);
    results.row()
        .add("heat")
        .add(fw)
        .add(run.sim.makespan_seconds)
        .add(deviation, 6)
        .add(run.spec.failure_fraction() * 100.0, 2);
    if (s.sim.record_trace) artifacts.set_trace(run.sim.trace, p);
  }

  std::printf(
      "\nthe same SpecEngine drives N-body, Jacobi and the heat stencil — "
      "only pack/compute/error/correct hooks differ per application.\n");

  if (fault != nullptr) {
    std::printf(
        "\nfaults (all runs): %llu drops (%llu retransmits, %llu lost), "
        "%llu dups (%llu suppressed), %llu reorders; degraded mode entered "
        "%llu times, %llu iterations computed past FW\n",
        static_cast<unsigned long long>(fault_total.injected_drops),
        static_cast<unsigned long long>(fault_total.retransmits),
        static_cast<unsigned long long>(fault_total.messages_lost),
        static_cast<unsigned long long>(fault_total.injected_duplicates),
        static_cast<unsigned long long>(fault_total.duplicates_suppressed),
        static_cast<unsigned long long>(fault_total.injected_reorders),
        static_cast<unsigned long long>(degraded_entries),
        static_cast<unsigned long long>(degraded_iterations));
  }

  artifacts.add_table("heat_jacobi", results);
  artifacts.add_entry("processors", obs::Json(p));
  artifacts.add_entry("iterations", obs::Json(iterations));
  artifacts.add_entry("window_policy", obs::Json(window_policy_arg));
  artifacts.add_entry("theta_policy", obs::Json(theta_policy_arg));
  if (fault != nullptr) {
    artifacts.add_entry("fault_plan", obs::Json(fault_spec));
    artifacts.add_entry("faults", obs::fault_stats_to_json(fault_total));
    artifacts.add_entry("degraded_entries", obs::Json(degraded_entries));
    artifacts.add_entry("degraded_iterations",
                        obs::Json(degraded_iterations));
  }
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());
  return artifacts.flush() ? 0 : 1;
}
