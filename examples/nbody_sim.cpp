// Full N-body reproduction driver with command-line control.
//
//   $ ./examples/nbody_sim --p 16 --fw 1 --theta 0.01 --iterations 10
//   $ ./examples/nbody_sim --p 8 --fw 2 --init disk --speculator quadratic
//
// Runs the paper's Section-5 case study on the calibrated simulated testbed
// and reports per-phase times, speculation statistics, speedup against the
// fastest single machine, and physics diagnostics (energy drift, momentum).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "nbody/energy.hpp"
#include "nbody/init.hpp"
#include "nbody/integrators/integrator.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "nbody/scenario.hpp"
#include "obs/artifacts.hpp"
#include "runtime/collective_algo.hpp"
#include "runtime/fault.hpp"
#include "support/cli.hpp"

namespace {

// Bad command-line input is a message and exit status 1, never a library
// precondition abort.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace specomp;
  using namespace specomp::nbody;
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("nbody_sim", cli);

  const std::size_t fleet = runtime::Cluster::paper_fleet().size();
  const std::int64_t p = cli.get_int("p", 16);
  if (p < 1 || static_cast<std::size_t>(p) > fleet)
    return usage_error("--p=" + std::to_string(p) + " out of range (want 1.." +
                       std::to_string(fleet) + ", the paper testbed's size)");
  const std::int64_t iterations = cli.get_int("iterations", 10);
  if (iterations < 1)
    return usage_error("--iterations=" + std::to_string(iterations) +
                       " out of range (want >= 1)");
  NBodyScenario s = paper_testbed_scenario(
      static_cast<std::size_t>(p), iterations,
      static_cast<std::uint64_t>(cli.get_int("seed", 0x5eedc0ffee)));
  // Every rank needs at least one body under the capacity-proportional
  // partition.
  const auto starves = [&](std::size_t n) {
    const auto counts = s.sim.cluster.proportional_partition(n);
    return std::find(counts.begin(), counts.end(), 0u) != counts.end();
  };
  std::size_t min_n = 1;
  while (starves(min_n)) ++min_n;
  const std::int64_t n = cli.get_int("n", 1000);
  if (n < 1 || starves(static_cast<std::size_t>(n)))
    return usage_error("--n=" + std::to_string(n) + " out of range for --p=" +
                       std::to_string(p) + " (want >= " +
                       std::to_string(min_n) + " so every rank gets a body)");
  s.body.n = static_cast<std::size_t>(n);
  s.body.dt = cli.get_double("dt", s.body.dt);
  s.forward_window = static_cast<int>(cli.get_int("fw", 1));
  if (s.forward_window < 0)
    return usage_error("--fw=" + std::to_string(s.forward_window) +
                       " out of range (want >= 0)");
  s.theta = cli.get_double("theta", 0.01);
  if (!(s.theta >= 0.0))
    return usage_error("--theta=" + cli.get("theta", "") +
                       " out of range (want >= 0)");
  s.speculator = cli.get("speculator", "kinematic");
  // Run-time controllers (DESIGN.md §13).  Fail fast on unknown names: a
  // silently ignored policy would taint a whole measurement campaign.
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
  if (window_policy_arg != "static") s.window_policy = window_policy_arg;
  if (theta_policy_arg != "static") {
    if (s.theta <= 0.0) {
      std::fprintf(stderr,
                   "error: --theta-policy=%s needs --theta > 0 (the initial "
                   "threshold the controller adapts from)\n",
                   theta_policy_arg.c_str());
      return 1;
    }
    s.theta_policy = theta_policy_arg;
  }
  if (cli.get_bool("baseline")) s.algorithm = Algorithm::Fig7Baseline;
  const std::string init = cli.get("init", "plummer");
  if (init == "plummer")
    s.body.init = InitKind::Plummer;
  else if (init == "cube")
    s.body.init = InitKind::UniformCube;
  else if (init == "disk")
    s.body.init = InitKind::RotatingDisk;
  else
    return usage_error("unknown --init '" + init +
                       "' (want plummer|cube|disk)");
  s.sim.record_trace = artifacts.wants_trace();
  // Distribution capture is cheap (fixed-size sketches) but only useful to
  // a report reader, so it follows --report-out.
  s.sim.record_dists = artifacts.wants_report();
  // Happens-before detector (needs a -DSPECOMP_HB_CHECK=ON build; see
  // runtime/hb_check.hpp).  Aborts with a causal-path diagnostic on any
  // unsynchronized delivery instead of silently corrupting the measurement.
  s.sim.hb_check = cli.get_bool("hb-check");
  // Fault injection (DESIGN.md §9): --fault-plan=drop:0.05,... arms the
  // deterministic FaultPlan on every link and switches the engine into
  // graceful degradation so overdue peers are masked by speculation rather
  // than blocking the pipeline.
  const std::string fault_spec = cli.get("fault-plan", "");
  if (!fault_spec.empty()) {
    runtime::FaultPlanConfig fault_config;
    // Healthy round trips on the calibrated testbed are ~6 s; size the ARQ
    // backoff so a retransmitted block is late, not geologically late.
    fault_config.retransmit_timeout_seconds = 4.0;
    fault_config.seed =
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 0xfa017));
    std::string fault_error;
    if (!runtime::parse_fault_plan(fault_spec, fault_config, fault_error)) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   fault_error.c_str());
      return 1;
    }
    s.sim.fault =
        std::make_shared<const runtime::FaultPlan>(std::move(fault_config));
    s.graceful_degradation = true;
  }
  // --kernel and --bh-theta fail fast: a silently ignored tier (or an
  // opening angle that cannot influence the forced kernel) would taint a
  // whole measurement campaign.
  const std::string kernel_arg = cli.get("kernel", "auto");
  std::string cli_error;
  const auto kernel = kernels::parse_force_kernel_cli(kernel_arg, cli_error);
  if (!kernel) {
    std::fprintf(stderr, "error: %s\n", cli_error.c_str());
    return 1;
  }
  kernels::set_default_force_kernel(*kernel);
  if (cli.has("bh-theta") && !kernels::kernel_uses_bh_theta(*kernel)) {
    std::fprintf(stderr,
                 "error: --bh-theta only affects the Barnes-Hut tier, but "
                 "--kernel=%s never runs it (use --kernel=tree or auto)\n",
                 kernel_arg.c_str());
    return 1;
  }
  kernels::set_bh_opening_angle(
      cli.get_double("bh-theta", kernels::bh_opening_angle()));
  s.body.integrator = cli.get("integrator", s.body.integrator);
  if (!integrators::make_integrator_cli(s.body.integrator, cli_error)) {
    std::fprintf(stderr, "error: %s\n", cli_error.c_str());
    return 1;
  }
  const std::string collective_arg = cli.get("collective", "auto");
  const auto collective = runtime::parse_collective_algo(collective_arg);
  if (!collective)
    return usage_error("unknown --collective '" + collective_arg +
                       "' (want flat|tree|auto)");
  runtime::set_default_collective_algo(*collective);
  s.sim.collective = *collective;
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());

  const auto initial = make_initial_conditions(s.body);
  const Diagnostics before = compute_diagnostics(initial, s.body.softening2);

  const NBodyRunResult run = run_scenario(s);

  // Speedup baseline: same workload on the fastest machine alone.  Always
  // fault-free — faults degrade the parallel run, not the yardstick.
  NBodyScenario serial = s;
  serial.sim.cluster = runtime::Cluster::paper_fleet().prefix(1);
  serial.algorithm = Algorithm::Speculative;
  serial.forward_window = 0;
  serial.sim.fault = nullptr;
  serial.graceful_degradation = false;
  const double t1 = run_scenario(serial).sim.makespan_seconds;

  const Diagnostics after =
      compute_diagnostics(run.final_particles, s.body.softening2);

  std::printf("N-body: %zu particles, %zu processors, FW=%d, theta=%g, %s\n",
              s.body.n, s.sim.cluster.size(), s.forward_window, s.theta,
              s.algorithm == Algorithm::Fig7Baseline ? "Fig.7 baseline"
                                                     : "speculative engine");
  std::printf("\nper-iteration phase times (mean over ranks):\n");
  std::printf("  compute      %8.3f s\n", run.mean_compute_per_iteration);
  std::printf("  communicate  %8.3f s\n", run.mean_comm_per_iteration);
  std::printf("  speculate    %8.3f s\n", run.mean_speculate_per_iteration);
  std::printf("  check        %8.3f s\n", run.mean_check_per_iteration);
  std::printf("  correct      %8.3f s\n", run.mean_correct_per_iteration);
  std::printf("  -- makespan  %8.3f s  (%.3f s per iteration)\n",
              run.sim.makespan_seconds, run.time_per_iteration);
  std::printf("\nspeculation: %llu speculated, %llu checked, %llu failed "
              "(k = %.2f%%), %llu corrected in place, %llu iterations replayed\n",
              static_cast<unsigned long long>(run.spec.blocks_speculated),
              static_cast<unsigned long long>(run.spec.checks),
              static_cast<unsigned long long>(run.spec.failures),
              run.spec.failure_fraction() * 100.0,
              static_cast<unsigned long long>(run.spec.incremental_corrections),
              static_cast<unsigned long long>(run.spec.replayed_iterations));
  if (run.spec.checks > 0)
    std::printf("  speculation error: mean %.2e, max %.2e (threshold %g)\n",
                run.spec.error.mean(), run.spec.error.max(), s.theta);
  if (!s.window_policy.empty() || !s.theta_policy.empty()) {
    std::printf(
        "adaptive control: policy %s/%s, max window used %d, theta range "
        "[%g, %g] (%llu adjustments), max cascade depth %d\n",
        s.window_policy.empty() ? "static" : s.window_policy.c_str(),
        s.theta_policy.empty() ? "static" : s.theta_policy.c_str(),
        run.spec.max_window_used, run.spec.theta_min_used,
        run.spec.theta_max_used,
        static_cast<unsigned long long>(run.spec.theta_adjustments),
        run.spec.max_cascade_depth);
  }
  std::printf("\nspeedup vs fastest single machine: %.2f (max attainable %.2f)\n",
              t1 / run.sim.makespan_seconds,
              s.sim.cluster.max_speedup());
  std::printf("\nphysics: energy %+.6f -> %+.6f (drift %.3f%%), |momentum| %.2e\n",
              before.total_energy(), after.total_energy(),
              std::fabs(after.total_energy() - before.total_energy()) /
                  std::fabs(before.total_energy()) * 100.0,
              after.momentum.norm());
  std::printf("network: %llu messages, %.1f MB, mean delay %.3f s\n",
              static_cast<unsigned long long>(run.sim.channel_stats.messages),
              static_cast<double>(run.sim.channel_stats.bytes) / 1e6,
              run.sim.channel_stats.delay_seconds.mean());
  if (s.sim.fault != nullptr) {
    const runtime::FaultStats& fs = run.sim.fault_stats;
    std::printf(
        "faults: %llu drops (%llu retransmits, %llu lost), %llu dups "
        "(%llu suppressed), %llu reorders, %llu slowdowns, %llu stalls, "
        "%llu crashed ranks\n",
        static_cast<unsigned long long>(fs.injected_drops),
        static_cast<unsigned long long>(fs.retransmits),
        static_cast<unsigned long long>(fs.messages_lost),
        static_cast<unsigned long long>(fs.injected_duplicates),
        static_cast<unsigned long long>(fs.duplicates_suppressed),
        static_cast<unsigned long long>(fs.injected_reorders),
        static_cast<unsigned long long>(fs.slowdown_charges),
        static_cast<unsigned long long>(fs.stalls),
        static_cast<unsigned long long>(fs.crashed_ranks));
    std::printf(
        "degraded mode: entered %llu times, %llu iterations computed past "
        "FW\n",
        static_cast<unsigned long long>(run.spec.degraded_entries),
        static_cast<unsigned long long>(run.spec.degraded_iterations));
  }

  obs::RunReport report;
  report.binary = "nbody_sim";
  report.algorithm = s.algorithm == Algorithm::Fig7Baseline ? "fig7-baseline"
                                                            : "speculative";
  report.speculator = s.forward_window > 0 ? s.speculator : "";
  report.forward_window = s.forward_window;
  report.theta = s.theta;
  report.iterations = s.iterations;
  report.makespan_seconds = run.sim.makespan_seconds;
  report.fill_cluster(s.sim.cluster);
  report.fill_phases(run.sim.timers, s.iterations);
  report.fill_spec(run.spec);
  report.fill_channel(run.sim.channel_stats);
  report.fill_dists(run.sim.dists);
  report.fill_des(run.sim.kernel_stats);
  report.fill_faults(s.sim.fault.get(), run.sim.fault_stats);
  report.extra.set("bodies", obs::Json(s.body.n));
  report.extra.set("force_kernel",
                   obs::Json(std::string(kernels::force_kernel_name(
                       kernels::default_force_kernel()))));
  report.extra.set("integrator", obs::Json(s.body.integrator));
  report.extra.set("collective",
                   obs::Json(std::string(runtime::collective_algo_name(
                       runtime::resolve_collective_algo(
                           s.sim.collective,
                           static_cast<int>(s.sim.cluster.size()))))));
  report.extra.set("window_policy",
                   obs::Json(s.window_policy.empty() ? std::string("static")
                                                     : s.window_policy));
  report.extra.set("theta_policy",
                   obs::Json(s.theta_policy.empty() ? std::string("static")
                                                    : s.theta_policy));
  report.extra.set("speedup_vs_single", obs::Json(t1 / run.sim.makespan_seconds));
  report.extra.set("energy_drift_fraction",
                   obs::Json(std::fabs(after.total_energy() - before.total_energy()) /
                             std::fabs(before.total_energy())));
  if (s.sim.fault != nullptr) {
    report.extra.set("fault_plan", obs::Json(fault_spec));
    report.extra.set("degraded_entries", obs::Json(run.spec.degraded_entries));
    report.extra.set("degraded_iterations",
                     obs::Json(run.spec.degraded_iterations));
  }
  artifacts.set_run_report(report);
  if (artifacts.wants_trace())
    artifacts.set_trace(run.sim.trace, s.sim.cluster.size());
  return artifacts.flush() ? 0 : 1;
}
