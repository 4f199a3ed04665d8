// Interactive exploration of the Section-4 performance model.
//
//   $ ./examples/model_explorer                      # paper defaults
//   $ ./examples/model_explorer --k 0.05 --ratio 4   # heavier errors, milder fleet
//   $ ./examples/model_explorer --fspec-ratio 100    # the paper's literal ratio
//
// Prints the speedup curves with/without speculation, the per-processor
// breakdown of eq. 8 at p = 16, and a k-sweep — useful for reasoning about
// when speculative computation pays off on a given platform.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "model/perf_model.hpp"
#include "obs/artifacts.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

/// Largest --procs accepted: the model is evaluated for every p up to it,
/// and 1024 is the largest cluster the simulator benches run.
constexpr std::int64_t kMaxProcs = 1024;

// Bad command-line input is a message and exit status 1, never a library
// precondition abort.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace specomp;
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("model_explorer", cli);

  const std::int64_t procs_arg = cli.get_int("procs", 16);
  if (procs_arg < 1 || procs_arg > kMaxProcs)
    return usage_error("--procs=" + std::to_string(procs_arg) +
                       " out of range (want 1.." + std::to_string(kMaxProcs) +
                       ")");
  const std::int64_t n = cli.get_int("n", 1000);
  if (n < 1)
    return usage_error("--n=" + std::to_string(n) +
                       " out of range (want >= 1)");

  model::ModelParams params = model::paper_figure5_params(cli.get_double("k", 0.02));
  params.total_variables = static_cast<std::size_t>(n);
  if (cli.has("fspec-ratio"))
    params.f_spec = params.f_comp / cli.get_double("fspec-ratio", 500.0);
  if (cli.has("fcheck-ratio"))
    params.f_check = params.f_comp / cli.get_double("fcheck-ratio", 250.0);
  const auto procs = static_cast<std::size_t>(procs_arg);
  params.cluster = runtime::Cluster::linear(
      procs, 12.0e6, cli.get_double("ratio", 10.0));
  const model::PerfModel perf(params);

  std::printf("model parameters: N=%zu f_comp=%g f_spec=%g f_check=%g k=%.1f%% "
              "t_comm(p)=%.4g+%.4gp\n\n",
              params.total_variables, params.f_comp, params.f_spec,
              params.f_check, params.k * 100.0, params.t_comm_base,
              params.t_comm_slope);

  support::Table speedups({"p", "no spec", "spec", "max", "gain %"});
  for (std::size_t p = 1; p <= procs; ++p)
    speedups.row()
        .add(p)
        .add(perf.speedup_no_spec(p), 2)
        .add(perf.speedup_spec(p), 2)
        .add(perf.max_speedup(p), 2)
        .add(perf.improvement(p) * 100.0, 1);
  std::cout << speedups << "\n";

  std::printf("per-processor iteration time at p = %zu (eq. 8 terms):\n\n", procs);
  support::Table breakdown({"i", "M_i", "N_i", "t_hat_i (s)"});
  for (std::size_t i = 0; i < procs; ++i)
    breakdown.row()
        .add(i + 1)
        .add(params.cluster.machine(i).ops_per_sec, 0)
        .add(perf.allocation(i, procs), 1)
        .add(perf.iteration_time_spec(i, procs), 4);
  std::cout << breakdown << "\n";

  std::printf("sensitivity to the recomputation fraction k at p = %zu:\n\n",
              procs == 1 ? 1 : procs / 2);
  const std::size_t half = procs == 1 ? 1 : procs / 2;
  support::Table ks({"k %", "spec speedup"});
  for (double k = 0.0; k <= 0.201; k += 0.02) {
    model::ModelParams kp = params;
    kp.k = k;
    ks.row().add(k * 100.0, 0).add(model::PerfModel(kp).speedup_spec(half), 2);
  }
  std::cout << ks;

  artifacts.add_table("speedups", speedups);
  artifacts.add_table("breakdown", breakdown);
  artifacts.add_table("k_sweep", ks);
  artifacts.add_entry("k", obs::Json(params.k));
  artifacts.add_entry("procs", obs::Json(procs));
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());
  return artifacts.flush() ? 0 : 1;
}
