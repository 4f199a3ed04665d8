// Quickstart: speculative computation in ~80 lines.
//
// Defines a tiny synchronous iterative application (each rank integrates a
// damped oscillator coupled to every other rank's state), runs it on the
// simulated heterogeneous cluster twice — without speculation (FW = 0) and
// with it (FW = 1) — and prints the speedup the paper's technique buys on a
// latency-bound network.
//
//   $ ./examples/quickstart
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "obs/artifacts.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/engine.hpp"
#include "support/cli.hpp"

using namespace specomp;

namespace {

/// Each rank owns one oscillator; the coupling term needs every peer's
/// position each iteration — the paper's Section 2 model with n = p.
class CoupledOscillators final : public spec::SyncIterativeApp {
 public:
  CoupledOscillators(int rank, int size)
      : rank_(rank), view_(static_cast<std::size_t>(size), 0.0) {
    for (int r = 0; r < size; ++r)
      view_[static_cast<std::size_t>(r)] = initial(r);
    x_ = initial(rank);
    v_ = 0.0;
  }

  static double initial(int rank) { return std::sin(1.0 + rank); }
  static std::vector<std::vector<double>> initial_blocks(int size) {
    std::vector<std::vector<double>> blocks(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) blocks[static_cast<std::size_t>(r)] = {initial(r)};
    return blocks;
  }

  std::vector<double> pack_local() const override { return {x_}; }
  void install_peer(int peer, std::span<const double> block) override {
    view_[static_cast<std::size_t>(peer)] = block[0];
  }
  void compute_step() override {
    view_[static_cast<std::size_t>(rank_)] = x_;
    double mean = 0.0;
    for (double p : view_) mean += p;
    mean /= static_cast<double>(view_.size());
    const double dt = 0.05;
    v_ += dt * (-x_ - 0.4 * (x_ - mean) - 0.05 * v_);
    x_ += dt * v_;
  }
  double compute_ops() const override { return 2e5; }  // pretend it's heavy
  double speculation_error(int, std::span<const double> speculated,
                           std::span<const double> actual) override {
    return std::fabs(speculated[0] - actual[0]);
  }
  double check_ops(int) const override { return 10.0; }
  std::vector<double> save_state() const override { return {x_, v_}; }
  void restore_state(std::span<const double> s) override {
    x_ = s[0];
    v_ = s[1];
  }

 private:
  // specomp: rollback-covered(rank_): immutable rank index; only ever read
  int rank_;
  double x_ = 0.0;
  double v_ = 0.0;
  // specomp: rollback-covered(view_): peer entries are rewritten by
  // install_peer during replay and the own entry by compute_step before the
  // coupling mean is read
  std::vector<double> view_;
};

runtime::SimResult run(int forward_window, bool record_trace) {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(8, 1e6);
  // A latency-bound channel: messages take ~100 ms regardless of size,
  // against ~200 ms of compute per iteration — the paper's sweet spot.
  config.channel.propagation = des::SimTime::millis(100);
  config.send_sw_time = des::SimTime::micros(200);
  config.record_trace = record_trace;

  return runtime::run_simulated(config, [&](runtime::Communicator& comm) {
    CoupledOscillators app(comm.rank(), comm.size());
    spec::EngineConfig engine_config;
    engine_config.forward_window = forward_window;
    engine_config.threshold = 0.01;
    if (forward_window > 0)
      engine_config.speculator = spec::make_speculator("linear");
    spec::SpecEngine engine(comm, app, engine_config,
                            CoupledOscillators::initial_blocks(comm.size()));
    engine.run(/*iterations=*/100);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("quickstart", cli);
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());

  const runtime::SimResult baseline = run(/*forward_window=*/0, false);
  const runtime::SimResult speculative =
      run(/*forward_window=*/1, artifacts.wants_trace());
  const double without = baseline.makespan_seconds;
  const double with_spec = speculative.makespan_seconds;
  std::printf("100 iterations on 8 simulated processors\n");
  std::printf("  without speculation : %.3f s\n", without);
  std::printf("  with speculation    : %.3f s\n", with_spec);
  std::printf("  improvement         : %.1f%%\n",
              (without / with_spec - 1.0) * 100.0);

  obs::RunReport report;
  report.binary = "quickstart";
  report.algorithm = "speculative";
  report.speculator = "linear";
  report.forward_window = 1;
  report.theta = 0.01;
  report.iterations = 100;
  report.makespan_seconds = with_spec;
  report.fill_phases(speculative.timers, 100);
  report.fill_channel(speculative.channel_stats);
  report.fill_des(speculative.kernel_stats);
  report.extra.set("baseline_makespan_seconds", obs::Json(without));
  artifacts.set_run_report(report);
  if (artifacts.wants_trace()) artifacts.set_trace(speculative.trace, 8);
  return artifacts.flush() ? 0 : 1;
}
