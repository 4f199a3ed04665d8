#include "traced.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "nbody/app.hpp"
#include "nbody/baseline.hpp"
#include "nbody/init.hpp"
#include "runtime/communicator.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/adaptive.hpp"
#include "spec/engine.hpp"

namespace specbench {

namespace {

using namespace specomp;

/// Forwards every call to the simulated communicator, recording a span per
/// call.  Communicator::timer() is not virtual: callers bump iterations on
/// this wrapper's PhaseTimer while the phases accrue on the inner one, so
/// the two are reconciled around every forwarded call.
class TracedComm final : public runtime::Communicator {
 public:
  TracedComm(runtime::Communicator& inner, SpanLog& log, CommCounts& counts)
      : inner_(inner), log_(log), counts_(counts) {
    set_collective_algo(inner.collective_algo());
    timer_ = inner.timer();
  }
  ~TracedComm() override { push_iterations(); }
  TracedComm(const TracedComm&) = delete;
  TracedComm& operator=(const TracedComm&) = delete;

  net::Rank rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  double ops_per_sec() const override { return inner_.ops_per_sec(); }

  void send(net::Rank dst, int tag, std::vector<std::byte> payload) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.send");
    ++counts_.send_calls;
    inner_.send(dst, tag, std::move(payload));
  }
  bool try_recv(net::Rank src, int tag, net::Message& out) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.try_recv");
    ++counts_.recv_calls;
    return inner_.try_recv(src, tag, out);
  }
  net::Message recv(net::Rank src, int tag) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.recv");
    const Wait wait(*this);
    ++counts_.recv_calls;
    return inner_.recv(src, tag);
  }
  net::Message recv_any(int tag) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.recv");
    const Wait wait(*this);
    ++counts_.recv_calls;
    return inner_.recv_any(tag);
  }
  bool recv_timeout(net::Rank src, int tag, double timeout_seconds,
                    net::Message& out) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.recv");
    const Wait wait(*this);
    ++counts_.recv_calls;
    return inner_.recv_timeout(src, tag, timeout_seconds, out);
  }
  void barrier() override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.barrier");
    const Wait wait(*this);
    inner_.barrier();
  }
  void compute(double ops, runtime::Phase phase) override {
    const Sync sync(*this);
    const ScopedSpan span(log_, "comm.compute");
    inner_.compute(ops, phase);
  }
  double time_seconds() const override { return inner_.time_seconds(); }
  void mark_speculative(bool on) override { inner_.mark_speculative(on); }
  void mark_degraded(bool on) override { inner_.mark_degraded(on); }
  void trace_causal(des::CausalKind kind, int peer,
                    std::int64_t iter) override {
    inner_.trace_causal(kind, peer, iter);
  }
  runtime::DistSnapshot dist_snapshot() const override {
    return inner_.dist_snapshot();
  }

 private:
  /// Before a call: hand the caller's iteration bumps to the inner timer.
  /// After it: mirror the inner timer, whose phases the call advanced.
  struct Sync {
    explicit Sync(TracedComm& c) : comm(c) { comm.push_iterations(); }
    ~Sync() { comm.timer_ = comm.inner_.timer(); }
    Sync(const Sync&) = delete;
    Sync& operator=(const Sync&) = delete;
    TracedComm& comm;
  };
  /// Virtual time spent blocked in the enclosing call.
  struct Wait {
    explicit Wait(TracedComm& c) : comm(c), start(c.inner_.time_seconds()) {}
    ~Wait() { comm.counts_.wait_virtual_s += comm.inner_.time_seconds() - start; }
    Wait(const Wait&) = delete;
    Wait& operator=(const Wait&) = delete;
    TracedComm& comm;
    double start;
  };

  void push_iterations() {
    while (inner_.timer().iterations() < timer_.iterations())
      inner_.timer().bump_iterations();
  }

  runtime::Communicator& inner_;
  SpanLog& log_;
  CommCounts& counts_;
};

/// Forwards every SyncIterativeApp call to the N-body app, recording a span
/// per call that does work (the *_ops getters are left unrecorded).
class TracedApp final : public spec::SyncIterativeApp {
 public:
  TracedApp(spec::SyncIterativeApp& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::vector<double> pack_local() const override {
    const ScopedSpan span(log_, "app.pack");
    return inner_.pack_local();
  }
  void install_peer(int peer, std::span<const double> block) override {
    const ScopedSpan span(log_, "app.install");
    inner_.install_peer(peer, block);
  }
  void compute_step() override {
    const ScopedSpan span(log_, "app.compute");
    inner_.compute_step();
  }
  double compute_ops() const override { return inner_.compute_ops(); }
  double speculation_error(int peer, std::span<const double> speculated,
                           std::span<const double> actual) override {
    const ScopedSpan span(log_, "app.check");
    return inner_.speculation_error(peer, speculated, actual);
  }
  double check_ops(int peer) const override { return inner_.check_ops(peer); }
  bool correct_last_step(int peer, std::span<const double> actual) override {
    const ScopedSpan span(log_, "app.correct");
    return inner_.correct_last_step(peer, actual);
  }
  double correct_ops(int peer) const override {
    return inner_.correct_ops(peer);
  }
  std::vector<double> save_state() const override {
    const ScopedSpan span(log_, "app.snapshot");
    return inner_.save_state();
  }
  void restore_state(std::span<const double> state) override {
    const ScopedSpan span(log_, "app.snapshot");
    inner_.restore_state(state);
  }

 private:
  spec::SyncIterativeApp& inner_;
  SpanLog& log_;  // a reference, so the const methods can record too
};

}  // namespace

// Mirrors nbody::run_scenario (src/nbody/scenario.cpp) step for step; only
// the TracedComm/TracedApp wrappers and the spans are added.
TracedRun run_scenario_traced(const nbody::NBodyScenario& scenario) {
  const std::size_t p = scenario.sim.cluster.size();
  if (p < 1 || scenario.iterations < 1)
    throw std::invalid_argument("run_scenario_traced: empty scenario");

  spec::WindowPolicyKind window_kind = spec::WindowPolicyKind::Static;
  if (!scenario.window_policy.empty()) {
    const auto parsed = spec::parse_window_policy(scenario.window_policy);
    if (!parsed) throw std::invalid_argument("unknown window_policy");
    window_kind = *parsed;
  }
  spec::ThetaPolicyKind theta_kind = spec::ThetaPolicyKind::Static;
  if (!scenario.theta_policy.empty()) {
    const auto parsed = spec::parse_theta_policy(scenario.theta_policy);
    if (!parsed) throw std::invalid_argument("unknown theta_policy");
    theta_kind = *parsed;
  }

  runtime::SimConfig sim_config = scenario.sim;
  if (window_kind == spec::WindowPolicyKind::Model)
    sim_config.record_dists = true;

  const std::vector<nbody::Particle> initial =
      nbody::make_initial_conditions(scenario.body);
  const nbody::Partition partition = nbody::Partition::from_counts(
      scenario.sim.cluster.proportional_partition(initial.size()));

  TracedRun traced;
  traced.logs.reserve(p);
  for (std::size_t r = 0; r < p; ++r)
    traced.logs.emplace_back(static_cast<int>(r));
  std::vector<CommCounts> counts(p);
  std::vector<std::vector<nbody::Particle>> finals(p);
  std::vector<spec::SpecStats> stats(p);
  std::vector<support::OnlineStats> force_errors(p);
  std::vector<spec::ControlSample> control_log;

  const runtime::RankBody body = [&](runtime::Communicator& inner) {
    const auto rank = static_cast<std::size_t>(inner.rank());
    SpanLog& log = traced.logs[rank];
    const ScopedSpan rank_span(log, "rank");
    TracedComm comm(inner, log, counts[rank]);
    if (scenario.algorithm == nbody::Algorithm::Fig7Baseline) {
      const ScopedSpan run_span(log, "fig7.run");
      nbody::run_fig7_rank(comm, scenario.body, partition, initial,
                           scenario.iterations, finals[rank]);
      return;
    }
    nbody::NBodyApp app(scenario.body, partition, initial, comm.rank());
    app.enable_force_error_measurement(scenario.measure_force_error);
    app.set_accept_threshold(scenario.theta);
    TracedApp traced_app(app, log);
    spec::EngineConfig engine_config;
    engine_config.forward_window = scenario.forward_window;
    engine_config.threshold = scenario.theta;
    engine_config.allow_incremental_correction =
        scenario.allow_incremental_correction;
    if (window_kind != spec::WindowPolicyKind::Static) {
      engine_config.window_policy =
          spec::make_window_policy(window_kind, scenario.forward_window);
      engine_config.max_forward_window = scenario.max_forward_window;
    } else if (scenario.adaptive_window) {
      engine_config.window_policy =
          std::make_shared<spec::AdaptiveWindowPolicy>();
      engine_config.max_forward_window = scenario.max_forward_window;
    } else if (scenario.hill_climb_window) {
      engine_config.window_policy =
          std::make_shared<spec::HillClimbWindowPolicy>();
      engine_config.max_forward_window = scenario.max_forward_window;
    }
    if (theta_kind != spec::ThetaPolicyKind::Static)
      engine_config.theta_policy =
          spec::make_theta_policy(theta_kind, scenario.theta);
    engine_config.record_control_log =
        scenario.record_control_log && comm.rank() == 0;
    engine_config.graceful_degradation = scenario.graceful_degradation;
    engine_config.overdue_after_seconds = scenario.overdue_after_seconds;
    engine_config.max_degraded_window = scenario.max_degraded_window;
    if (engine_config.forward_window > 0 ||
        engine_config.window_policy != nullptr ||
        engine_config.graceful_degradation) {
      engine_config.speculator =
          scenario.speculator == "kinematic"
              ? std::make_shared<nbody::KinematicSpeculator>(scenario.body.dt)
              : spec::make_speculator(scenario.speculator);
    }
    spec::SpecEngine engine(comm, traced_app, engine_config,
                            nbody::NBodyApp::initial_blocks(partition, initial));
    {
      const ScopedSpan run_span(log, "engine.run");
      stats[rank] = engine.run(scenario.iterations);
    }
    finals[rank] = app.local_particles();
    force_errors[rank] = app.force_error_stats();
    if (engine_config.record_control_log) control_log = engine.control_log();
  };

  nbody::NBodyRunResult& result = traced.result;
  const std::int64_t t0 = wall_now_ns();
  result.sim = runtime::run_simulated(sim_config, body);
  traced.sim_wall_ns = wall_now_ns() - t0;
  result.control_log = std::move(control_log);

  for (std::size_t r = 0; r < p; ++r) {
    result.spec.merge(stats[r]);
    result.force_error.merge(force_errors[r]);
    traced.comm.merge(counts[r]);
    for (const auto& particle : finals[r])
      result.final_particles.push_back(particle);
  }

  const auto iters = static_cast<double>(scenario.iterations);
  double comm_sum = 0.0;
  double compute_sum = 0.0;
  double speculate_sum = 0.0;
  double check_sum = 0.0;
  double correct_sum = 0.0;
  for (const auto& timer : result.sim.timers) {
    comm_sum += timer.get(runtime::Phase::Communicate).to_seconds();
    compute_sum += timer.get(runtime::Phase::Compute).to_seconds();
    speculate_sum += timer.get(runtime::Phase::Speculate).to_seconds();
    check_sum += timer.get(runtime::Phase::Check).to_seconds();
    correct_sum += timer.get(runtime::Phase::Correct).to_seconds();
  }
  const double denom = static_cast<double>(p) * iters;
  result.mean_comm_per_iteration = comm_sum / denom;
  result.mean_compute_per_iteration = compute_sum / denom;
  result.mean_speculate_per_iteration = speculate_sum / denom;
  result.mean_check_per_iteration = check_sum / denom;
  result.mean_correct_per_iteration = correct_sum / denom;
  result.time_per_iteration = result.sim.makespan_seconds / iters;
  return traced;
}

}  // namespace specbench
