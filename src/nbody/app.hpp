// N-body plugged into the speculation engine (paper, Section 5).
//
// NBodyApp provides the application half of the Figure-3 algorithm:
//   * blocks are (position, velocity) pairs of a rank's particles;
//   * compute_step is the O(N_i * N) force accumulation + time integration
//     (NBodyConfig::integrator picks the scheme from nbody/integrators/;
//     the default "leapfrog" is the paper's kick-drift update);
//   * the speculation error is the paper's eq. 11 ratio of position error to
//     distance-to-local-particles;
//   * correct_last_step is the paper's cheap correction: subtract the pair
//     forces computed from the speculated positions, add those from the
//     actual positions, and redo the (cheap) integration.
//
// KinematicSpeculator is the paper's eq. 10 speculation function:
// r*(t) = r(t-1) + v(t-1) dt, velocity held constant.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nbody/integrators/integrator.hpp"
#include "nbody/types.hpp"
#include "spec/app.hpp"
#include "spec/speculator.hpp"
#include "support/stats.hpp"

namespace specomp::nbody {

class KinematicSpeculator final : public spec::Speculator {
 public:
  explicit KinematicSpeculator(double dt) : dt_(dt) {}

  void predict(const spec::History& history, int steps,
               std::vector<double>& out) const override;
  std::size_t backward_window() const noexcept override { return 1; }
  /// 12 ops per particle (paper) over 6 doubles per particle.
  double ops_per_variable() const noexcept override {
    return kOpsPerSpeculation / static_cast<double>(kDoublesPerParticle);
  }
  std::string_view name() const noexcept override { return "kinematic"; }

 private:
  double dt_;
};

class NBodyApp final : public spec::SyncIterativeApp {
 public:
  NBodyApp(const NBodyConfig& config, const Partition& partition,
           std::span<const Particle> initial, int rank);

  // ---- SyncIterativeApp ----
  std::vector<double> pack_local() const override;
  void install_peer(int peer, std::span<const double> block) override;
  void compute_step() override;
  double compute_ops() const override;
  double speculation_error(int peer, std::span<const double> speculated,
                           std::span<const double> actual) override;
  double check_ops(int peer) const override;
  bool correct_last_step(int peer, std::span<const double> actual) override;
  double correct_ops(int peer) const override;
  std::vector<double> save_state() const override;
  void restore_state(std::span<const double> state) override;

  // ---- Reproduction helpers ----

  /// Initial blocks for priming the engine (one per rank).
  static std::vector<std::vector<double>> initial_blocks(
      const Partition& partition, std::span<const Particle> initial);

  /// This rank's particles in their current state.
  std::vector<Particle> local_particles() const;

  /// When enabled, each *accepted* speculation additionally measures the
  /// true relative force error it caused on local particles (the paper's
  /// Table 3 "Max. error in force" — rejected speculations are recomputed,
  /// so only accepted ones contribute residual error).  Costs an extra
  /// O(N_i N_k) per check of wall time; charged zero virtual time.
  void enable_force_error_measurement(bool on) { measure_force_error_ = on; }
  /// Acceptance threshold used by the instrumentation above (the engine's
  /// θ); speculation errors above it are excluded from force-error stats.
  void set_accept_threshold(double theta) { accept_threshold_ = theta; }
  const support::OnlineStats& force_error_stats() const noexcept {
    return force_error_;
  }

  std::size_t local_count() const noexcept { return count_; }

  /// Force evaluations performed by the most recent compute_step (1 for
  /// leapfrog; 4 for rk4; 6 per attempted substep for rk45) — what
  /// compute_ops bills, so multi-stage integrators cost honest virtual time.
  std::size_t force_evals_last_step() const noexcept {
    return force_evals_last_step_;
  }

 private:
  class WindowForce;

  std::span<const Vec3> peer_positions(int peer) const;
  std::size_t peer_lo(int peer) const;
  std::size_t peer_count(int peer) const;

  NBodyConfig config_;
  Partition partition_;
  int rank_;
  std::size_t lo_ = 0;
  std::size_t count_ = 0;

  // specomp: rollback-covered(mass_): immutable after construction; .data()
  // handles only feed const spans into the force kernels
  std::vector<double> mass_;  // all N (fixed)
  std::vector<Vec3> pos_;     // all N: authoritative locally, view of peers
  std::vector<Vec3> vel_;
  // specomp: rollback-covered(acc_): rewritten in full by the integrator at
  // every compute_step before corrections read it; replay regenerates it
  std::vector<Vec3> acc_;            // last step's local accelerations
  // specomp: rollback-covered(prev_pos_): snapshot of pos_ taken at the top
  // of every compute_step before any read; replay regenerates it
  std::vector<Vec3> prev_pos_;       // local state before the last update
  // specomp: rollback-covered(prev_vel_): snapshot of vel_ taken at the top
  // of every compute_step before any read; replay regenerates it
  std::vector<Vec3> prev_vel_;

  std::unique_ptr<integrators::Integrator> integrator_;
  /// True for the kick-drift integrator, whose update is linear in the
  /// accelerations: only then is the paper's cheap two-pass correction
  /// exact, so other integrators recompute the step on rejection.
  bool linear_correction_ = true;
  // specomp: rollback-covered(force_evals_last_step_): overwritten by every
  // compute_step and read back only in the same step's compute_ops billing
  std::size_t force_evals_last_step_ = 1;

  bool measure_force_error_ = false;
  double accept_threshold_ = 1e300;  // default: measure every speculation
  support::OnlineStats force_error_;
};

}  // namespace specomp::nbody
