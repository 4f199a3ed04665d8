#include "nbody/app.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nbody/forces.hpp"
#include "support/contracts.hpp"

namespace specomp::nbody {

namespace {

void unpack_into(std::span<const double> block, std::span<Vec3> pos,
                 std::span<Vec3> vel) {
  SPEC_EXPECTS(block.size() == pos.size() * kDoublesPerParticle);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double* d = block.data() + i * kDoublesPerParticle;
    pos[i] = {d[0], d[1], d[2]};
    vel[i] = {d[3], d[4], d[5]};
  }
}

}  // namespace

/// ForceModel over the app's state: installs candidate local positions
/// into the authoritative window of pos_ (peers stay as-installed), then
/// runs the dispatched force kernel exactly as the original compute_step
/// did.  When the candidate span *is* the window (the leapfrog path), no
/// copy happens and the call is bit-identical to the pre-integrator code.
class NBodyApp::WindowForce final : public integrators::ForceModel {
 public:
  explicit WindowForce(NBodyApp& app) : app_(app) {}

  void eval(std::span<const Vec3> local_pos, std::span<Vec3> acc) override {
    NBodyApp& a = app_;
    const std::span<Vec3> window(a.pos_.data() + a.lo_, a.count_);
    if (local_pos.data() != window.data())
      std::copy(local_pos.begin(), local_pos.end(), window.begin());
    std::fill(acc.begin(), acc.end(), Vec3{});
    accumulate_accelerations(window, a.pos_, a.mass_, a.config_.softening2,
                             a.lo_, acc);
  }

 private:
  NBodyApp& app_;
};

void KinematicSpeculator::predict(const spec::History& history, int steps,
                                  std::vector<double>& out) const {
  SPEC_EXPECTS(!history.empty());
  SPEC_EXPECTS(steps >= 1);
  const auto& newest = history.back(0).block;
  SPEC_EXPECTS(newest.size() % kDoublesPerParticle == 0);
  out.resize(newest.size());
  const double horizon = dt_ * static_cast<double>(steps);
  for (std::size_t i = 0; i < newest.size(); i += kDoublesPerParticle) {
    // r* = r + v * (steps * dt); v* = v  (paper eq. 10 with constant
    // velocity held over the speculated horizon).
    out[i + 0] = newest[i + 0] + newest[i + 3] * horizon;
    out[i + 1] = newest[i + 1] + newest[i + 4] * horizon;
    out[i + 2] = newest[i + 2] + newest[i + 5] * horizon;
    out[i + 3] = newest[i + 3];
    out[i + 4] = newest[i + 4];
    out[i + 5] = newest[i + 5];
  }
}

NBodyApp::NBodyApp(const NBodyConfig& config, const Partition& partition,
                   std::span<const Particle> initial, int rank)
    : config_(config),
      partition_(partition),
      rank_(rank),
      lo_(partition.begin(static_cast<std::size_t>(rank))),
      count_(partition.counts[static_cast<std::size_t>(rank)]) {
  const std::size_t n = initial.size();
  SPEC_EXPECTS(partition.total() == n);
  SPEC_EXPECTS(count_ > 0);
  mass_.resize(n);
  pos_.resize(n);
  vel_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    mass_[i] = initial[i].mass;
    pos_[i] = initial[i].pos;
    vel_[i] = initial[i].vel;
  }
  acc_.assign(count_, Vec3{});
  prev_pos_.assign(count_, Vec3{});
  prev_vel_.assign(count_, Vec3{});
  integrator_ = integrators::make_integrator(config.integrator);
  SPEC_EXPECTS(integrator_ != nullptr);  // drivers validate --integrator
  linear_correction_ = config.integrator == "leapfrog";
}

std::size_t NBodyApp::peer_lo(int peer) const {
  return partition_.begin(static_cast<std::size_t>(peer));
}

std::size_t NBodyApp::peer_count(int peer) const {
  return partition_.counts[static_cast<std::size_t>(peer)];
}

std::span<const Vec3> NBodyApp::peer_positions(int peer) const {
  return {pos_.data() + peer_lo(peer), peer_count(peer)};
}

std::vector<double> NBodyApp::pack_local() const {
  std::vector<double> block;
  block.reserve(count_ * kDoublesPerParticle);
  for (std::size_t i = lo_; i < lo_ + count_; ++i) {
    block.push_back(pos_[i].x);
    block.push_back(pos_[i].y);
    block.push_back(pos_[i].z);
    block.push_back(vel_[i].x);
    block.push_back(vel_[i].y);
    block.push_back(vel_[i].z);
  }
  return block;
}

void NBodyApp::install_peer(int peer, std::span<const double> block) {
  SPEC_EXPECTS(peer != rank_);
  unpack_into(block, {pos_.data() + peer_lo(peer), peer_count(peer)},
              {vel_.data() + peer_lo(peer), peer_count(peer)});
}

void NBodyApp::compute_step() {
  const std::span<Vec3> local_pos(pos_.data() + lo_, count_);
  const std::span<Vec3> local_vel(vel_.data() + lo_, count_);
  std::copy(local_pos.begin(), local_pos.end(), prev_pos_.begin());
  std::copy(local_vel.begin(), local_vel.end(), prev_vel_.begin());
  WindowForce force(*this);
  force_evals_last_step_ =
      integrator_->step(local_pos, local_vel, config_.dt, force, acc_);
}

double NBodyApp::compute_ops() const {
  const auto n = static_cast<double>(pos_.size());
  const auto n_i = static_cast<double>(count_);
  // Each integrator stage re-evaluates every local-remote (and local-local)
  // pair; the engine reads this right after compute_step, so the count
  // reflects the step just taken (rk45 bills rejected attempts too).
  const auto evals = static_cast<double>(force_evals_last_step_);
  return evals * kOpsPerPairForce * n_i * (n - 1.0) + kOpsPerIntegration * n_i;
}

double NBodyApp::speculation_error(int peer, std::span<const double> speculated,
                                   std::span<const double> actual) {
  const std::size_t n_k = peer_count(peer);
  SPEC_EXPECTS(speculated.size() == n_k * kDoublesPerParticle);
  SPEC_EXPECTS(actual.size() == n_k * kDoublesPerParticle);

  // Centroid of the local particles stands in for "the" local position in
  // the paper's per-pair ratio (eq. 11); using it keeps the check at the
  // paper's ~24 ops per remote particle instead of O(N_i) per particle.
  Vec3 centroid;
  for (std::size_t i = lo_; i < lo_ + count_; ++i) centroid += pos_[i];
  centroid *= 1.0 / static_cast<double>(count_);

  double worst = 0.0;
  for (std::size_t a = 0; a < n_k; ++a) {
    const double* sd = speculated.data() + a * kDoublesPerParticle;
    const double* ad = actual.data() + a * kDoublesPerParticle;
    const Vec3 spec_pos{sd[0], sd[1], sd[2]};
    const Vec3 act_pos{ad[0], ad[1], ad[2]};
    const double err = (spec_pos - act_pos).norm();
    const double dist =
        std::max((act_pos - centroid).norm(), std::sqrt(config_.softening2));
    worst = std::max(worst, err / dist);
  }

  if (measure_force_error_ && worst <= accept_threshold_) {
    // True relative force error on local particles due to the speculation —
    // pure instrumentation (paper Table 3), costs no virtual time.
    std::vector<Vec3> spec_p(n_k);
    std::vector<Vec3> act_p(n_k);
    std::vector<Vec3> spec_v(n_k);  // velocities unused in forces
    unpack_into(speculated, spec_p, spec_v);
    unpack_into(actual, act_p, spec_v);
    const std::span<const double> m(mass_.data() + peer_lo(peer), n_k);
    constexpr std::size_t kDisjoint = std::numeric_limits<std::size_t>::max();
    std::vector<Vec3> f_spec(count_);
    std::vector<Vec3> f_act(count_);
    accumulate_accelerations(prev_pos_, spec_p, m, config_.softening2,
                             kDisjoint, f_spec);
    accumulate_accelerations(prev_pos_, act_p, m, config_.softening2,
                             kDisjoint, f_act);
    for (std::size_t i = 0; i < count_; ++i) {
      // Relative to the particle's total resultant force (acc_ holds the
      // last step's accumulation), matching the paper's "error in force":
      // a block whose *net* pull is near zero would otherwise blow up a
      // per-block relative measure.
      const double denom = std::max(acc_[i].norm(), 1e-300);
      force_error_.add((f_spec[i] - f_act[i]).norm() / denom);
    }
  }
  return worst;
}

double NBodyApp::check_ops(int peer) const {
  return kOpsPerCheck * static_cast<double>(peer_count(peer));
}

bool NBodyApp::correct_last_step(int peer, std::span<const double> actual) {
  const std::size_t n_k = peer_count(peer);
  SPEC_EXPECTS(actual.size() == n_k * kDoublesPerParticle);

  if (!linear_correction_) {
    // Multi-stage integrators sample forces at intermediate positions that
    // already absorbed the speculated data, so the two-pass linear patch
    // below is not exact for them.  Install the actual peer state, rewind
    // the local block to its pre-step state and redo the step; correct_ops
    // reads the resulting force_evals_last_step_, billing the full
    // recompute (the honest price — see DESIGN.md §11).
    install_peer(peer, actual);
    std::copy(prev_pos_.begin(), prev_pos_.end(), pos_.begin() + lo_);
    std::copy(prev_vel_.begin(), prev_vel_.end(), vel_.begin() + lo_);
    compute_step();
    return true;
  }

  // The speculated positions are still installed in the view; diff their
  // contribution against the actual one on the pre-update local positions.
  std::vector<Vec3> act_p(n_k);
  std::vector<Vec3> act_v(n_k);
  unpack_into(actual, act_p, act_v);
  const std::span<const Vec3> spec_p = peer_positions(peer);
  const std::span<const double> m(mass_.data() + peer_lo(peer), n_k);

  constexpr std::size_t kDisjoint = std::numeric_limits<std::size_t>::max();
  std::vector<Vec3> f_act(count_);
  std::vector<Vec3> f_spec(count_);
  accumulate_accelerations(prev_pos_, act_p, m, config_.softening2, kDisjoint,
                           f_act);
  accumulate_accelerations(prev_pos_, spec_p, m, config_.softening2, kDisjoint,
                           f_spec);
  for (std::size_t i = 0; i < count_; ++i) acc_[i] += f_act[i] - f_spec[i];
  // Redo the cheap integration from the pre-update state with the corrected
  // accelerations (kick then drift, matching euler_step).
  for (std::size_t i = 0; i < count_; ++i) {
    vel_[lo_ + i] = prev_vel_[i] + config_.dt * acc_[i];
    pos_[lo_ + i] = prev_pos_[i] + config_.dt * vel_[lo_ + i];
  }
  // The view now holds the actual peer state.
  install_peer(peer, actual);
  return true;
}

double NBodyApp::correct_ops(int peer) const {
  if (!linear_correction_) {
    // Full step recompute (correct_last_step re-ran compute_step, and the
    // engine reads this immediately after it).
    return compute_ops();
  }
  const auto n_k = static_cast<double>(peer_count(peer));
  const auto n_i = static_cast<double>(count_);
  // Two force passes (subtract speculated, add actual) plus the re-update.
  return 2.0 * kOpsPerPairForce * n_k * n_i + kOpsPerIntegration * n_i;
}

std::vector<double> NBodyApp::save_state() const {
  std::vector<double> state;
  state.reserve(count_ * kDoublesPerParticle);
  for (std::size_t i = lo_; i < lo_ + count_; ++i) {
    state.push_back(pos_[i].x);
    state.push_back(pos_[i].y);
    state.push_back(pos_[i].z);
    state.push_back(vel_[i].x);
    state.push_back(vel_[i].y);
    state.push_back(vel_[i].z);
  }
  return state;
}

void NBodyApp::restore_state(std::span<const double> state) {
  unpack_into(state, {pos_.data() + lo_, count_}, {vel_.data() + lo_, count_});
}

std::vector<std::vector<double>> NBodyApp::initial_blocks(
    const Partition& partition, std::span<const Particle> initial) {
  std::vector<std::vector<double>> blocks(partition.counts.size());
  for (std::size_t r = 0; r < partition.counts.size(); ++r) {
    auto& block = blocks[r];
    block.reserve(partition.counts[r] * kDoublesPerParticle);
    for (std::size_t i = partition.begin(r); i < partition.end(r); ++i) {
      block.push_back(initial[i].pos.x);
      block.push_back(initial[i].pos.y);
      block.push_back(initial[i].pos.z);
      block.push_back(initial[i].vel.x);
      block.push_back(initial[i].vel.y);
      block.push_back(initial[i].vel.z);
    }
  }
  return blocks;
}

std::vector<Particle> NBodyApp::local_particles() const {
  std::vector<Particle> out(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out[i].mass = mass_[lo_ + i];
    out[i].pos = pos_[lo_ + i];
    out[i].vel = vel_[lo_ + i];
  }
  return out;
}

}  // namespace specomp::nbody
