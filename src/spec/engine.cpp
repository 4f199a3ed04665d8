#include "spec/engine.hpp"

#include <algorithm>
#include <utility>

#include "net/buffer_pool.hpp"
#include "net/serialization.hpp"
#include "support/contracts.hpp"

namespace specomp::spec {

using runtime::Phase;

namespace {

/// Copies a received block into `out`, reusing its capacity, and retires
/// the payload buffer to the pool.
void decode_into(net::Message& msg, std::vector<double>& out) {
  net::ByteReader reader(msg.payload);
  const std::span<const double> values = reader.read_span<double>();
  out.assign(values.begin(), values.end());
  net::BufferPool::local().release(std::move(msg.payload));
}

}  // namespace

SpecEngine::Metrics::Metrics()
    : iterations(obs::metrics().counter("engine.iterations")),
      speculated(obs::metrics().counter("engine.blocks_speculated")),
      received_in_time(obs::metrics().counter("engine.blocks_received_in_time")),
      checks(obs::metrics().counter("engine.checks")),
      failures(obs::metrics().counter("engine.check_failures")),
      incremental_corrections(
          obs::metrics().counter("engine.incremental_corrections")),
      rollbacks(obs::metrics().counter("engine.rollbacks")),
      replayed_iterations(obs::metrics().counter("engine.replayed_iterations")),
      degraded_entries(obs::metrics().counter("degraded.entries")),
      degraded_iterations(obs::metrics().counter("degraded.iterations")),
      forward_window(obs::metrics().gauge("engine.forward_window")),
      check_error(obs::metrics().histogram("engine.check_error", 0.0, 0.1, 50)) {
}

SpecEngine::SpecEngine(runtime::Communicator& comm, SyncIterativeApp& app,
                       EngineConfig config,
                       std::vector<std::vector<double>> initial_blocks)
    : comm_(comm),
      app_(app),
      config_(std::move(config)),
      rank_(comm.rank()),
      size_(comm.size()) {
  SPEC_EXPECTS(config_.forward_window >= 0);
  SPEC_EXPECTS(config_.max_forward_window >= 0);
  fw_now_ = config_.window_policy != nullptr
                ? std::clamp(config_.window_policy->initial_window(), 0,
                             config_.max_forward_window)
                : config_.forward_window;
  if (fw_now_ > 0 || config_.window_policy != nullptr)
    SPEC_EXPECTS(config_.speculator != nullptr);
  if (config_.graceful_degradation) {
    SPEC_EXPECTS(config_.speculator != nullptr);
    SPEC_EXPECTS(config_.max_degraded_window >= 1);
    SPEC_EXPECTS(config_.overdue_after_seconds > 0.0);
  }
  SPEC_EXPECTS(initial_blocks.size() == static_cast<std::size_t>(size_));
  theta_now_ = config_.theta_policy != nullptr
                   ? config_.theta_policy->initial_theta()
                   : config_.threshold;
  SPEC_EXPECTS(theta_now_ >= 0.0);
  stats_.theta_min_used = theta_now_;
  stats_.theta_max_used = theta_now_;

  const std::size_t bw =
      config_.speculator != nullptr ? config_.speculator->backward_window() : 1;
  histories_.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) histories_.emplace_back(std::max<std::size_t>(bw, 1));
  outstanding_.assign(static_cast<std::size_t>(size_), 0);
  oldest_spec_.assign(static_cast<std::size_t>(size_), -1);

  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    auto& block = initial_blocks[static_cast<std::size_t>(r)];
    histories_[static_cast<std::size_t>(r)].record(0, block);
    app_.install_peer(r, block);
  }
}

SpecStats SpecEngine::run(long iterations) {
  SPEC_EXPECTS(iterations >= 1);
  SPEC_EXPECTS(next_compute_ == 0);  // run() is single-shot

  // Iteration 0: every rank holds the full initial state, so this step is
  // compute-only (see header comment).
  app_.compute_step();
  comm_.compute(app_.compute_ops(), Phase::Compute);
  ++stats_.iterations;
  metrics_.iterations.inc();
  metrics_.forward_window.set(fw_now_);
  comm_.timer().bump_iterations();
  next_compute_ = 1;

  for (long t = 1; t < iterations; ++t) {
    // 1. Incorporate whatever has already been delivered (Fig. 3: "checks
    //    its message queue and incorporates any messages that have arrived").
    drain_pending();

    // 2. Enforce the forward window *before* sending, so the block we send
    //    reflects every correction from iterations <= t - FW (with FW = 1
    //    this is exactly Fig. 3's check-before-next-send ordering).  When
    //    graceful degradation is armed, an overdue peer lets the engine
    //    speculate past FW instead of blocking (see enforce_window).
    for (int k = 0; k < size_; ++k) {
      if (k == rank_) continue;
      enforce_window(k);
    }
    if (degraded_) {
      // Leave degraded mode once no peer saturates FW any more.
      bool saturated = false;
      for (int k = 0; k < size_ && !saturated; ++k) {
        if (k == rank_) continue;
        saturated =
            outstanding_[static_cast<std::size_t>(k)] >= std::max(fw_now_, 1);
      }
      if (!saturated) {
        degraded_ = false;
        comm_.mark_degraded(false);
      }
    }

    // 3. Send X_j(t) to all peers.
    {
      const std::vector<double> block = app_.pack_local();
      for (int k = 0; k < size_; ++k)
        if (k != rank_) comm_.send_doubles(k, tag_for(t), block);
    }

    // 4. Resolve each peer's X_k(t): real message if delivered, else
    //    speculate (FW > 0) or block (FW = 0).
    IterationRecord record = take_record(t);
    bool any_speculated = false;
    for (int k = 0; k < size_; ++k) {
      if (k == rank_) continue;
      auto& slot = record.peers[static_cast<std::size_t>(k)];
      net::Message msg;
      if (comm_.try_recv(k, tag_for(t), msg)) {
        decode_into(msg, slot.block);
        // Record history only while no older speculation for this peer is
        // outstanding: a jitter-reordered early arrival must not run the
        // history past a record that a later replay will re-speculate.
        if (outstanding_[static_cast<std::size_t>(k)] == 0)
          histories_[static_cast<std::size_t>(k)].record(t, slot.block);
        app_.install_peer(k, slot.block);
        ++stats_.blocks_received_in_time;
        metrics_.received_in_time.inc();
        continue;
      }
      if (fw_now_ == 0) {
        msg = comm_.recv(k, tag_for(t));
        decode_into(msg, slot.block);
        histories_[static_cast<std::size_t>(k)].record(t, slot.block);
        app_.install_peer(k, slot.block);
        continue;
      }
      speculate_into(slot, k, t);
      slot.speculated = true;
      app_.install_peer(k, slot.block);
      ++record.unresolved;
      if (outstanding_[static_cast<std::size_t>(k)]++ == 0)
        oldest_spec_[static_cast<std::size_t>(k)] = t;
      ++stats_.blocks_speculated;
      metrics_.speculated.inc();
      any_speculated = true;
    }

    // 5. Compute X_j(t+1), checkpointing first whenever a rollback could
    //    later land on (or replay through) this iteration.
    if (record.unresolved > 0 || !window_.empty())
      record.state_before = app_.save_state();
    window_.push_back(std::move(record));
    comm_.mark_speculative(any_speculated);
    app_.compute_step();
    comm_.compute(app_.compute_ops(), Phase::Compute);
    comm_.mark_speculative(false);
    next_compute_ = t + 1;
    ++stats_.iterations;
    metrics_.iterations.inc();
    if (degraded_) {
      ++stats_.degraded_iterations;
      metrics_.degraded_iterations.inc();
    }
    comm_.timer().bump_iterations();

    retire_resolved();
    consult_policies(t);
  }

  // Resolve every outstanding speculation so all ranks finish verified and
  // no messages are left undelivered — this is also where a degraded run
  // reconciles: every late block still passes the check/correct/rollback
  // machinery before the final state is declared.
  for (int k = 0; k < size_; ++k) {
    if (k == rank_) continue;
    while (outstanding_[static_cast<std::size_t>(k)] > 0) await_oldest(k);
  }
  retire_resolved();
  if (degraded_) {
    degraded_ = false;
    comm_.mark_degraded(false);
  }
  SPEC_ENSURES(window_.empty());
  return stats_;
}

void SpecEngine::enforce_window(int k) {
  const int fw_limit = std::max(fw_now_, 1);
  while (outstanding_[static_cast<std::size_t>(k)] >= fw_limit) {
    const bool at_hard_cap =
        outstanding_[static_cast<std::size_t>(k)] >=
        std::max(config_.max_degraded_window, fw_limit);
    if (!can_degrade() || at_hard_cap) {
      // Strict FW semantics (or the degraded hard cap): block.
      await_oldest(k);
      continue;
    }
    // Give the overdue peer one timeout's grace; if its block arrives the
    // window drains normally.
    if (await_oldest(k, config_.overdue_after_seconds)) continue;
    // Overdue: degrade — this iteration speculates past FW for peer k and
    // the compute span is flagged so traces show the mode explicitly.
    if (!degraded_) {
      degraded_ = true;
      ++stats_.degraded_entries;
      metrics_.degraded_entries.inc();
      comm_.mark_degraded(true);
    }
    return;
  }
}

void SpecEngine::drain_pending() {
  // Resolve opportunistically, but strictly oldest-first per peer: jitter
  // can deliver iteration t+1 before t, and resolving t+1 first would run
  // the peer's history ahead of the still-unresolved record t (breaking the
  // steps >= 1 invariant of speculation during a later replay).  Also never
  // resolve while iterating the window — a replay rewrites records.  Each
  // round restarts from peer 0: resolving can advance local time, which
  // lets earlier peers' blocks arrive, and taking them in this order is
  // part of the deterministic schedule.
  for (;;) {
    int found_k = -1;
    net::Message msg;
    for (int k = 0; k < size_ && found_k < 0; ++k) {
      // Only the oldest outstanding speculation for a peer may resolve:
      // take it or leave this peer alone this round.
      if (k == rank_ || outstanding_[static_cast<std::size_t>(k)] == 0)
        continue;
      if (comm_.try_recv(k, tag_for(oldest_spec_[static_cast<std::size_t>(k)]),
                         msg))
        found_k = k;
    }
    if (found_k < 0) return;
    // Zero-copy: resolve_receipt reads the values straight out of the
    // payload, which goes back to the pool once the receipt is handled.
    net::ByteReader reader(msg.payload);
    resolve_receipt(found_k, oldest_spec_[static_cast<std::size_t>(found_k)],
                    reader.read_span<double>());
    net::BufferPool::local().release(std::move(msg.payload));
  }
}

bool SpecEngine::await_oldest(int k, double timeout_seconds) {
  SPEC_ASSERT(outstanding_[static_cast<std::size_t>(k)] > 0);
  const long s = oldest_spec_[static_cast<std::size_t>(k)];
  net::Message msg;
  if (timeout_seconds < 0.0) {
    msg = comm_.recv(k, tag_for(s));
  } else if (!comm_.recv_timeout(k, tag_for(s), timeout_seconds, msg)) {
    return false;
  }
  net::ByteReader reader(msg.payload);
  resolve_receipt(k, s, reader.read_span<double>());
  net::BufferPool::local().release(std::move(msg.payload));
  return true;
}

void SpecEngine::resolve_receipt(int k, long s, std::span<const double> actual) {
  histories_[static_cast<std::size_t>(k)].record(s, actual);

  IterationRecord& rec = record_at(s);
  auto& slot = rec.peers[static_cast<std::size_t>(k)];
  SPEC_ASSERT(slot.speculated && !slot.resolved);
  SPEC_ASSERT(s == oldest_spec_[static_cast<std::size_t>(k)]);

  charge_check(k);
  comm_.trace_causal(des::CausalKind::Check, k, s);
  ++stats_.checks;
  metrics_.checks.inc();
  const double err = app_.speculation_error(k, slot.block, actual);
  stats_.error.add(err);
  metrics_.check_error.observe(err);
  iter_max_error_ = std::max(iter_max_error_, err);
  const bool acceptable = err <= theta_now_;

  // From here on the record holds the real block (replays must use it).
  slot.block.assign(actual.begin(), actual.end());
  slot.resolved = true;
  --rec.unresolved;
  if (--outstanding_[static_cast<std::size_t>(k)] > 0) {
    // Speculations resolve oldest-first, so the next oldest lies later in
    // the window; each record is stepped over at most once per peer.
    long next = s + 1;
    for (;; ++next) {
      const auto& later = record_at(next).peers[static_cast<std::size_t>(k)];
      if (later.speculated && !later.resolved) break;
    }
    oldest_spec_[static_cast<std::size_t>(k)] = next;
  }

  if (!acceptable) {
    comm_.trace_causal(des::CausalKind::CheckFail, k, s);
    ++stats_.failures;
    metrics_.failures.inc();
    bool corrected = false;
    if (config_.allow_incremental_correction && s == next_compute_ - 1) {
      corrected = app_.correct_last_step(k, actual);
      if (corrected) {
        comm_.compute(app_.correct_ops(k), Phase::Correct);
        comm_.trace_causal(des::CausalKind::Correct, k, s);
        ++stats_.incremental_corrections;
        metrics_.incremental_corrections.inc();
      }
    }
    if (!corrected) {
      comm_.trace_causal(des::CausalKind::Rollback, k, s);
      rollback_and_replay(s);
    }
  }

  retire_resolved();
}

void SpecEngine::rollback_and_replay(long s) {
  ++stats_.rollbacks;
  metrics_.rollbacks.inc();
  // Cascade tracking (DESIGN.md §13.4): this rollback *chains* when its
  // target falls inside the span the previous rollback already replayed —
  // the new arrival invalidated recomputed work, the Manita–Simonot cascade
  // regime.  cascade_span_end_ is advanced to the last iteration this
  // replay rewrites; an iteration that completes clean resets the chain
  // (see consult_policies).
  cascade_depth_now_ = s <= cascade_span_end_ ? cascade_depth_now_ + 1 : 1;
  stats_.max_cascade_depth =
      std::max(stats_.max_cascade_depth, cascade_depth_now_);
  SPEC_ASSERT(!record_at(s).state_before.empty());
  const auto start = static_cast<std::size_t>(s - window_.front().t);
  app_.restore_state(window_[start].state_before);

  for (std::size_t j = start; j < window_.size(); ++j) {
    auto& rec = window_[j];
    SPEC_ASSERT(rec.t == s + static_cast<long>(j - start));
    rec.state_before = app_.save_state();
    bool any_speculated = false;
    for (int k = 0; k < size_; ++k) {
      if (k == rank_) continue;
      auto& slot = rec.peers[static_cast<std::size_t>(k)];
      if (slot.speculated && !slot.resolved) {
        // Still unverified: re-speculate with the freshest history.
        speculate_into(slot, k, rec.t);
        any_speculated = true;
      }
      app_.install_peer(k, slot.block);
    }
    comm_.mark_speculative(any_speculated);
    app_.compute_step();
    comm_.compute(app_.compute_ops(), Phase::Correct);
    comm_.mark_speculative(false);
    ++stats_.replayed_iterations;
    metrics_.replayed_iterations.inc();
  }
  if (!window_.empty())
    cascade_span_end_ = std::max(cascade_span_end_, window_.back().t);
}

SpecEngine::IterationRecord SpecEngine::take_record(long t) {
  IterationRecord rec;
  if (spare_records_.empty()) {
    rec.peers.resize(static_cast<std::size_t>(size_));
  } else {
    rec = std::move(spare_records_.back());
    spare_records_.pop_back();
    rec.state_before.clear();
    for (auto& slot : rec.peers) {
      slot.speculated = false;
      slot.resolved = false;
      slot.predicted_from = PeerSlot::kNotPredicted;
    }
  }
  rec.t = t;
  rec.unresolved = 0;
  return rec;
}

void SpecEngine::retire_resolved() {
  while (!window_.empty() && window_.front().unresolved == 0) {
    spare_records_.push_back(std::move(window_.front()));
    window_.pop_front();
  }
}

SpecEngine::IterationRecord& SpecEngine::record_at(long t) {
  SPEC_ASSERT(!window_.empty() && t >= window_.front().t);
  const auto i = static_cast<std::size_t>(t - window_.front().t);
  SPEC_ASSERT(i < window_.size() && window_[i].t == t);
  return window_[i];
}

void SpecEngine::speculate_into(PeerSlot& slot, int k, long t) {
  auto& history = histories_[static_cast<std::size_t>(k)];
  SPEC_ASSERT(!history.empty());
  const int steps = static_cast<int>(t - history.newest_iteration());
  SPEC_ASSERT(steps >= 1);
  if (slot.predicted_from != history.version()) {
    config_.speculator->predict(history, steps, slot.block);
    slot.predicted_from = history.version();
  }
  // Charged either way: the skip saves host time, not the modelled work.
  comm_.compute(config_.speculator->ops_per_variable() *
                    static_cast<double>(slot.block.size()),
                Phase::Speculate);
  comm_.trace_causal(des::CausalKind::Speculate, k, t);
}

void SpecEngine::charge_check(int k) {
  comm_.compute(app_.check_ops(k), Phase::Check);
}

void SpecEngine::consult_policies(long iteration) {
  stats_.max_window_used = std::max(stats_.max_window_used, fw_now_);

  // Per-iteration deltas shared by both policies.
  const std::uint64_t d_checks = stats_.checks - last_checks_;
  const std::uint64_t d_failures = stats_.failures - last_failures_;
  const bool rolled_back = stats_.rollbacks != last_rollbacks_;

  const char* decision = "";
  if (config_.window_policy != nullptr) {
    const double wait =
        comm_.timer().get(Phase::Communicate).to_seconds();
    const double compute = comm_.timer().get(Phase::Compute).to_seconds() +
                           comm_.timer().get(Phase::Correct).to_seconds();
    WindowFeedback feedback;
    feedback.iteration = iteration;
    feedback.current_window = fw_now_;
    feedback.wait_seconds = wait - last_wait_seconds_;
    feedback.compute_seconds = compute - last_compute_seconds_;
    feedback.speculated = stats_.blocks_speculated - last_speculated_;
    feedback.failures = d_failures;
    feedback.cascade_depth = cascade_depth_now_;
    const runtime::DistSnapshot snap = comm_.dist_snapshot();
    feedback.dists_valid = snap.valid;
    feedback.delay_samples = snap.delay_samples;
    feedback.delay_p50 = snap.delay_p50;
    feedback.delay_p90 = snap.delay_p90;
    feedback.delay_p99 = snap.delay_p99;
    feedback.service_samples = snap.service_samples;
    feedback.service_p50 = snap.service_p50;
    feedback.service_p90 = snap.service_p90;
    feedback.service_p99 = snap.service_p99;
    last_wait_seconds_ = wait;
    last_compute_seconds_ = compute;
    last_speculated_ = stats_.blocks_speculated;

    fw_now_ = std::clamp(config_.window_policy->next_window(feedback), 0,
                         config_.max_forward_window);
    decision = config_.window_policy->last_decision();
    metrics_.forward_window.set(fw_now_);
  }

  if (config_.theta_policy != nullptr) {
    ThetaFeedback feedback;
    feedback.iteration = iteration;
    feedback.current_theta = theta_now_;
    feedback.checks = d_checks;
    feedback.failures = d_failures;
    feedback.max_error = iter_max_error_;
    feedback.cascade_depth = cascade_depth_now_;
    const double next = config_.theta_policy->next_theta(feedback);
    SPEC_ASSERT(next > 0.0);
    if (next != theta_now_) {
      theta_now_ = next;
      ++stats_.theta_adjustments;
    }
    stats_.theta_min_used = std::min(stats_.theta_min_used, theta_now_);
    stats_.theta_max_used = std::max(stats_.theta_max_used, theta_now_);
  }

  if (config_.record_control_log) {
    control_log_.push_back(
        {iteration, fw_now_, theta_now_, cascade_depth_now_, decision});
  }

  last_checks_ = stats_.checks;
  last_failures_ = stats_.failures;
  last_rollbacks_ = stats_.rollbacks;
  iter_max_error_ = 0.0;
  // An iteration with no rollback breaks the chain: nothing this iteration
  // invalidated previously replayed work.
  if (!rolled_back) {
    cascade_depth_now_ = 0;
    cascade_span_end_ = -1;
  }
}

}  // namespace specomp::spec
