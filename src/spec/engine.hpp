// The speculation engine — the paper's primary contribution, generalised.
//
// Implements the synchronous-iterative-algorithm-with-speculation loop of
// the paper's Figure 3, extended with the forward window (FW) pipelining of
// Section 3.2 and rollback-based recomputation:
//
//   iteration t:
//     1. drain   — incorporate any already-delivered messages, checking
//                  outstanding speculations as they resolve;
//     2. send    — broadcast X_j(t) to all peers (tag = base + t);
//     3. resolve — for each peer: use the real X_k(t) if delivered;
//                  otherwise, if fewer than FW speculations are outstanding
//                  for that peer, speculate X*_k(t) from its history;
//                  otherwise block until the oldest outstanding speculation
//                  resolves (check, correct/replay on failure) and retry;
//     4. compute — X_j(t+1) = f(...) on the installed view, checkpointing
//                  first when any input was speculated.
//
// FW = 0 degenerates exactly to the no-speculation algorithm of Figure 1:
// every peer block is awaited before computing.  FW = 1 is Figure 3.
//
// Failed speculations (error > threshold θ) are repaired either by the
// application's cheap incremental correction (when the failure concerns the
// most recent step) or by restoring the checkpoint taken before the failed
// iteration and replaying forward with the improved information — the
// "corrected or recomputed" path of the paper.
//
// Consistency guarantee by window depth: with FW = 1 every input is verified
// before the next send, so a fully-rejecting threshold (θ = 0, rollback
// repair) reproduces the no-speculation numerics bit-for-bit.  With FW >= 2
// a rank may send a block computed from still-unverified speculation and —
// like the paper — never re-sends after a correction, so peers can consume
// slightly stale values; the deviation is bounded through their own θ
// checks (the paper's bounded-error acceptance philosophy).
//
// Iteration 0 is compute-only: the paper's setup distributes the full
// initial state to every processor ("Read x_i(0) ∀i"), so the engine primes
// each peer history with the initial blocks and message exchange starts at
// iteration 1.
//
// Graceful degradation (EngineConfig::graceful_degradation, DESIGN.md §9):
// under fault injection a peer's block can be overdue far beyond anything
// FW was sized for.  Instead of blocking, the engine may keep computing on
// speculated values past FW — explicitly flagged as *degraded* in stats and
// traces — up to a hard per-peer cap, and reconciles when the late block
// finally arrives via the same check/correct/rollback machinery.  θ keeps
// bounding the accepted error; only the wait policy changes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/communicator.hpp"
#include "spec/adaptive.hpp"
#include "spec/app.hpp"
#include "spec/history.hpp"
#include "spec/speculator.hpp"
#include "spec/stats.hpp"

namespace specomp::spec {

struct EngineConfig {
  /// FW: maximum outstanding (unverified) speculations per peer.
  /// 0 disables speculation entirely (the Figure 1 baseline).
  /// Ignored when window_policy is set.
  int forward_window = 1;
  /// Optional run-time window controller (paper future work — see
  /// adaptive.hpp); when set it chooses the window each iteration and
  /// forward_window is ignored.  A speculator is then required.
  std::shared_ptr<WindowPolicy> window_policy;
  /// Upper clamp for policy-chosen windows.
  int max_forward_window = 8;
  /// θ: maximum acceptable speculation error (paper uses 0.01 for N-body).
  /// Ignored when theta_policy is set.
  double threshold = 0.01;
  /// Optional run-time θ controller (spec/adaptive.hpp, DESIGN.md §13.5);
  /// when set it chooses the check threshold each iteration and `threshold`
  /// is ignored.
  std::shared_ptr<ThetaPolicy> theta_policy;
  /// Record one ControlSample per iteration (window, θ, cascade depth,
  /// policy decision) into control_log() — the controller trace the
  /// adaptive benches export.  Off by default: a long fixed-policy run has
  /// no reason to grow a per-iteration vector.
  bool record_control_log = false;
  /// Speculation function; required when forward_window > 0.  Its
  /// backward_window() determines per-peer history depth.
  std::shared_ptr<Speculator> speculator;
  /// Offer the application's incremental correction before rolling back.
  bool allow_incremental_correction = true;
  /// Base message tag; iteration t uses tag base + t.
  int tag_base = 1000;
  /// Graceful degradation under faults (DESIGN.md §9): when the oldest
  /// outstanding speculation for a peer stays unresolved for more than
  /// overdue_after_seconds, the engine keeps computing on speculated values
  /// past FW — explicitly flagged as degraded — instead of blocking, up to
  /// max_degraded_window outstanding speculations per peer (a hard cap;
  /// beyond it the engine blocks, bounding both memory and the worst-case
  /// rollback depth).  Late arrivals reconcile through the normal
  /// check/correct/rollback machinery, so θ still bounds the accepted
  /// error.  Requires a speculator and an effective window >= 1 (the FW = 0
  /// baseline keeps its strict blocking semantics).  Off by default, and
  /// deliberately NOT implied by arming a fault plan: the receive-timeout
  /// timers perturb event schedules even when no fault fires, which would
  /// break the zero-fault byte-identity contract.
  bool graceful_degradation = false;
  /// How long the oldest speculation for a peer may stay unresolved before
  /// the engine degrades rather than blocks.  Local seconds (virtual on the
  /// simulated backend); pick it a little above the healthy round-trip.
  double overdue_after_seconds = 1.0;
  /// Hard cap on outstanding speculations per peer while degraded.
  int max_degraded_window = 8;
};

/// One row of the engine's controller trace (EngineConfig::
/// record_control_log): the control state in effect *after* the policies
/// ran at the end of `iteration`.
struct ControlSample {
  long iteration = 0;
  /// Forward window chosen for the next iteration.
  int window = 0;
  /// Check threshold chosen for the next iteration.
  double theta = 0.0;
  /// Rollback-chain length observed during the iteration.
  int cascade_depth = 0;
  /// WindowPolicy::last_decision() label ("" for fixed windows).
  const char* decision = "";
};

class SpecEngine {
 public:
  /// `initial_blocks[k]` is peer k's X_k(0) (element `rank` unused); these
  /// prime the histories so speculation is defined from iteration 1 on.
  SpecEngine(runtime::Communicator& comm, SyncIterativeApp& app,
             EngineConfig config,
             std::vector<std::vector<double>> initial_blocks);

  /// Runs `iterations` synchronous iterations and returns the outcome
  /// statistics.  After return, all speculation has been resolved: the
  /// engine drains every outstanding message so ranks end consistent.
  SpecStats run(long iterations);

  const SpecStats& stats() const noexcept { return stats_; }

  /// The forward window in effect for the next iteration (fixed, or the
  /// window policy's latest decision).
  int current_window() const noexcept { return fw_now_; }

  /// The check threshold in effect for the next iteration (fixed, or the
  /// θ policy's latest decision).
  double current_theta() const noexcept { return theta_now_; }

  /// Per-iteration controller trace; empty unless
  /// EngineConfig::record_control_log.
  const std::vector<ControlSample>& control_log() const noexcept {
    return control_log_;
  }

 private:
  /// Per-iteration, per-peer record of what was installed.
  struct PeerSlot {
    bool speculated = false;
    bool resolved = false;
    /// predicted_from of a slot not yet predicted since take_record.
    static constexpr std::uint64_t kNotPredicted = ~std::uint64_t{0};
    /// History::version() of the peer's history the speculated block was
    /// predicted from; a replay re-predicts only once the history moved on.
    std::uint64_t predicted_from = kNotPredicted;
    /// The block installed for this iteration: the speculated values while
    /// unresolved, replaced by the actual values on receipt (replays use it).
    std::vector<double> block;
  };
  /// Records are recycled (see take_record/retire_resolved), so in steady
  /// state every block and the peer vector keep their capacity.
  struct IterationRecord {
    long t = 0;
    std::vector<double> state_before;     // app state before compute_step
    std::vector<PeerSlot> peers;          // indexed by rank
    int unresolved = 0;
  };

  int tag_for(long t) const { return config_.tag_base + static_cast<int>(t); }

  void drain_pending();
  /// Handles receipt of peer `k`'s actual block for iteration `s`, the
  /// peer's oldest outstanding speculation: records history, checks the
  /// speculation it answers, corrects/replays on failure.
  void resolve_receipt(int k, long s, std::span<const double> actual);
  /// Waits until the oldest outstanding speculation for peer k resolves.
  /// A negative timeout blocks; otherwise gives up after `timeout_seconds`
  /// and returns false with the speculation still outstanding.
  bool await_oldest(int k, double timeout_seconds = -1.0);
  /// Degradation is armed and usable (speculator present).
  bool can_degrade() const noexcept {
    return config_.graceful_degradation && config_.speculator != nullptr;
  }
  /// Enforces the forward window for peer k before an iteration's send,
  /// entering degraded mode when the peer is overdue.
  void enforce_window(int k);
  /// Restores the checkpoint of iteration `s` and replays through the most
  /// recently computed iteration.
  void rollback_and_replay(long s);

  /// A cleared record for iteration t, recycled from spare_records_ when
  /// one is available.
  IterationRecord take_record(long t);
  /// Pops fully resolved records off the window's front into the spares.
  void retire_resolved();
  /// The window's record of iteration t (records are contiguous in t).
  IterationRecord& record_at(long t);
  /// Speculates peer k's block for iteration t into slot.block and charges
  /// Phase::Speculate.  A block the slot already predicted from the peer's
  /// current history is kept rather than predicted again (a replay): predict
  /// is a pure function of (history, steps), so the values would not change.
  void speculate_into(PeerSlot& slot, int k, long t);
  void charge_check(int k);
  /// End-of-iteration control step: feeds the window and θ policies their
  /// per-iteration observations (including the live DistSnapshot and the
  /// online cascade depth), applies their decisions, appends to the
  /// controller trace, and resets the per-iteration trackers.
  void consult_policies(long iteration);

  runtime::Communicator& comm_;
  SyncIterativeApp& app_;
  EngineConfig config_;
  int rank_;
  int size_;
  std::vector<History> histories_;          // indexed by rank (self unused)
  std::vector<int> outstanding_;            // unresolved speculations per peer
  std::vector<long> oldest_spec_;           // per peer, oldest unresolved t
                                            // (valid while outstanding_ > 0)
  std::deque<IterationRecord> window_;      // records with unresolved > 0 kept
  std::vector<IterationRecord> spare_records_;  // retired, for take_record
  long next_compute_ = 0;                   // iteration about to be computed
  int fw_now_ = 0;                          // window in effect
  bool degraded_ = false;                   // currently past FW on a peer
  // Snapshots for per-iteration window-policy feedback.
  double last_wait_seconds_ = 0.0;
  double last_compute_seconds_ = 0.0;
  std::uint64_t last_failures_ = 0;
  std::uint64_t last_speculated_ = 0;
  // θ in effect (fixed, or the θ policy's latest decision) and the
  // per-iteration check deltas / max error the θ policy consumes.
  double theta_now_ = 0.0;
  std::uint64_t last_checks_ = 0;
  std::uint64_t last_rollbacks_ = 0;
  double iter_max_error_ = 0.0;
  // Online rollback-chain tracking (DESIGN.md §13.4): a rollback whose
  // target falls inside the span the previous rollback replayed extends the
  // chain; an iteration that completes without rolling back resets it.
  int cascade_depth_now_ = 0;
  long cascade_span_end_ = -1;
  std::vector<ControlSample> control_log_;
  SpecStats stats_;
};

}  // namespace specomp::spec
