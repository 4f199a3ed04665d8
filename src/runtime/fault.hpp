// Deterministic fault injection for both communicator backends.
//
// The paper's premise is masking communication *misbehaviour* with
// speculation, yet net/latency.hpp only models benign delays: every message
// eventually arrives, exactly once, and processors never hiccup.  A
// FaultPlan widens the modelled failure universe to the classic message and
// processor fault classes (DESIGN.md §9):
//
//   message faults (per directed link, per message):
//     drop     — the transmission is lost on the wire,
//     dup      — the network delivers a second copy,
//     reorder  — the message is held back so a later send overtakes it;
//   processor faults (per rank, scripted against local time):
//     slowdown — compute charges are stretched by a factor over a window,
//     stall    — a one-off freeze of fixed duration at a given time,
//     crash    — the rank stops executing at a given time (fail-stop).
//
// Determinism contract: every decision is a pure hash of
// (plan seed, src, dst, tag, seq, attempt) — no RNG stream is consumed, so
// decisions are independent of evaluation order and identical on the
// simulated and thread backends.  Same plan + same seed ⇒ the same faults
// hit the same messages, and on SimCommunicator the whole SimResult is
// byte-identical across reruns.
//
// Recovery (`recovery = true`, the default) models an ARQ-style reliable
// link plus receiver-side hygiene:
//
//   drop     — bounded retransmit with exponential backoff: a message whose
//              first d transmissions drop is delivered after an extra
//              rto·(2^d − 1) seconds; after max_retransmits consecutive
//              drops the next attempt always succeeds (a bounded-loss
//              network, so the protocol stays live).  The backoff is folded
//              into the delivery time at send — the paper's algorithms never
//              see a lost message, only a (possibly long) delay, which is
//              exactly the claim speculation then masks.
//   dup      — the receiver's dedup filter drops the second copy before it
//              reaches the mailbox (at-most-once delivery restored).
//   reorder  — the per-(src, tag) seq-ordered mailboxes (runtime/mailbox.hpp)
//              already reassemble send order; the hold-back only delays.
//
// With `recovery = false` the raw faults reach the application: drops lose
// the message forever (a blocking recv for it deadlocks — only use with
// try_recv-style workloads), duplicates are consumed twice, and mailboxes
// hand messages out in *arrival* order.  This mode exists to demonstrate
// the failure and to arm the happens-before detector tests: dup trips the
// duplicate-delivery check, reorder trips stream-inversion.
//
// Crash semantics: the rank raises RankCrashed once its local clock reaches
// the crash time (checked at send/recv/compute boundaries, and the compute
// charge that crosses the crash instant is truncated to it).  The run
// harness catches RankCrashed, records the rank's finish time, and lets the
// remaining ranks continue — liveness of peers that *block* on the dead
// rank is not guaranteed (fail-stop without membership/failover is exactly
// that); peers using timeouts or try_recv continue.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace specomp::runtime {

/// Thrown inside a rank body when its FaultPlan crash time is reached; the
/// run harnesses (run_simulated / run_threaded) catch it and record the
/// rank as crashed.  Application code should not catch it.
struct RankCrashed {};

/// Per-run fault bookkeeping, counted by the world that owns the run and
/// returned in SimResult / ThreadResult (plain counters, so parallel sweep
/// lanes never share state).
struct FaultStats {
  std::uint64_t injected_drops = 0;        ///< transmissions dropped on the wire
  std::uint64_t retransmits = 0;           ///< recovery resends after a drop
  std::uint64_t messages_lost = 0;         ///< drops with recovery off (gone forever)
  std::uint64_t injected_duplicates = 0;   ///< second copies created
  std::uint64_t duplicates_suppressed = 0; ///< copies removed by the dedup filter
  std::uint64_t injected_reorders = 0;     ///< messages held back past a later send
  std::uint64_t slowdown_charges = 0;      ///< compute charges stretched by a slowdown
  std::uint64_t stalls = 0;                ///< one-off stalls that fired
  std::uint64_t crashed_ranks = 0;         ///< ranks that hit their crash time

  void merge(const FaultStats& other) noexcept;
  /// True when any fault actually fired during the run.
  bool any() const noexcept;
};

/// Message-fault probabilities for one directed link.  src/dst of -1 match
/// any rank.  For each fault field independently, the first matching rule
/// with a nonzero probability wins — so `drop:0.05,dup:0.2@0->1` drops on
/// every link and duplicates only on 0→1.
struct LinkFaultRule {
  net::Rank src = -1;
  net::Rank dst = -1;
  double drop = 0.0;       ///< P(one transmission attempt is lost)
  double duplicate = 0.0;  ///< P(the network delivers a second copy)
  double reorder = 0.0;    ///< P(the message is held back reorder_hold_seconds)
};

/// Stretches compute charges by `factor` while the rank's local time is in
/// [begin_seconds, end_seconds).  probability < 1 makes it stochastic per
/// compute charge (hash-decided, so still deterministic).
struct SlowdownRule {
  net::Rank rank = -1;  ///< -1 = every rank
  double factor = 2.0;
  double begin_seconds = 0.0;
  double end_seconds = std::numeric_limits<double>::infinity();
  double probability = 1.0;
};

/// One-off freeze: the first compute charge at local time >= at_seconds is
/// extended by duration_seconds (the paper's Fig. 4 transient, but on the
/// processor instead of the wire).
struct StallRule {
  net::Rank rank = 0;
  double at_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Fail-stop: the rank raises RankCrashed once its local time reaches
/// at_seconds.
struct CrashRule {
  net::Rank rank = 0;
  double at_seconds = 0.0;
};

struct FaultPlanConfig {
  std::vector<LinkFaultRule> links;
  std::vector<SlowdownRule> slowdowns;
  std::vector<StallRule> stalls;
  std::vector<CrashRule> crashes;
  /// ARQ retransmit timeout: the d-th consecutive drop of a message adds
  /// rto·2^(d−1) seconds of backoff before the resend.
  double retransmit_timeout_seconds = 1.0;
  /// Consecutive drops tolerated per message; the attempt after the last
  /// tolerated drop always delivers (bounded-loss assumption).
  int max_retransmits = 4;
  /// Extra hold applied to a reordered message.
  double reorder_hold_seconds = 0.5;
  /// Delivery offset of an injected duplicate after the original.
  double duplicate_offset_seconds = 0.05;
  /// true: retransmit + dedup + seq-ordered delivery (see header comment);
  /// false: raw faults reach the application.
  bool recovery = true;
  std::uint64_t seed = 0xfa017;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  /// Everything the plan decides about one message, at send time.  The
  /// decision depends only on (seed, src, dst, tag, seq) — recomputing it
  /// later (e.g. the receive-side dedup filter) yields the same answer.
  struct SendOutcome {
    bool lost = false;        ///< recovery off: the message never arrives
    bool duplicated = false;  ///< a second copy is delivered
    bool reordered = false;   ///< held back by reorder_hold_seconds
    std::uint32_t drops = 0;        ///< transmissions dropped for this message
    std::uint32_t retransmits = 0;  ///< == drops when recovering, else 0
    double extra_delay_seconds = 0.0;  ///< retransmit backoff + reorder hold
  };
  SendOutcome on_send(net::Rank src, net::Rank dst, int tag,
                      std::uint64_t seq) const noexcept;

  /// Product of the factors of every slowdown rule active for `rank` at
  /// local time `now_seconds`; `draw` must be a per-communicator counter so
  /// stochastic rules decide independently per compute charge.
  double compute_multiplier(net::Rank rank, double now_seconds,
                            std::uint64_t draw) const noexcept;

  /// Total stall seconds that became due for `rank` at or before
  /// `now_seconds`.  `cursor` is per-communicator scan state (start at 0);
  /// each rule fires at most once per cursor.  `fired`, when non-null, is
  /// incremented per rule that fired.
  double take_due_stalls(net::Rank rank, double now_seconds,
                         std::size_t& cursor,
                         std::uint64_t* fired = nullptr) const noexcept;

  /// Earliest crash time scripted for `rank`, if any.
  std::optional<double> crash_time(net::Rank rank) const noexcept;

  bool recovery() const noexcept { return config_.recovery; }
  /// Recovery is on and some link can duplicate: receivers need the dedup
  /// filter.
  bool wants_dedup() const noexcept { return config_.recovery && any_duplicate_; }
  /// Recovery is off and some link can reorder: mailboxes must hand out
  /// messages in arrival order so the injected inversion is observable.
  bool arrival_order_delivery() const noexcept {
    return !config_.recovery && any_reorder_;
  }
  bool has_link_faults() const noexcept { return !config_.links.empty(); }
  bool has_compute_faults() const noexcept {
    return !config_.slowdowns.empty() || !config_.stalls.empty();
  }
  const FaultPlanConfig& config() const noexcept { return config_; }

 private:
  double unit_hash(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c, std::uint64_t d) const noexcept;

  FaultPlanConfig config_;
  std::vector<StallRule> stalls_by_time_;  // all ranks, sorted by at_seconds
  bool any_duplicate_ = false;
  bool any_reorder_ = false;
};

/// Parses a comma-separated fault-plan spec *onto* `config`, so callers can
/// pre-seed defaults (seed, rto) before parsing.  Clauses:
///
///   drop:P[@S->D]       dup:P[@S->D]       reorder:P[@S->D]
///   slow:RxF[@T0..T1][~P]   stall:R@T+D    crash:R@T
///   rto:SECONDS  retries:N  reorder-hold:SECONDS  dup-offset:SECONDS
///   norecovery
///
/// R/S/D are rank numbers or `*` (any).  Example:
///   drop:0.05,dup:0.01@0->1,slow:2x3@10..20,crash:3@55,rto:2
///
/// Returns false and fills `error` on malformed input.
bool parse_fault_plan(const std::string& spec, FaultPlanConfig& config,
                      std::string& error);

/// Shared pointer alias used by SimConfig / ThreadConfig.
using FaultPlanPtr = std::shared_ptr<const FaultPlan>;

}  // namespace specomp::runtime
