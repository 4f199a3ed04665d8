// The message-passing programming interface (PVM-analogue).
//
// Application code — the Fig. 7 N-body algorithm, the speculative engine,
// the Jacobi/heat examples — is written once against this interface and runs
// unchanged on either backend:
//
//   * SimCommunicator  — deterministic discrete-event simulation; time is
//     virtual and heterogeneous processor speeds / network contention are
//     modelled (see sim_comm.hpp).  This is the measurement backend.
//   * ThreadCommunicator — real std::thread ranks exchanging messages
//     through in-process channels with injectable delays (thread_comm.hpp).
//     This is the functional backend used to cross-check correctness.
//
// Semantics follow the paper's PVM usage: sends are asynchronous and never
// block; receives match on (source, tag) and block until delivery; channels
// are reliable.  `compute(ops)` charges `ops` of application work to this
// rank's processor — on the simulated backend time advances by ops / M_i.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "des/trace.hpp"
#include "net/buffer_pool.hpp"
#include "net/message.hpp"
#include "net/serialization.hpp"
#include "runtime/collective_algo.hpp"
#include "runtime/phase_timer.hpp"

namespace specomp::runtime {

/// Live quantile snapshot of this rank's observed delay/service
/// distributions (obs::DistSketch), read mid-run by the model-driven
/// speculation controllers (spec/adaptive.hpp, DESIGN.md §13).  `valid` is
/// false when the backend records no distributions — policies must then
/// hold rather than act on the zeroed quantiles.
struct DistSnapshot {
  bool valid = false;
  /// Inbound one-way delivery delay to this rank, seconds, all peers
  /// aggregated at delivery time.
  std::uint64_t delay_samples = 0;
  double delay_p50 = 0.0;
  double delay_p90 = 0.0;
  double delay_p99 = 0.0;
  /// This rank's per-charge compute (service) time, seconds.
  std::uint64_t service_samples = 0;
  double service_p50 = 0.0;
  double service_p90 = 0.0;
  double service_p99 = 0.0;
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual net::Rank rank() const = 0;
  virtual int size() const = 0;
  /// This rank's processor capacity M_i (operations per second).
  virtual double ops_per_sec() const = 0;

  /// Asynchronous send; never blocks on the network (send-side software
  /// overhead is charged to this rank's processor).
  virtual void send(net::Rank dst, int tag, std::vector<std::byte> payload) = 0;
  /// Non-blocking receive: if a message from `src` with `tag` has been
  /// delivered, moves it into `out` and returns true.
  virtual bool try_recv(net::Rank src, int tag, net::Message& out) = 0;
  /// Blocking receive from a specific source.  Waiting time is recorded
  /// under Phase::Communicate.
  virtual net::Message recv(net::Rank src, int tag) = 0;
  /// Blocking receive from any source (Fig. 7 processes messages in
  /// arrival order).
  virtual net::Message recv_any(int tag) = 0;
  /// Blocking receive bounded by a timeout (local seconds): returns true and
  /// fills `out` on delivery, false once the timeout elapses with no match.
  /// A negative timeout blocks forever.  The default forwards to recv() —
  /// backends without a clock to wait against behave as if the message is
  /// never overdue.  Used by the engine's graceful-degradation path.
  virtual bool recv_timeout(net::Rank src, int tag, double timeout_seconds,
                            net::Message& out) {
    (void)timeout_seconds;
    out = recv(src, tag);
    return true;
  }
  /// Synchronises all ranks.
  virtual void barrier() = 0;

  /// Charges `ops` operations of work to this processor under `phase`.
  virtual void compute(double ops, Phase phase = Phase::Compute) = 0;
  /// Local elapsed time in seconds (virtual on the simulated backend).
  virtual double time_seconds() const = 0;
  /// Marks subsequent Compute charges as based on speculated inputs — only
  /// affects trace rendering (Fig. 2 distinguishes them with '*').
  virtual void mark_speculative(bool on) { (void)on; }
  /// Marks subsequent Compute charges as running in the engine's degraded
  /// mode (a peer is overdue and the rank is speculating past FW).  Only
  /// affects trace rendering; see spec/engine.hpp.
  virtual void mark_degraded(bool on) { (void)on; }
  /// Records a causal trace event at this rank's current local time — the
  /// engine's speculation-lifecycle instrumentation (speculate / check /
  /// check-fail / correct / rollback keyed by (peer, iter)).  Default:
  /// discard, so backends without a trace recorder — and runs with tracing
  /// off — pay nothing (same guard discipline as hb_check).
  virtual void trace_causal(des::CausalKind kind, int peer = -1,
                            std::int64_t iter = -1) {
    (void)kind;
    (void)peer;
    (void)iter;
  }

  /// Live delay/service distribution quantiles for this rank, for the
  /// model-driven speculation controllers.  Default: invalid (backends
  /// without distribution recording — and runs with it off — return a
  /// snapshot the policies treat as "hold").  The simulated backend fills
  /// it from its per-rank DistSketches when SimConfig::record_dists is on.
  virtual DistSnapshot dist_snapshot() const { return {}; }

  PhaseTimer& timer() noexcept { return timer_; }
  const PhaseTimer& timer() const noexcept { return timer_; }

  /// Collective-algorithm preference this endpoint was configured with
  /// (SimConfig::collective / ThreadConfig::collective).  The collectives in
  /// runtime/collectives.hpp resolve their Auto default through it, and the
  /// backends use it to pick their barrier implementation.
  CollectiveAlgo collective_algo() const noexcept { return collective_; }
  void set_collective_algo(CollectiveAlgo algo) noexcept { collective_ = algo; }

  // ---- Convenience helpers ----

  void send_doubles(net::Rank dst, int tag, std::span<const double> values) {
    // Reuse a pooled buffer for the wire image; the receive helpers retire
    // consumed payloads back into the pool, so iterating exchanges reach a
    // steady state with no allocations.
    net::ByteWriter writer(net::BufferPool::local().acquire());
    writer.write_span(values);
    send(dst, tag, std::move(writer).take());
  }

  std::vector<double> recv_doubles(net::Rank src, int tag) {
    net::Message msg = recv(src, tag);
    net::ByteReader reader(msg.payload);
    const std::span<const double> values = reader.read_span<double>();
    std::vector<double> out(values.begin(), values.end());
    net::BufferPool::local().release(std::move(msg.payload));
    return out;
  }

 protected:
  /// Only backends (and test doubles) construct a Communicator.
  Communicator() = default;

  PhaseTimer timer_;
  CollectiveAlgo collective_ = CollectiveAlgo::Auto;
};

/// An SPMD program body: invoked once per rank with that rank's endpoint.
using RankBody = std::function<void(Communicator&)>;

}  // namespace specomp::runtime
