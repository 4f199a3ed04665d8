#include "runtime/sim_comm.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "net/buffer_pool.hpp"
#include "runtime/collectives.hpp"
#include "runtime/hb_check.hpp"
#include "support/contracts.hpp"

namespace specomp::runtime {

namespace detail {

/// Shared state of one simulated SPMD run: the kernel, the channel, one
/// communicator per rank, and the barrier bookkeeping.
class SimWorld {
 public:
  SimWorld(const SimConfig& config)
      : config_(config), num_ranks_(static_cast<int>(config.cluster.size())) {
    SPEC_EXPECTS(num_ranks_ > 0);
    if (config_.shared_medium) {
      channel_ = std::make_unique<net::SharedMediumChannel>(config_.channel);
    } else {
      channel_ =
          std::make_unique<net::PointToPointNetwork>(config_.channel, num_ranks_);
    }
    comms_.reserve(static_cast<std::size_t>(num_ranks_));
    for (int r = 0; r < num_ranks_; ++r)
      comms_.push_back(std::make_unique<SimCommunicator>(*this, r));
    finish_times_.resize(static_cast<std::size_t>(num_ranks_),
                         des::SimTime::zero());
#if SPECOMP_HB_CHECK_ENABLED
    if (config_.hb_check) hb_ = std::make_unique<HbChecker>(num_ranks_);
#endif
    if (config_.record_dists) {
      const auto p = static_cast<std::size_t>(num_ranks_);
      link_delay_.resize(p * p);
      inbound_delay_.resize(p);
      service_.resize(p);
    }
  }

  SimResult run(const RankBody& body) {
    for (int r = 0; r < num_ranks_; ++r) {
      SimCommunicator* comm = comms_[static_cast<std::size_t>(r)].get();
      comm->process_ = kernel_.spawn(
          "rank" + std::to_string(r),
          [this, comm, &body](des::Process& proc) {
            try {
              body(*comm);
            } catch (const RankCrashed&) {
              // Fail-stop: the rank simply stops executing; peers run on.
              ++fault_stats_.crashed_ranks;
            } catch (const HbViolation&) {
              // The detector's verdict is the run's outcome: stop this rank
              // and rethrow the first violation once the event loop ends.
              if (hb_violation_ == nullptr)
                hb_violation_ = std::current_exception();
            }
            finish_times_[static_cast<std::size_t>(comm->rank_)] = proc.now();
          });
    }
    if (config_.fault != nullptr) {
      // A rank blocked in a receive has no event of its own at the crash
      // instant — schedule a wake there so it resumes, notices local time
      // reached the crash time, and raises.  Late wakes of finished
      // processes are harmless no-ops.
      for (int r = 0; r < num_ranks_; ++r) {
        if (const auto t = config_.fault->crash_time(r)) {
          des::Process* proc = comms_[static_cast<std::size_t>(r)]->process_;
          kernel_.schedule_at(des::SimTime::seconds(*t),
                              [proc] { proc->wake(); });
        }
      }
    }
    SimResult result;
    try {
      result.kernel_stats = kernel_.run();
    } catch (const std::runtime_error&) {
      // A violation stops its rank and may leave peers blocked; report the
      // violation, not the deadlock it caused.
      if (hb_violation_ == nullptr) throw;
    }
    if (hb_violation_ != nullptr) std::rethrow_exception(hb_violation_);
#if SPECOMP_HB_CHECK_ENABLED
    if (hb_ != nullptr) result.hb_events_checked = hb_->events_checked();
#endif
    for (const auto t : finish_times_)
      result.makespan_seconds =
          std::max(result.makespan_seconds, t.to_seconds());
    result.timers.reserve(comms_.size());
    for (const auto& comm : comms_) result.timers.push_back(comm->timer());
    result.channel_stats = channel_->stats();
    result.trace = std::move(trace_);
    result.fault_stats = fault_stats_;
    if (config_.record_dists) {
      for (int s = 0; s < num_ranks_; ++s) {
        for (int d = 0; d < num_ranks_; ++d) {
          const obs::DistSketch& sk =
              link_delay_[static_cast<std::size_t>(s * num_ranks_ + d)];
          if (sk.count() == 0) continue;
          result.dists.push_back(obs::NamedDist{
              "link_delay." + std::to_string(s) + "->" + std::to_string(d),
              sk});
        }
      }
      for (int r = 0; r < num_ranks_; ++r) {
        const obs::DistSketch& sk = service_[static_cast<std::size_t>(r)];
        if (sk.count() == 0) continue;
        result.dists.push_back(
            obs::NamedDist{"service.rank" + std::to_string(r), sk});
      }
    }
    return result;
  }

  const SimConfig& config() const noexcept { return config_; }
  int num_ranks() const noexcept { return num_ranks_; }
  des::Kernel& kernel() noexcept { return kernel_; }
  net::Channel& channel() noexcept { return *channel_; }
  const FaultPlan* fault() const noexcept { return config_.fault.get(); }
  FaultStats& fault_stats() noexcept { return fault_stats_; }
  DeliveryOrder delivery_order() const noexcept {
    return config_.fault != nullptr && config_.fault->arrival_order_delivery()
               ? DeliveryOrder::ByArrival
               : DeliveryOrder::BySeq;
  }

  /// Parks `msg` in the slot pool and schedules its arrival at
  /// msg.delivered_at; the closure stays inline in the kernel's event
  /// storage (see the in-flight pool note below).
  void schedule_delivery(net::Message&& msg) {
    const des::SimTime at = msg.delivered_at;
    SimWorld* world = this;
    const std::uint32_t slot = inflight_acquire(std::move(msg));
    kernel_.schedule_at(at, [world, slot] {
      net::Message delivered_msg = world->inflight_release(slot);
      SimCommunicator& receiver = world->comm(delivered_msg.dst);
      receiver.deliver_from_wire(std::move(delivered_msg));
    });
  }
  des::Trace* trace() noexcept { return config_.record_trace ? &trace_ : nullptr; }
  /// nullptr unless record_dists — the same single-test guard as trace().
  obs::DistSketch* link_delay_sketch(net::Rank src, net::Rank dst) noexcept {
    if (link_delay_.empty()) return nullptr;
    return &link_delay_[static_cast<std::size_t>(src * num_ranks_ + dst)];
  }
  obs::DistSketch* service_sketch(net::Rank rank) noexcept {
    if (service_.empty()) return nullptr;
    return &service_[static_cast<std::size_t>(rank)];
  }
  /// All-peers inbound delay at `rank` — the aggregate the model-driven
  /// window policy consumes (one sketch, not p, so the per-iteration
  /// snapshot stays O(markers)).
  obs::DistSketch* inbound_delay_sketch(net::Rank rank) noexcept {
    if (inbound_delay_.empty()) return nullptr;
    return &inbound_delay_[static_cast<std::size_t>(rank)];
  }
  SimCommunicator& comm(net::Rank rank) {
    SPEC_EXPECTS(rank >= 0 && rank < num_ranks_);
    return *comms_[static_cast<std::size_t>(rank)];
  }

  // ---- In-flight message pool ----
  //
  // Messages between send and delivery live in recycled slots owned by the
  // world; the delivery event then captures only {world, slot} (16 bytes),
  // which fits the kernel's inline event storage.  Capturing the ~72-byte
  // Message directly would push every delivery closure to the heap.

  std::uint32_t inflight_acquire(net::Message&& msg) {
    if (!inflight_free_.empty()) {
      const std::uint32_t slot = inflight_free_.back();
      inflight_free_.pop_back();
      inflight_[slot] = std::move(msg);
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.push_back(std::move(msg));
    return slot;
  }

  net::Message inflight_release(std::uint32_t slot) noexcept {
    net::Message msg = std::move(inflight_[slot]);
    inflight_free_.push_back(slot);
    return msg;
  }

  // ---- Barrier (kernel-level; zero-cost synchronisation primitive) ----

  void barrier_arrive(SimCommunicator& comm) {
    const std::uint64_t my_generation = barrier_generation_;
    if (++barrier_count_ == num_ranks_) {
      barrier_count_ = 0;
      ++barrier_generation_;
#if SPECOMP_HB_CHECK_ENABLED
      // The barrier synchronises every rank: join all vector clocks before
      // anyone proceeds.
      if (hb_ != nullptr) hb_->on_barrier();
#endif
      for (auto& other : comms_)
        if (other.get() != &comm) other->process_->wake();
      return;
    }
    while (barrier_generation_ == my_generation) comm.process_->suspend();
  }

#if SPECOMP_HB_CHECK_ENABLED
  HbChecker* hb() noexcept { return hb_.get(); }
#endif

 private:
  SimConfig config_;
  int num_ranks_;
  des::Kernel kernel_;
  std::unique_ptr<net::Channel> channel_;
  std::vector<std::unique_ptr<SimCommunicator>> comms_;
  std::vector<des::SimTime> finish_times_;
  std::vector<net::Message> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  des::Trace trace_;
  FaultStats fault_stats_;
  std::vector<obs::DistSketch> link_delay_;     // p×p, row-major by src
  std::vector<obs::DistSketch> inbound_delay_;  // per dst, all srcs folded
  std::vector<obs::DistSketch> service_;        // per rank
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::exception_ptr hb_violation_;  // first HbViolation a rank raised
#if SPECOMP_HB_CHECK_ENABLED
  std::unique_ptr<HbChecker> hb_;
#endif
};

SimCommunicator::SimCommunicator(SimWorld& world, net::Rank rank)
    : world_(world),
      rank_(rank),
      mailbox_(world.num_ranks(), world.delivery_order()) {
  set_collective_algo(world.config().collective);
  if (const FaultPlan* fault = world.fault())
    crash_at_seconds_ = fault->crash_time(rank);
}

int SimCommunicator::size() const { return world_.num_ranks(); }

double SimCommunicator::ops_per_sec() const {
  return world_.config().cluster.machine(static_cast<std::size_t>(rank_)).ops_per_sec;
}

des::SpanKind SimCommunicator::span_kind_for(Phase phase) const {
  switch (phase) {
    case Phase::Compute:
      if (degraded_) return des::SpanKind::DegradedCompute;
      return speculative_ ? des::SpanKind::SpeculativeCompute
                          : des::SpanKind::Compute;
    case Phase::Communicate: return des::SpanKind::Wait;
    case Phase::Speculate: return des::SpanKind::Speculate;
    case Phase::Check: return des::SpanKind::Check;
    case Phase::Correct: return des::SpanKind::Correct;
    case Phase::Send: return des::SpanKind::Send;
    case Phase::kCount: break;
  }
  return des::SpanKind::Other;
}

void SimCommunicator::advance_traced(des::SimTime dt, Phase phase) {
  const des::SimTime begin = process_->now();
  process_->advance(dt);
  timer_.add(phase, dt);
  if (des::Trace* trace = world_.trace()) {
    trace->add_span(static_cast<std::uint64_t>(rank_), span_kind_for(phase),
                    begin, process_->now());
  }
  if (phase == Phase::Compute) {
    if (obs::DistSketch* dist = world_.service_sketch(rank_))
      dist->observe(dt.to_seconds());
  }
}

void SimCommunicator::mark_degraded(bool on) {
  if (on != degraded_) {
    if (des::Trace* trace = world_.trace()) {
      des::CausalEvent ev;
      ev.lane = static_cast<std::uint64_t>(rank_);
      ev.kind = on ? des::CausalKind::DegradedEnter
                   : des::CausalKind::DegradedExit;
      ev.at = process_->now();
      trace->add_causal(ev);
    }
  }
  degraded_ = on;
}

void SimCommunicator::trace_causal(des::CausalKind kind, int peer,
                                   std::int64_t iter) {
  if (des::Trace* trace = world_.trace()) {
    des::CausalEvent ev;
    ev.lane = static_cast<std::uint64_t>(rank_);
    ev.kind = kind;
    ev.at = process_->now();
    ev.peer = peer;
    ev.iter = iter;
    trace->add_causal(ev);
  }
}

void SimCommunicator::send(net::Rank dst, int tag,
                           std::vector<std::byte> payload) {
  SPEC_EXPECTS(dst >= 0 && dst < world_.num_ranks());
  SPEC_EXPECTS(dst != rank_);
  maybe_crash();
  // Send-side software overhead (PVM pack + syscall) occupies this CPU.
  advance_traced(world_.config().send_sw_time, Phase::Send);

  net::Message msg;
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  msg.seq = next_seq_++;
  msg.sent_at = process_->now();
  msg.payload = std::move(payload);
  if (des::Trace* trace = world_.trace()) {
    // Emitted before the fault plan is consulted: a Send edge with no
    // matching Recv is exactly how a lost (norecovery) message shows up in
    // the causal record.
    des::CausalEvent ev;
    ev.lane = static_cast<std::uint64_t>(rank_);
    ev.kind = des::CausalKind::Send;
    ev.at = msg.sent_at;
    ev.peer = dst;
    ev.tag = tag;
    ev.seq = msg.seq;
    trace->add_causal(ev);
  }

  FaultPlan::SendOutcome outcome;
  const FaultPlan* fault = world_.fault();
  if (fault != nullptr && fault->has_link_faults()) {
    outcome = fault->on_send(rank_, dst, tag, msg.seq);
    FaultStats& fs = world_.fault_stats();
    fs.injected_drops += outcome.drops;
    fs.retransmits += outcome.retransmits;
    if (outcome.duplicated) ++fs.injected_duplicates;
    if (outcome.reordered) ++fs.injected_reorders;
    if (outcome.lost) {
      // Recovery off: the transmission vanishes at the sender's NIC — no
      // delivery event, no channel occupancy, and no happens-before send
      // record (the detector must never see a send that cannot arrive).
      ++fs.messages_lost;
      net::BufferPool::local().release(std::move(msg.payload));
      return;
    }
  }

  des::SimTime delivered = world_.channel().post(msg, process_->now());
  // Retransmit backoff and reorder hold resolve to a plain delivery delay:
  // the application only ever observes a late message, which is exactly the
  // misbehaviour speculation is claimed to mask.
  if (outcome.extra_delay_seconds > 0.0)
    delivered += des::SimTime::seconds(outcome.extra_delay_seconds);
  if (fault != nullptr && fault->recovery() && fault->has_link_faults()) {
    // Head-of-line blocking of an in-order reliable transport: a message
    // the plan delayed floors the delivery of every later send on its
    // (dst, tag) stream, so injected faults never invert send order (the
    // mailbox can only reassemble what has already arrived).  Floors are
    // created exclusively by fault-delayed messages, so a plan whose rules
    // never fire leaves all delivery times — and the whole SimResult —
    // byte-identical to a fault-free run.
    const std::uint64_t stream =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32 |
        static_cast<std::uint32_t>(tag);
    if (const auto it = delivery_floor_.find(stream);
        it != delivery_floor_.end() && delivered < it->second) {
      delivered = it->second;
    }
    if (outcome.extra_delay_seconds > 0.0) delivery_floor_[stream] = delivered;
  }
  msg.delivered_at = delivered;

#if SPECOMP_HB_CHECK_ENABLED
  // Recorded before the delivery event is scheduled, so the receive-side
  // check can never observe a send that does not exist yet.
  if (HbChecker* hb = world_.hb()) hb->on_send(rank_, dst, tag, msg.seq);
#endif

  if (outcome.duplicated) {
    // The network manufactures a second copy arriving shortly after the
    // first; the receiver's dedup filter (recovery on) or the application
    // (recovery off) deals with it.
    net::Message copy = msg;
    copy.delivered_at = delivered + des::SimTime::seconds(
                                        fault->config().duplicate_offset_seconds);
    world_.schedule_delivery(std::move(copy));
  }
  world_.schedule_delivery(std::move(msg));
}

void SimCommunicator::deliver_from_wire(net::Message&& msg) {
  const FaultPlan* fault = world_.fault();
  if (fault != nullptr && fault->wants_dedup() &&
      fault->on_send(msg.src, rank_, msg.tag, msg.seq).duplicated) {
    // on_send is a pure hash of the message identity, so recomputing it
    // here answers "does this message have two copies in flight?" without
    // any sender→receiver side channel.
    const std::tuple<net::Rank, int, std::uint64_t> key{msg.src, msg.tag,
                                                        msg.seq};
    const auto it =
        std::find(pending_dups_.begin(), pending_dups_.end(), key);
    if (it != pending_dups_.end()) {
      // Second copy: the filter restores at-most-once delivery.
      pending_dups_.erase(it);
      ++world_.fault_stats().duplicates_suppressed;
      net::BufferPool::local().release(std::move(msg.payload));
      return;
    }
    pending_dups_.push_back(key);
  }
  // Sampled at delivery (not consumption), so a message the application
  // never matches still contributes its link delay.
  if (obs::DistSketch* dist = world_.link_delay_sketch(msg.src, rank_)) {
    const double delay = (msg.delivered_at - msg.sent_at).to_seconds();
    dist->observe(delay);
    world_.inbound_delay_sketch(rank_)->observe(delay);
  }
  mailbox_.push(std::move(msg));
  process_->wake();
}

void SimCommunicator::note_recv_causal(const net::Message& msg) {
  if (des::Trace* trace = world_.trace()) {
    des::CausalEvent ev;
    ev.lane = static_cast<std::uint64_t>(rank_);
    ev.kind = des::CausalKind::Recv;
    ev.at = process_->now();
    ev.peer = msg.src;
    ev.tag = msg.tag;
    ev.seq = msg.seq;
    ev.t2 = msg.delivered_at;
    trace->add_causal(ev);
  }
}

void SimCommunicator::maybe_crash() {
  if (crash_at_seconds_ &&
      process_->now().to_seconds() >= *crash_at_seconds_) {
    throw RankCrashed{};
  }
}

bool SimCommunicator::try_recv(net::Rank src, int tag, net::Message& out) {
  maybe_crash();
  // The mailbox indexes per-(src, tag) streams ordered by sender sequence
  // number, so iteration streams are consumed in send order even if jitter
  // reordered deliveries.
  if (!mailbox_.take(src, tag, out)) return false;
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb()) {
    hb->on_receive_sim(rank_, out.src, out.tag, out.seq,
                       out.sent_at.to_seconds(), out.delivered_at.to_seconds(),
                       process_->now().to_seconds());
  }
#endif
  note_recv_causal(out);
  return true;
}

void SimCommunicator::note_received(const net::Message& msg,
                                    des::SimTime wait_begin) {
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb()) {
    hb->on_receive_sim(rank_, msg.src, msg.tag, msg.seq,
                       msg.sent_at.to_seconds(), msg.delivered_at.to_seconds(),
                       process_->now().to_seconds());
  }
#endif
  const des::SimTime waited = process_->now() - wait_begin;
  timer_.add(Phase::Communicate, waited);
  note_recv_causal(msg);
  if (des::Trace* trace = world_.trace();
      trace != nullptr && waited > des::SimTime::zero()) {
    trace->add_span(static_cast<std::uint64_t>(rank_), des::SpanKind::Wait,
                    wait_begin, process_->now());
  }
}

net::Message SimCommunicator::recv_blocking(bool any, net::Rank src, int tag) {
  const des::SimTime begin = process_->now();
  net::Message msg;
  for (;;) {
    maybe_crash();
    if (any ? mailbox_.take_any(tag, msg) : mailbox_.take(src, tag, msg)) {
      note_received(msg, begin);
      return msg;
    }
    process_->suspend();
  }
}

bool SimCommunicator::recv_timeout(net::Rank src, int tag,
                                   double timeout_seconds, net::Message& out) {
  if (timeout_seconds < 0.0) {
    out = recv(src, tag);
    return true;
  }
  const des::SimTime begin = process_->now();
  const des::SimTime deadline = begin + des::SimTime::seconds(timeout_seconds);
  // One wake at the deadline so a suspended receiver resumes to time out;
  // if the message arrives first, the leftover wake of a non-suspended (or
  // finished) process is a harmless no-op.
  des::Process* proc = process_;
  world_.kernel().schedule_at(deadline, [proc] { proc->wake(); });
  net::Message msg;
  for (;;) {
    maybe_crash();
    if (mailbox_.take(src, tag, msg)) {
      note_received(msg, begin);
      out = std::move(msg);
      return true;
    }
    if (process_->now() >= deadline) {
      const des::SimTime waited = process_->now() - begin;
      timer_.add(Phase::Communicate, waited);
      if (des::Trace* trace = world_.trace();
          trace != nullptr && waited > des::SimTime::zero()) {
        trace->add_span(static_cast<std::uint64_t>(rank_), des::SpanKind::Wait,
                        begin, process_->now());
      }
      return false;
    }
    process_->suspend();
  }
}

net::Message SimCommunicator::recv(net::Rank src, int tag) {
  return recv_blocking(/*any=*/false, src, tag);
}

net::Message SimCommunicator::recv_any(int tag) {
  return recv_blocking(/*any=*/true, /*src=*/-1, tag);
}

void SimCommunicator::barrier() {
  maybe_crash();
  // Tree: a dissemination barrier made of real messages, so the
  // synchronisation itself costs send overhead and channel delays (and shows
  // up in traces).  Flat: the kernel-level primitive — instantaneous, the
  // pre-existing behaviour.
  if (resolve_collective_algo(collective_algo(), world_.num_ranks()) ==
      CollectiveAlgo::Tree) {
    dissemination_barrier(*this, kBarrierTag);
    return;
  }
  world_.barrier_arrive(*this);
}

void SimCommunicator::compute(double ops, Phase phase) {
  SPEC_EXPECTS(ops >= 0.0);
  const FaultPlan* fault = world_.fault();
  if (fault == nullptr) {
    // Fault-free fast path: the exact pre-fault arithmetic, so unfaulted
    // runs stay byte-identical and pay one pointer test.
    advance_traced(des::SimTime::seconds(ops / ops_per_sec()), phase);
    return;
  }
  maybe_crash();
  double seconds = ops / ops_per_sec();
  if (fault->has_compute_faults()) {
    const double now = process_->now().to_seconds();
    FaultStats& fs = world_.fault_stats();
    const double multiplier =
        fault->compute_multiplier(rank_, now, compute_draw_++);
    if (multiplier != 1.0) {
      seconds *= multiplier;
      ++fs.slowdown_charges;
    }
    const double stall =
        fault->take_due_stalls(rank_, now, stall_cursor_, &fs.stalls);
    if (stall > 0.0) {
      seconds += stall;
      if (des::Trace* trace = world_.trace()) {
        // Anchors spectrace's delay-propagation analysis: the injected
        // one-off delay fires here, at this rank, for t2 seconds.
        des::CausalEvent ev;
        ev.lane = static_cast<std::uint64_t>(rank_);
        ev.kind = des::CausalKind::Stall;
        ev.at = process_->now();
        ev.t2 = des::SimTime::seconds(stall);
        trace->add_causal(ev);
      }
    }
  }
  if (crash_at_seconds_ &&
      process_->now().to_seconds() + seconds >= *crash_at_seconds_) {
    // The charge crosses the crash instant: truncate it there and stop.
    const double until = *crash_at_seconds_ - process_->now().to_seconds();
    if (until > 0.0) advance_traced(des::SimTime::seconds(until), phase);
    throw RankCrashed{};
  }
  advance_traced(des::SimTime::seconds(seconds), phase);
}

double SimCommunicator::time_seconds() const {
  return process_->now().to_seconds();
}

DistSnapshot SimCommunicator::dist_snapshot() const {
  DistSnapshot snap;
  const obs::DistSketch* delay = world_.inbound_delay_sketch(rank_);
  const obs::DistSketch* service = world_.service_sketch(rank_);
  if (delay == nullptr || service == nullptr) return snap;  // dists off
  snap.valid = true;
  snap.delay_samples = delay->count();
  snap.delay_p50 = delay->quantile(0.5);
  snap.delay_p90 = delay->quantile(0.9);
  snap.delay_p99 = delay->quantile(0.99);
  snap.service_samples = service->count();
  snap.service_p50 = service->quantile(0.5);
  snap.service_p90 = service->quantile(0.9);
  snap.service_p99 = service->quantile(0.99);
  return snap;
}

}  // namespace detail

SimResult run_simulated(const SimConfig& config, const RankBody& body) {
#if !SPECOMP_HB_CHECK_ENABLED
  if (config.hb_check) {
    std::fprintf(stderr,
                 "specomp: hb_check requested but this build compiled the "
                 "detector out — reconfigure with -DSPECOMP_HB_CHECK=ON\n");
  }
#endif
  detail::SimWorld world(config);
  return world.run(body);
}

}  // namespace specomp::runtime
