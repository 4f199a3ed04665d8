#include "runtime/thread_comm.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "runtime/collectives.hpp"
#include "runtime/hb_check.hpp"
#include "runtime/mailbox.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace specomp::runtime {

namespace {

// specomp: allow(wall-clock): the thread backend measures genuine wall time by design; SimCommunicator is the deterministic instrument
using Clock = std::chrono::steady_clock;

des::SimTime elapsed_since(Clock::time_point start) {
  return des::SimTime::seconds(
      std::chrono::duration<double>(Clock::now() - start).count());
}

class ThreadWorld;

class ThreadCommunicator final : public Communicator {
 public:
  ThreadCommunicator(ThreadWorld& world, net::Rank rank);

  net::Rank rank() const override { return rank_; }
  int size() const override;
  double ops_per_sec() const override;
  void send(net::Rank dst, int tag, std::vector<std::byte> payload) override;
  bool try_recv(net::Rank src, int tag, net::Message& out) override;
  net::Message recv(net::Rank src, int tag) override;
  net::Message recv_any(int tag) override;
  bool recv_timeout(net::Rank src, int tag, double timeout_seconds,
                    net::Message& out) override;
  void barrier() override;
  void compute(double ops, Phase phase) override;
  double time_seconds() const override;
  void trace_causal(des::CausalKind kind, int peer = -1,
                    std::int64_t iter = -1) override;

 private:
  friend class ThreadWorld;

  /// Raises RankCrashed once wall time since run start reaches this rank's
  /// scripted crash time.
  void maybe_crash() const;
  /// Causal Send/Recv edge endpoint; no-op unless the world records a trace.
  void note_msg_causal(des::CausalKind kind, net::Rank peer, int tag,
                       std::uint64_t seq);

  ThreadWorld& world_;
  net::Rank rank_;
  std::uint64_t next_seq_ = 0;
  std::optional<double> crash_at_seconds_;
  std::uint64_t compute_draw_ = 0;
  std::size_t stall_cursor_ = 0;
  /// Per-(dst, tag) in-order delivery floors; entries exist only for
  /// streams a fault delayed (see send()).
  std::unordered_map<std::uint64_t, Clock::time_point> delivery_floor_;
};

class ThreadWorld {
 public:
  explicit ThreadWorld(const ThreadConfig& config)
      : config_(config),
        num_ranks_(static_cast<int>(config.cluster.size())),
        rng_(config.seed),
        start_(Clock::now()) {
    SPEC_EXPECTS(num_ranks_ > 0);
    const DeliveryOrder order =
        config_.fault != nullptr && config_.fault->arrival_order_delivery()
            ? DeliveryOrder::ByArrival
            : DeliveryOrder::BySeq;
    mailboxes_.reserve(config.cluster.size());
    for (int r = 0; r < num_ranks_; ++r)
      mailboxes_.push_back(std::make_unique<TimedMailbox>(num_ranks_, order));
#if SPECOMP_HB_CHECK_ENABLED
    if (config_.hb_check) hb_ = std::make_unique<HbChecker>(num_ranks_);
#endif
  }

#if SPECOMP_HB_CHECK_ENABLED
  HbChecker* hb() noexcept { return hb_.get(); }
#endif

  const ThreadConfig& config() const noexcept { return config_; }
  int num_ranks() const noexcept { return num_ranks_; }
  Clock::time_point start() const noexcept { return start_; }
  const FaultPlan* fault() const noexcept { return config_.fault.get(); }

  /// Folds a per-thread stats delta into the run totals.
  void merge_fault(const FaultStats& delta) {
    const std::lock_guard<std::mutex> lock(fault_mutex_);
    fault_stats_.merge(delta);
  }
  FaultStats fault_stats() {
    const std::lock_guard<std::mutex> lock(fault_mutex_);
    return fault_stats_;
  }
  TimedMailbox& mailbox(net::Rank rank) {
    SPEC_EXPECTS(rank >= 0 && rank < num_ranks_);
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }

  bool tracing() const noexcept { return config_.record_trace; }
  /// Serialises appends from all rank threads; callers pre-check tracing()
  /// so untraced runs never touch the mutex.
  void add_causal(const des::CausalEvent& event) {
    const std::lock_guard<std::mutex> lock(trace_mutex_);
    trace_.add_causal(event);
  }
  des::Trace take_trace() { return std::move(trace_); }

  Clock::duration sample_latency() {
    const std::lock_guard<std::mutex> lock(rng_mutex_);
    const double seconds =
        config_.latency_seconds +
        (config_.latency_jitter_seconds > 0.0
             ? rng_.uniform(0.0, config_.latency_jitter_seconds)
             : 0.0);
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  void barrier_arrive() {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    const std::uint64_t my_generation = barrier_generation_;
    if (++barrier_count_ == num_ranks_) {
      barrier_count_ = 0;
      ++barrier_generation_;
#if SPECOMP_HB_CHECK_ENABLED
      // Join all clocks while still holding the barrier mutex: no waiter can
      // resume (and issue new sends) before the merge completes.
      if (hb_ != nullptr) hb_->on_barrier();
#endif
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lock,
                     [&] { return barrier_generation_ != my_generation; });
  }

 private:
  ThreadConfig config_;
  int num_ranks_;
  std::vector<std::unique_ptr<TimedMailbox>> mailboxes_;
  std::mutex rng_mutex_;
  support::Xoshiro256 rng_;
  Clock::time_point start_;
  std::mutex fault_mutex_;
  FaultStats fault_stats_;  // guarded by fault_mutex_
  std::mutex trace_mutex_;
  des::Trace trace_;  // guarded by trace_mutex_
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
#if SPECOMP_HB_CHECK_ENABLED
  std::unique_ptr<HbChecker> hb_;
#endif
};

ThreadCommunicator::ThreadCommunicator(ThreadWorld& world, net::Rank rank)
    : world_(world), rank_(rank) {
  set_collective_algo(world.config().collective);
  if (const FaultPlan* fault = world.fault())
    crash_at_seconds_ = fault->crash_time(rank);
}

void ThreadCommunicator::maybe_crash() const {
  if (crash_at_seconds_ && time_seconds() >= *crash_at_seconds_)
    throw RankCrashed{};
}

void ThreadCommunicator::note_msg_causal(des::CausalKind kind, net::Rank peer,
                                         int tag, std::uint64_t seq) {
  if (!world_.tracing()) return;
  des::CausalEvent ev;
  ev.lane = static_cast<std::uint64_t>(rank_);
  ev.kind = kind;
  ev.at = des::SimTime::seconds(time_seconds());
  ev.peer = peer;
  ev.tag = tag;
  ev.seq = seq;
  world_.add_causal(ev);
}

void ThreadCommunicator::trace_causal(des::CausalKind kind, int peer,
                                      std::int64_t iter) {
  if (!world_.tracing()) return;
  des::CausalEvent ev;
  ev.lane = static_cast<std::uint64_t>(rank_);
  ev.kind = kind;
  ev.at = des::SimTime::seconds(time_seconds());
  ev.peer = peer;
  ev.iter = iter;
  world_.add_causal(ev);
}

int ThreadCommunicator::size() const { return world_.num_ranks(); }

double ThreadCommunicator::ops_per_sec() const {
  return world_.config().cluster.machine(static_cast<std::size_t>(rank_)).ops_per_sec;
}

void ThreadCommunicator::send(net::Rank dst, int tag,
                              std::vector<std::byte> payload) {
  SPEC_EXPECTS(dst >= 0 && dst < world_.num_ranks());
  SPEC_EXPECTS(dst != rank_);
  maybe_crash();
  net::Message msg;
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  msg.seq = next_seq_++;
  msg.payload = std::move(payload);
  note_msg_causal(des::CausalKind::Send, dst, tag, msg.seq);

  FaultPlan::SendOutcome outcome;
  const FaultPlan* fault = world_.fault();
  if (fault != nullptr && fault->has_link_faults()) {
    outcome = fault->on_send(rank_, dst, tag, msg.seq);
    FaultStats delta;
    delta.injected_drops = outcome.drops;
    delta.retransmits = outcome.retransmits;
    if (outcome.duplicated) delta.injected_duplicates = 1;
    if (outcome.reordered) delta.injected_reorders = 1;
    if (outcome.lost) delta.messages_lost = 1;
    if (outcome.duplicated && fault->recovery()) {
      // On this backend the dedup filter is modelled at the sender's NIC:
      // the second copy is created and immediately suppressed, so only one
      // copy ever travels (the simulated backend delivers both and filters
      // at the receiver — same observable behaviour, fewer shared-state
      // races here).
      delta.duplicates_suppressed = 1;
    }
    world_.merge_fault(delta);
    if (outcome.lost) return;  // recovery off: the message vanishes
  }

  auto deliver_at =
      Clock::now() + world_.sample_latency() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(outcome.extra_delay_seconds));
  if (fault != nullptr && fault->recovery() && fault->has_link_faults()) {
    // Head-of-line blocking of an in-order reliable transport (mirrors the
    // simulated backend): a fault-delayed message floors every later send
    // on its (dst, tag) stream so injected faults never invert send order.
    const std::uint64_t stream =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32 |
        static_cast<std::uint32_t>(tag);
    if (const auto it = delivery_floor_.find(stream);
        it != delivery_floor_.end() && deliver_at < it->second) {
      deliver_at = it->second;
    }
    if (outcome.extra_delay_seconds > 0.0) delivery_floor_[stream] = deliver_at;
  }
#if SPECOMP_HB_CHECK_ENABLED
  // Recorded before the message becomes receivable: once deliver() runs the
  // receiver may consume it concurrently, and its check must find the send.
  if (HbChecker* hb = world_.hb()) hb->on_send(rank_, dst, tag, msg.seq);
#endif
  if (outcome.duplicated && !fault->recovery()) {
    net::Message copy = msg;
    world_.mailbox(dst).deliver(
        std::move(copy),
        deliver_at + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             fault->config().duplicate_offset_seconds)));
  }
  world_.mailbox(dst).deliver(std::move(msg), deliver_at);
}

bool ThreadCommunicator::try_recv(net::Rank src, int tag, net::Message& out) {
  auto msg = world_.mailbox(rank_).try_take(src, tag);
  if (!msg) return false;
  out = std::move(*msg);
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb())
    hb->on_receive(rank_, out.src, out.tag, out.seq);
#endif
  note_msg_causal(des::CausalKind::Recv, out.src, out.tag, out.seq);
  return true;
}

net::Message ThreadCommunicator::recv(net::Rank src, int tag) {
  const auto begin = Clock::now();
  net::Message msg;
  if (crash_at_seconds_) {
    // Bound the wait by the crash instant so a blocked rank still dies on
    // schedule instead of waiting out a message that may never come.
    const auto crash_deadline =
        world_.start() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(*crash_at_seconds_));
    auto taken =
        world_.mailbox(rank_).take_blocking_until(src, tag, crash_deadline);
    if (!taken) throw RankCrashed{};
    msg = std::move(*taken);
  } else {
    msg = world_.mailbox(rank_).take_blocking(src, tag);
  }
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb())
    hb->on_receive(rank_, msg.src, msg.tag, msg.seq);
#endif
  const des::SimTime waited = elapsed_since(begin);
  timer_.add(Phase::Communicate, waited);
  note_msg_causal(des::CausalKind::Recv, msg.src, msg.tag, msg.seq);
  return msg;
}

bool ThreadCommunicator::recv_timeout(net::Rank src, int tag,
                                      double timeout_seconds,
                                      net::Message& out) {
  if (timeout_seconds < 0.0) {
    out = recv(src, tag);
    return true;
  }
  const auto begin = Clock::now();
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timeout_seconds));
  auto taken = world_.mailbox(rank_).take_blocking_until(src, tag, deadline);
  const des::SimTime waited = elapsed_since(begin);
  timer_.add(Phase::Communicate, waited);
  if (!taken) return false;
  out = std::move(*taken);
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb())
    hb->on_receive(rank_, out.src, out.tag, out.seq);
#endif
  note_msg_causal(des::CausalKind::Recv, out.src, out.tag, out.seq);
  return true;
}

net::Message ThreadCommunicator::recv_any(int tag) {
  const auto begin = Clock::now();
  net::Message msg = world_.mailbox(rank_).take_blocking_any(tag);
#if SPECOMP_HB_CHECK_ENABLED
  if (HbChecker* hb = world_.hb())
    hb->on_receive(rank_, msg.src, msg.tag, msg.seq);
#endif
  const des::SimTime waited = elapsed_since(begin);
  timer_.add(Phase::Communicate, waited);
  note_msg_causal(des::CausalKind::Recv, msg.src, msg.tag, msg.seq);
  return msg;
}

void ThreadCommunicator::barrier() {
  // Same selection as the simulated backend: Tree runs the dissemination
  // barrier over real messages (so its latency shape is observable here
  // too), Flat keeps the condition-variable world barrier.
  if (resolve_collective_algo(collective_algo(), world_.num_ranks()) ==
      CollectiveAlgo::Tree) {
    dissemination_barrier(*this, kBarrierTag);
    return;
  }
  world_.barrier_arrive();
}

void ThreadCommunicator::compute(double ops, Phase phase) {
  SPEC_EXPECTS(ops >= 0.0);
  const FaultPlan* fault = world_.fault();
  const auto begin = Clock::now();
  double seconds = world_.config().time_scale > 0.0
                       ? ops / ops_per_sec() * world_.config().time_scale
                       : 0.0;
  if (fault != nullptr) {
    maybe_crash();
    if (fault->has_compute_faults()) {
      const double now = time_seconds();
      FaultStats delta;
      const double multiplier =
          fault->compute_multiplier(rank_, now, compute_draw_++);
      if (multiplier != 1.0) {
        seconds *= multiplier;
        delta.slowdown_charges = 1;
      }
      seconds += fault->take_due_stalls(rank_, now, stall_cursor_,
                                        &delta.stalls);
      if (delta.slowdown_charges != 0 || delta.stalls != 0)
        world_.merge_fault(delta);
    }
    if (crash_at_seconds_ && time_seconds() + seconds >= *crash_at_seconds_) {
      // Sleep only up to the crash instant, then fail-stop.
      const double until = *crash_at_seconds_ - time_seconds();
      if (until > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(until));
      timer_.add(phase, elapsed_since(begin));
      throw RankCrashed{};
    }
  }
  if (seconds > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  timer_.add(phase, elapsed_since(begin));
}

double ThreadCommunicator::time_seconds() const {
  return elapsed_since(world_.start()).to_seconds();
}

}  // namespace

ThreadResult run_threaded(const ThreadConfig& config, const RankBody& body) {
#if !SPECOMP_HB_CHECK_ENABLED
  if (config.hb_check) {
    std::fprintf(stderr,
                 "specomp: hb_check requested but this build compiled the "
                 "detector out — reconfigure with -DSPECOMP_HB_CHECK=ON\n");
  }
#endif
  ThreadWorld world(config);
  const int p = world.num_ranks();

  std::vector<std::unique_ptr<ThreadCommunicator>> comms;
  comms.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    comms.push_back(std::make_unique<ThreadCommunicator>(world, r));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  std::vector<double> finish(static_cast<std::size_t>(p), 0.0);
  for (int r = 0; r < p; ++r) {
    ThreadCommunicator* comm = comms[static_cast<std::size_t>(r)].get();
    threads.emplace_back([comm, &body, &finish, &world, r] {
      try {
        body(*comm);
      } catch (const RankCrashed&) {
        // Fail-stop: the rank simply stops executing; peers run on.
        FaultStats delta;
        delta.crashed_ranks = 1;
        world.merge_fault(delta);
      }
      finish[static_cast<std::size_t>(r)] = comm->time_seconds();
    });
  }
  for (auto& t : threads) t.join();

  ThreadResult result;
  result.makespan_seconds = *std::max_element(finish.begin(), finish.end());
  result.timers.reserve(comms.size());
  for (const auto& comm : comms) result.timers.push_back(comm->timer());
  result.fault_stats = world.fault_stats();
  if (config.record_trace) result.trace = world.take_trace();
  return result;
}

}  // namespace specomp::runtime
