// Happens-before detector tests.
//
// The HbChecker class is compiled in every configuration, so the direct
// violation tests below always run.  The communicator hooks exist only under
// -DSPECOMP_HB_CHECK=ON; the integration tests for clean end-to-end runs are
// gated on SPECOMP_HB_CHECK_ENABLED, and the "detector off checks nothing"
// test runs in every configuration (that claim must hold in both).
#include "runtime/hb_check.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/serialization.hpp"
#include "runtime/sim_comm.hpp"
#include "runtime/thread_comm.hpp"

namespace specomp::runtime {
namespace {

// Runs `fn` and returns the HbViolation diagnostic it must throw.
template <typename Fn>
std::string diagnostic_of(Fn&& fn) {
  try {
    fn();
  } catch (const HbViolation& violation) {
    return violation.what();
  }
  ADD_FAILURE() << "expected an HbViolation";
  return {};
}

TEST(HbChecker, CleanStreamMergesClocks) {
  HbChecker hb(2);
  hb.on_send(/*src=*/0, /*dst=*/1, /*tag=*/7, /*seq=*/0);
  hb.on_receive(/*dst=*/1, /*src=*/0, /*tag=*/7, /*seq=*/0);
  // Send ticked rank 0; receive merged that stamp into rank 1 and ticked it.
  EXPECT_EQ(hb.clock(0), (VectorClock{1, 0}));
  EXPECT_EQ(hb.clock(1), (VectorClock{1, 1}));
  EXPECT_EQ(hb.events_checked(), 2u);
}

TEST(HbChecker, FifoStreamInOrderPasses) {
  HbChecker hb(2);
  for (std::uint64_t seq = 0; seq < 5; ++seq) hb.on_send(0, 1, 3, seq);
  for (std::uint64_t seq = 0; seq < 5; ++seq)
    EXPECT_NO_THROW(hb.on_receive(1, 0, 3, seq));
  EXPECT_EQ(hb.events_checked(), 10u);
}

TEST(HbChecker, DistinctTagsAreIndependentStreams) {
  HbChecker hb(2);
  hb.on_send(0, 1, /*tag=*/1, /*seq=*/0);
  hb.on_send(0, 1, /*tag=*/2, /*seq=*/1);
  // Consuming tag 2 first is fine: FIFO is per (src, dst, tag) stream.
  EXPECT_NO_THROW(hb.on_receive(1, 0, 2, 1));
  EXPECT_NO_THROW(hb.on_receive(1, 0, 1, 0));
}

TEST(HbChecker, PhantomMessageFlagged) {
  HbChecker hb(2);
  const std::string what =
      diagnostic_of([&] { hb.on_receive(1, 0, 7, 42); });
  EXPECT_NE(what.find("phantom message"), std::string::npos) << what;
  EXPECT_NE(what.find("seq=42"), std::string::npos) << what;
}

TEST(HbChecker, DuplicateDeliveryFlagged) {
  HbChecker hb(2);
  hb.on_send(0, 1, 7, 0);
  hb.on_receive(1, 0, 7, 0);
  const std::string what = diagnostic_of([&] { hb.on_receive(1, 0, 7, 0); });
  EXPECT_NE(what.find("duplicate delivery"), std::string::npos) << what;
}

TEST(HbChecker, StreamInversionCarriesCausalPath) {
  HbChecker hb(2);
  hb.on_send(0, 1, 7, /*seq=*/0);
  hb.on_send(0, 1, 7, /*seq=*/1);
  // Consuming seq=1 while seq=0 is outstanding inverts the stream order.
  const std::string what = diagnostic_of([&] { hb.on_receive(1, 0, 7, 1); });
  // The diagnostic names both sends, their vector clocks, and the relation.
  EXPECT_NE(what.find("send(seq=0) by rank 0 at clock [1,0]"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("happens-before send(seq=1) at clock [2,0]"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("observed them inverted"), std::string::npos) << what;
}

TEST(HbChecker, SimTimeTravelFlagged) {
  HbChecker hb(2);
  hb.on_send(0, 1, 7, 0);
  // Consumed at virtual time 1.0 although delivery happens at 2.0.
  const std::string what = diagnostic_of([&] {
    hb.on_receive_sim(1, 0, 7, 0, /*sent_at=*/0.5, /*delivered_at=*/2.0,
                      /*now=*/1.0);
  });
  EXPECT_NE(what.find("cannot exist yet"), std::string::npos) << what;
}

TEST(HbChecker, SimChannelInversionFlagged) {
  HbChecker hb(2);
  hb.on_send(0, 1, 7, 0);
  const std::string what = diagnostic_of([&] {
    hb.on_receive_sim(1, 0, 7, 0, /*sent_at=*/3.0, /*delivered_at=*/2.0,
                      /*now=*/4.0);
  });
  EXPECT_NE(what.find("inverted virtual time"), std::string::npos) << what;
}

TEST(HbChecker, SimSaneTimestampsPass) {
  HbChecker hb(2);
  hb.on_send(0, 1, 7, 0);
  EXPECT_NO_THROW(hb.on_receive_sim(1, 0, 7, 0, 0.5, 2.0, 2.0));
}

TEST(HbChecker, BarrierJoinsAllClocks) {
  HbChecker hb(3);
  hb.on_send(0, 1, 1, 0);  // rank 0 ticks twice
  hb.on_send(0, 1, 1, 1);
  hb.on_send(2, 0, 1, 0);  // rank 2 ticks once
  hb.on_barrier();
  // Join = elementwise max [2,0,1]; then every rank ticks its own entry.
  EXPECT_EQ(hb.clock(0), (VectorClock{3, 0, 1}));
  EXPECT_EQ(hb.clock(1), (VectorClock{2, 1, 1}));
  EXPECT_EQ(hb.clock(2), (VectorClock{2, 0, 2}));
}

// ---- End-to-end integration (communicator hooks) ----

SimConfig jittered_sim_config(std::size_t p) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(p, 1e6);
  config.channel.propagation = des::SimTime::millis(5);
  config.channel.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(3));
  config.send_sw_time = des::SimTime::seconds(1e-5);
  return config;
}

// Fig-8-style iterative all-to-all: every rank broadcasts its value, waits
// for all peers, computes, and hits a barrier — the communication pattern of
// the speculative N-body loop.
void all_to_all_body(Communicator& comm) {
  const int p = comm.size();
  for (int iteration = 0; iteration < 5; ++iteration) {
    const std::vector<double> payload{
        static_cast<double>(comm.rank() + iteration)};
    for (int dst = 0; dst < p; ++dst)
      if (dst != comm.rank()) comm.send_doubles(dst, iteration, payload);
    for (int src = 0; src < p; ++src)
      if (src != comm.rank()) (void)comm.recv_doubles(src, iteration);
    comm.compute(1e4);
    comm.barrier();
  }
}

#if SPECOMP_HB_CHECK_ENABLED

TEST(HbIntegration, CleanSimulatedRunPasses) {
  SimConfig config = jittered_sim_config(4);
  config.hb_check = true;
  SimResult result;
  EXPECT_NO_THROW(result = run_simulated(config, all_to_all_body));
  EXPECT_GT(result.makespan_seconds, 0.0);
}

TEST(HbIntegration, DetectorDoesNotPerturbVirtualTime) {
  SimConfig config = jittered_sim_config(4);
  config.hb_check = false;
  const double makespan_off = run_simulated(config, all_to_all_body).makespan_seconds;
  config.hb_check = true;
  const double makespan_on = run_simulated(config, all_to_all_body).makespan_seconds;
  EXPECT_DOUBLE_EQ(makespan_on, makespan_off);
}

TEST(HbIntegration, CleanThreadedRunPasses) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(4, 1e6);
  config.latency_seconds = 1e-4;
  config.latency_jitter_seconds = 2e-4;
  config.hb_check = true;
  EXPECT_NO_THROW(run_threaded(config, all_to_all_body));
}

TEST(HbIntegration, EventsCheckedSurfacedAsMetric) {
  SimConfig config = jittered_sim_config(2);
  config.hb_check = true;
  const SimResult result = run_simulated(config, all_to_all_body);
  // 5 iterations x (1 send + 1 receive per rank) + 5 barriers = 25 events.
  EXPECT_EQ(result.hb_events_checked, 25u);
}

#endif  // SPECOMP_HB_CHECK_ENABLED

// Holds in every configuration: with hb_check off the run reports no
// detector work (and in default builds the hooks are not even compiled, so
// this is trivially the no-cost path).
TEST(HbIntegration, DetectorOffLeavesNoMetricsTrace) {
  SimConfig config = jittered_sim_config(2);
  config.hb_check = false;
  const SimResult result = run_simulated(config, all_to_all_body);
  EXPECT_GT(result.makespan_seconds, 0.0);
  EXPECT_GT(result.kernel_stats.events_executed, 0u);
  EXPECT_EQ(result.hb_events_checked, 0u);
}

}  // namespace
}  // namespace specomp::runtime
