// Ordering semantics of the indexed mailboxes: per-(src, tag) streams must
// hand messages out in sender sequence order no matter how jitter reordered
// their arrival, and cross-stream selection (recv_any) must stay the old
// linear scan's lowest-(seq, arrival) rule.
#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "net/latency.hpp"
#include "net/serialization.hpp"
#include "runtime/sim_comm.hpp"

namespace specomp::runtime {
namespace {

net::Message make_msg(net::Rank src, int tag, std::uint64_t seq) {
  net::Message msg;
  msg.src = src;
  msg.dst = 0;
  msg.tag = tag;
  msg.seq = seq;
  return msg;
}

TEST(SimMailbox, TakeReturnsSendOrderUnderJitterReordering) {
  SimMailbox box(2);
  // Arrival order scrambled by "jitter": seq 2 lands first.
  for (const std::uint64_t seq : {2u, 0u, 3u, 1u}) box.push(make_msg(0, 7, seq));
  net::Message out;
  for (const std::uint64_t want : {0u, 1u, 2u, 3u}) {
    ASSERT_TRUE(box.take(0, 7, out));
    EXPECT_EQ(out.seq, want);
  }
  EXPECT_FALSE(box.take(0, 7, out));
}

TEST(SimMailbox, StreamsAreIsolatedBySourceAndTag) {
  SimMailbox box(3);
  box.push(make_msg(1, 7, 0));
  box.push(make_msg(2, 7, 0));
  box.push(make_msg(1, 9, 0));
  net::Message out;
  EXPECT_FALSE(box.take(0, 7, out));   // other source
  EXPECT_FALSE(box.take(1, 8, out));   // other tag
  ASSERT_TRUE(box.take(1, 7, out));
  EXPECT_EQ(out.src, 1);
  ASSERT_TRUE(box.take(1, 9, out));
  EXPECT_EQ(out.tag, 9);
  ASSERT_TRUE(box.take(2, 7, out));
  EXPECT_EQ(out.src, 2);
}

TEST(SimMailbox, TakeAnyPrefersLowestSeq) {
  SimMailbox box(2);
  box.push(make_msg(0, 7, 5));  // arrives first but is a later iteration
  box.push(make_msg(1, 7, 3));
  net::Message out;
  ASSERT_TRUE(box.take_any(7, out));
  EXPECT_EQ(out.src, 1);
  ASSERT_TRUE(box.take_any(7, out));
  EXPECT_EQ(out.src, 0);
}

TEST(SimMailbox, TakeAnyBreaksSeqTiesByArrivalOrder) {
  SimMailbox box(3);
  box.push(make_msg(2, 7, 4));
  box.push(make_msg(0, 7, 4));
  box.push(make_msg(1, 7, 4));
  net::Message out;
  // Equal seqs: fairness = first-arrived first-served, not rank order.
  for (const net::Rank want : {2, 0, 1}) {
    ASSERT_TRUE(box.take_any(7, out));
    EXPECT_EQ(out.src, want);
  }
}

// Iterating workloads use a fresh tag per iteration.  A drained tag must
// not stay behind in the index, or the mailbox grows with every iteration.
TEST(SimMailbox, DrainedTagsAreNotRetained) {
  constexpr int kTags = 50;
  SimMailbox box(3);
  net::Message out;
  for (int tag = 0; tag < kTags; ++tag) {
    box.push(make_msg(1, 1000 + tag, 2 * static_cast<std::uint64_t>(tag)));
    box.push(make_msg(2, 1000 + tag, 2 * static_cast<std::uint64_t>(tag)));
    box.push(make_msg(1, 1000 + tag, 2 * static_cast<std::uint64_t>(tag) + 1));
    EXPECT_EQ(box.live_tags(), 1u);
    ASSERT_TRUE(box.take(1, 1000 + tag, out));
    ASSERT_TRUE(box.take_any(1000 + tag, out));
    EXPECT_EQ(box.live_tags(), 1u);  // one message still queued
    ASSERT_TRUE(box.take(1, 1000 + tag, out));
    EXPECT_FALSE(box.take_any(1000 + tag, out));
  }
  EXPECT_EQ(box.live_tags(), 0u);
}

// A recycled tag entry must behave like a fresh one: order and isolation
// hold for a tag that reuses the storage of a drained one.
TEST(SimMailbox, RecycledTagKeepsOrderAndIsolation) {
  SimMailbox box(2);
  net::Message out;
  box.push(make_msg(0, 1, 0));
  ASSERT_TRUE(box.take(0, 1, out));
  EXPECT_EQ(box.live_tags(), 0u);
  for (const std::uint64_t seq : {3u, 1u, 2u}) box.push(make_msg(0, 2, seq));
  box.push(make_msg(1, 2, 0));
  EXPECT_FALSE(box.take(0, 1, out));  // the drained tag stays empty
  ASSERT_TRUE(box.take_any(2, out));
  EXPECT_EQ(out.src, 1);
  for (const std::uint64_t want : {1u, 2u, 3u}) {
    ASSERT_TRUE(box.take(0, 2, out));
    EXPECT_EQ(out.seq, want);
  }
  EXPECT_EQ(box.live_tags(), 0u);
}

TEST(TimedMailbox, DrainedTagsAreNotRetained) {
  constexpr int kTags = 50;
  TimedMailbox box(3);
  const auto now = TimedMailbox::Clock::now();
  for (int tag = 0; tag < kTags; ++tag) {
    box.deliver(make_msg(1, 1000 + tag, 2 * static_cast<std::uint64_t>(tag)), now);
    box.deliver(make_msg(2, 1000 + tag, 2 * static_cast<std::uint64_t>(tag)), now);
    EXPECT_EQ(box.live_tags(), 1u);
    EXPECT_EQ(box.take_blocking(1, 1000 + tag).src, 1);
    EXPECT_EQ(box.live_tags(), 1u);
    EXPECT_EQ(box.take_blocking_any(1000 + tag).src, 2);
    EXPECT_FALSE(box.try_take_any(1000 + tag).has_value());
  }
  EXPECT_EQ(box.live_tags(), 0u);
}

TEST(TimedMailbox, MessageInvisibleUntilDeliveryTime) {
  TimedMailbox box(1);
  const auto now = TimedMailbox::Clock::now();
  box.deliver(make_msg(0, 1, 0), now + std::chrono::milliseconds(40));
  EXPECT_FALSE(box.try_take(0, 1).has_value());
  const auto msg = box.take_blocking(0, 1);  // must sleep until maturity
  EXPECT_EQ(msg.seq, 0u);
  EXPECT_GE(TimedMailbox::Clock::now(), now + std::chrono::milliseconds(40));
}

TEST(TimedMailbox, MaturedMessagesComeOutInSeqOrder) {
  TimedMailbox box(1);
  const auto now = TimedMailbox::Clock::now();
  // seq 1 matures *before* seq 0 (jitter inversion); both are visible by
  // the time we read, and seq order must win over maturity order.
  box.deliver(make_msg(0, 1, 1), now);
  box.deliver(make_msg(0, 1, 0), now + std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(box.take_blocking(0, 1).seq, 0u);
  EXPECT_EQ(box.take_blocking(0, 1).seq, 1u);
}

TEST(TimedMailbox, TakeBlockingAnyWakesOnCrossThreadDelivery) {
  TimedMailbox box(2);
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.deliver(make_msg(1, 3, 0), TimedMailbox::Clock::now());
  });
  const auto msg = box.take_blocking_any(3);
  producer.join();
  EXPECT_EQ(msg.src, 1);
}

// End-to-end: a jittery channel reorders deliveries, and once every message
// has landed the receiver drains the (src, tag) stream in send order — the
// lowest outstanding sequence number always wins, whatever the arrival
// order was.  (A receiver racing the deliveries sees the lowest seq
// *delivered so far*; draining after the jitter horizon isolates the
// ordering property itself.)
TEST(SimMailbox, SimulatedJitterDrainsInSendOrder) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  config.channel.per_message_overhead_bytes = 0;
  config.channel.extra_delay =
      std::make_shared<net::UniformJitter>(des::SimTime::millis(50));
  config.send_sw_time = des::SimTime::zero();
  std::vector<double> got;
  run_simulated(config, [&](Communicator& comm) {
    constexpr int kMessages = 32;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i)
        comm.send_doubles(1, net::kTagUser,
                          std::vector<double>{static_cast<double>(i)});
    } else {
      // 1 virtual second at 1e6 ops/s — far past wire time + max jitter,
      // so all 32 messages are in the mailbox before the first receive.
      comm.compute(1e6);
      for (int i = 0; i < kMessages; ++i)
        got.push_back(comm.recv_doubles(0, net::kTagUser).at(0));
    }
  });
  ASSERT_EQ(got.size(), 32u);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], static_cast<double>(i)) << "position " << i;
}

}  // namespace
}  // namespace specomp::runtime
