#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/handoff.hpp"
#include "sim/scheduler.hpp"

namespace xmp::net {
namespace {

/// Records every delivered packet with its arrival time.
class CaptureSink final : public PacketSink {
 public:
  explicit CaptureSink(sim::Scheduler& s) : sched_{s} {}
  void receive(Packet p) override {
    arrivals.emplace_back(sched_.now(), std::move(p));
  }
  std::vector<std::pair<sim::Time, Packet>> arrivals;

 private:
  sim::Scheduler& sched_;
};

QueueConfig droptail(std::size_t cap) {
  QueueConfig q;
  q.kind = QueueConfig::Kind::DropTail;
  q.capacity_packets = cap;
  return q;
}

Packet data_packet(std::uint64_t uid, std::uint32_t bytes = kDataPacketBytes) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  link.send(data_packet(1));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1500 B at 1 Gbps = 12 us serialization + 100 us propagation.
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::microseconds(112));
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  link.send(data_packet(1));
  link.send(data_packet(2));
  link.send(data_packet(3));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first.us(), 112);
  EXPECT_EQ(sink.arrivals[1].first.us(), 124);
  EXPECT_EQ(sink.arrivals[2].first.us(), 136);
  EXPECT_EQ(sink.arrivals[0].second.uid, 1u);
  EXPECT_EQ(sink.arrivals[2].second.uid, 3u);
}

TEST(Link, RateDeterminesThroughput) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 300'000'000, sim::Time::zero(), make_queue(droptail(1000)), sink};
  for (std::uint64_t i = 0; i < 100; ++i) link.send(data_packet(i));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 100u);
  // 100 * 1500 B at 300 Mbps = 4 ms.
  EXPECT_EQ(sink.arrivals.back().first, sim::Time::microseconds(4000));
}

TEST(Link, CountsBusyTimeAndBytes) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(5), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  link.send(data_packet(2, 60));
  sched.run();
  EXPECT_EQ(link.bytes_sent(), 1560u);
  EXPECT_EQ(link.busy_time().ns(), 12'000 + 480);
}

TEST(Link, OverflowDropsAreCounted) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(2)), sink};
  // First packet starts transmitting immediately (leaves the queue); two
  // more fill the queue; the rest drop.
  for (std::uint64_t i = 0; i < 6; ++i) link.send(data_packet(i));
  sched.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(link.queue().counters().dropped, 3u);
}

TEST(Link, SetDownDropsQueueAndInFlight) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  link.send(data_packet(2));
  // Close the link while packet 1 is still propagating.
  sched.schedule_at(sim::Time::microseconds(500), [&] { link.set_down(true); });
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_TRUE(link.is_down());
}

TEST(Link, SendWhileDownIsDropped) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(10)), sink};
  link.set_down(true);
  link.send(data_packet(1));
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(Link, ReopeningRestoresService) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  sched.schedule_at(sim::Time::microseconds(1), [&] { link.set_down(true); });
  sched.schedule_at(sim::Time::microseconds(2), [&] {
    link.set_down(false);
    link.send(data_packet(2));
  });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second.uid, 2u);
}

// Only the head of the wire's FIFO has an event in the scheduler: a
// saturated link whose propagation delay dwarfs serialization keeps dozens
// of packets in flight, yet the heap holds at most the head delivery and
// the transmit-complete. Delivery instants are those of one event per
// packet.
TEST(Link, LongWireKeepsOneDeliveryEventInTheHeap) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), make_queue(droptail(100)),
            sink};
  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) link.send(data_packet(static_cast<std::uint64_t>(i)));
  std::size_t max_pending = 0;
  std::size_t max_in_flight = 0;
  for (int us = 50; us <= 2'000; us += 50) {
    sched.run_until(sim::Time::microseconds(us));
    max_pending = std::max(max_pending, sched.pending());
    max_in_flight = std::max(max_in_flight, link.live_in_flight());
  }
  sched.run();
  EXPECT_GE(max_in_flight, 10u);
  EXPECT_LE(max_pending, 2u);
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    // Serialization of packets 0..i (12 us each at 1 Gbps), then 1 ms.
    EXPECT_EQ(sink.arrivals[static_cast<std::size_t>(i)].first,
              sim::Time::microseconds(12 * (i + 1) + 1'000));
    EXPECT_EQ(sink.arrivals[static_cast<std::size_t>(i)].second.uid, static_cast<std::uint64_t>(i));
  }
  // One delivery per packet and one transmit-complete per packet that had
  // another waiting behind it: the last one, which found the queue empty,
  // was never armed.
  EXPECT_EQ(sched.dispatched(), 2u * kPackets - 1);
}

// A close and reopen within one serialization time cancels the cut-short
// completion, and the new transmission's is armed only if a packet waits
// behind it. A twin restored from a snapshot taken right then holds the
// same pending events and delivers identically.
TEST(Link, ReopenWithinASerializationTimeRestoresToTheSameEvents) {
  for (const bool waiting : {true, false}) {
    SCOPED_TRACE(waiting ? "a packet waits" : "nothing waits");
    sim::Scheduler sched;
    CaptureSink sink{sched};
    Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(1), make_queue(droptail(10)),
              sink};
    sim::Scheduler sched2;
    CaptureSink sink2{sched2};
    Link twin{sched2, 0, 1'000'000'000, sim::Time::microseconds(1), make_queue(droptail(10)),
              sink2};
    link.send(data_packet(1));
    sched.schedule_at(sim::Time::microseconds(5), [&] {
      link.set_down(true);
      link.set_down(false);
      link.send(data_packet(2));
      if (waiting) link.send(data_packet(3));
      // The wire's head (1's stale delivery), and 2's completion if 3 waits.
      EXPECT_EQ(sched.pending(), waiting ? 2u : 1u);
      EXPECT_TRUE(link.transmitting());

      core::ckpt::Saver s;
      link.save_state(s);
      sched2.restore_clock(sched.now(), sched.next_seq(), sched.dispatched());
      core::ckpt::Loader l{s.data()};
      twin.restore_state(l);
      ASSERT_TRUE(l.done());
      EXPECT_EQ(sched2.pending(), sched.pending());
      EXPECT_TRUE(twin.transmitting());
    });
    sched.run();
    sched2.run();
    ASSERT_EQ(sink.arrivals.size(), waiting ? 2u : 1u);
    EXPECT_EQ(sink.arrivals[0].first, sim::Time::microseconds(5 + 12 + 1));
    ASSERT_EQ(sink2.arrivals.size(), sink.arrivals.size());
    for (std::size_t i = 0; i < sink.arrivals.size(); ++i) {
      EXPECT_EQ(sink2.arrivals[i].first, sink.arrivals[i].first);
      EXPECT_EQ(sink2.arrivals[i].second.uid, sink.arrivals[i].second.uid);
    }
    // Setup event, 1's delivery (discarded), 2's (and 3's) delivery, and
    // the completion 3 waited for.
    EXPECT_EQ(sched.dispatched(), waiting ? 5u : 3u);
    EXPECT_EQ(sched2.dispatched(), sched.dispatched());
  }
}

// A link reopened within one serialization time can put a short packet on
// the wire that lands before the stale one it overtook: it must still be
// delivered at its own instant, and the stale entry discarded at its own.
TEST(Link, PacketOvertakingStaleEntryDeliversOnTime) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(10)), sink};
  link.send(data_packet(1));  // 12 us on the wire, lands at 12 us
  sched.schedule_at(sim::Time::microseconds(1), [&] { link.set_down(true); });
  sched.schedule_at(sim::Time::microseconds(2), [&] {
    link.set_down(false);
    link.send(data_packet(2, kAckPacketBytes));  // 480 ns on the wire
  });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second.uid, 2u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::nanoseconds(2'480));
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(link.drops().admin_down, 1u);
  EXPECT_EQ(link.live_in_flight(), 0u);
}

// --- the transmit completion: reserved when a transmission starts, armed
// only once a packet waits. Each case pins what an engine that scheduled
// every completion eagerly did. ---

// An arrival in the same instant as the transmit end but keyed before it
// finds the transmitter busy: the packet waits, and the completion (at the
// same instant) starts it. Keyed after it, the transmitter is idle and the
// packet starts at once.
TEST(Link, SameInstantArrivalOrdersAgainstTheTransmitEnd) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(1), make_queue(droptail(10)), sink};
  const sim::Time end = sim::Time::microseconds(12);  // one 1500 B serialization
  std::vector<std::size_t> queued_after_send;
  // Scheduled before the first send: keyed below the transmit end.
  sched.schedule_at(end, [&] {
    link.send(data_packet(2));
    queued_after_send.push_back(link.queue().len_packets());
  });
  link.send(data_packet(1));
  // Scheduled after it: keyed above the transmit end.
  sched.schedule_at(end, [&] {
    queued_after_send.push_back(link.queue().len_packets());  // 2 has started
    EXPECT_TRUE(link.transmitting());
    link.send(data_packet(3));
    queued_after_send.push_back(link.queue().len_packets());  // 3 waits behind 2
  });
  sched.run();
  EXPECT_EQ(queued_after_send, (std::vector<std::size_t>{1, 0, 1}));
  ASSERT_EQ(sink.arrivals.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].second.uid, i + 1);
    EXPECT_EQ(sink.arrivals[i].first, sim::Time::microseconds(12 * (static_cast<int>(i) + 1) + 1));
  }
}

// A packet handed across a shard boundary lands at the barrier instant at
// which the next hop's transmission ends. The barrier sees that
// transmitter busy (the boundary itself is excluded from the epoch), and
// the drained arrival, keyed after the transmit end, starts at once.
TEST(Link, BarrierArrivalAtTheTransmitEndStartsAtOnce) {
  ShardFabric fabric{2};
  sim::Scheduler& s0 = fabric.sched(0);
  sim::Scheduler& s1 = fabric.sched(1);
  CaptureSink sink{s1};
  Link out{s1, 1, 1'000'000'000, sim::Time::microseconds(1), make_queue(droptail(10)), sink};
  class Forward final : public PacketSink {
   public:
    explicit Forward(Link& l) : to_{l} {}
    void receive(Packet p) override { to_.send(std::move(p)); }

   private:
    Link& to_;
  } fwd{out};
  // A 60 B packet serializes in 480 ns; with 11.52 us of propagation it
  // lands at exactly 12 us, when out's first transmission ends.
  Link feed{s0, 0, 1'000'000'000, sim::Time::nanoseconds(11'520), make_queue(droptail(10)), fwd};
  fabric.note_cross_link(0, 1, feed.prop_delay(), feed.id());
  feed.set_remote_handoff(&fabric.channel(0, 1), s1);

  out.send(data_packet(1));
  feed.send(data_packet(2, kAckPacketBytes));
  const sim::Time b = sim::Time::microseconds(12);
  s0.run_before(b);
  s1.run_before(b);
  ASSERT_EQ(fabric.drain_all(), 1u);
  s0.advance_clock_to(b);
  s1.advance_clock_to(b);
  EXPECT_TRUE(out.transmitting());
  EXPECT_FALSE(feed.transmitting());
  s0.run_until(sim::Time::milliseconds(1));
  s1.run_until(sim::Time::milliseconds(1));
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::microseconds(13));
  EXPECT_EQ(sink.arrivals[1].second.uid, 2u);
  EXPECT_EQ(sink.arrivals[1].first, sim::Time::nanoseconds(12'000 + 480 + 1'000));
  EXPECT_FALSE(out.transmitting());
}

// Closing a link cancels its armed completion (a packet waited for it) and
// forgets an unarmed one's transmission alike: nothing waits for either,
// since the close flushed the queue. Either way the reopened link is idle
// and starts its next packet at once, not when the lost transmission would
// have ended.
TEST(Link, SetDownForgetsTheTransmitEndArmedOrNot) {
  for (const bool waiting : {true, false}) {
    SCOPED_TRACE(waiting ? "armed" : "unarmed");
    sim::Scheduler sched;
    CaptureSink sink{sched};
    Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(1), make_queue(droptail(10)),
              sink};
    link.send(data_packet(1));
    if (waiting) link.send(data_packet(2));
    EXPECT_EQ(sched.pending(), waiting ? 2u : 1u);  // the delivery (+ the completion)
    sched.schedule_at(sim::Time::microseconds(5), [&] {
      link.set_down(true);
      EXPECT_FALSE(link.transmitting());
      EXPECT_EQ(sched.pending(), 2u);  // 1's stale delivery and the reopen below
    });
    sched.schedule_at(sim::Time::microseconds(6), [&] {
      link.set_down(false);
      link.send(data_packet(3));
      EXPECT_TRUE(link.transmitting());
      EXPECT_EQ(link.queue().len_packets(), 0u);
    });
    sched.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].second.uid, 3u);
    EXPECT_EQ(sink.arrivals[0].first, sim::Time::microseconds(6 + 12 + 1));
    EXPECT_EQ(link.drops().admin_down, waiting ? 2u : 1u);
  }
}

// --- FifoRing: the wire and egress FIFOs ---

TEST(FifoRing, GrowsAcrossAWrappedHeadKeepingOrder) {
  FifoRing<int> r;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 10; ++i) r.push_back(next_in++);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  // 2 live entries at slots 8..9: filling to 16 wraps the tail to slot 0,
  // and the 17th push grows with the head in the middle of the buffer.
  while (r.size() < 16) r.push_back(next_in++);
  EXPECT_EQ(r.slots(), 16u);
  r.push_back(next_in++);
  EXPECT_EQ(r.slots(), 32u);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], next_out + static_cast<int>(i));
  while (!r.empty()) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(r.slots(), 32u);  // storage is kept for the next burst
}

// The egress queue's ring is bounded by the queue capacity, which need not
// be a power of two: it grows 4, 8, ... 64, then clamps to 100, and wraps
// there like anywhere else.
TEST(FifoRing, BoundedRingClampsToANonPowerOfTwoCapacity) {
  PacketRing r{100};
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int i = 0; i < 40; ++i) r.push_back(data_packet(next_in++));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(r.front().uid, next_out++);
    r.pop_front();
  }
  while (r.size() < 100) r.push_back(data_packet(next_in++));  // grows with a wrapped head
  EXPECT_EQ(r.slots(), 100u);
  for (int round = 0; round < 3; ++round) {  // cycle the head past slot 99
    for (int i = 0; i < 70; ++i) {
      EXPECT_EQ(r.front().uid, next_out++);
      r.pop_front();
    }
    while (r.size() < 100) r.push_back(data_packet(next_in++));
    EXPECT_EQ(r.slots(), 100u);
  }
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i].uid, next_out + i);
}

// Past kDeepSlots a bounded ring takes its whole limit in one step (a
// burst into a deep buffer), while an unbounded one keeps doubling.
TEST(FifoRing, DeepRingsStopDoubling) {
  FifoRing<int> bounded{10'000};
  FifoRing<int> unbounded;
  std::vector<std::size_t> seen_bounded;
  std::vector<std::size_t> seen_unbounded;
  for (int i = 0; i < 5'000; ++i) {
    bounded.push_back(int{i});
    unbounded.push_back(int{i});
    if (seen_bounded.empty() || seen_bounded.back() != bounded.slots()) {
      seen_bounded.push_back(bounded.slots());
    }
    if (seen_unbounded.empty() || seen_unbounded.back() != unbounded.slots()) {
      seen_unbounded.push_back(unbounded.slots());
    }
  }
  EXPECT_EQ(seen_bounded,
            (std::vector<std::size_t>{4, 8, 16, 32, 64, 128, 256, 512, 1024, 10'000}));
  EXPECT_EQ(seen_unbounded.back(), 8192u);
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_EQ(bounded.front(), i);
    bounded.pop_front();
  }
}

// The wire's sorted insert (a reopened link's packet overtaking stale
// ones) lands at its place whichever way the ring is wrapped.
TEST(FifoRing, InsertKeepsTheRestInOrderAcrossTheWrap) {
  for (std::size_t at = 0; at <= 6; ++at) {
    FifoRing<int> r;
    for (int i = 0; i < 14; ++i) r.push_back(-1);
    for (int i = 0; i < 14; ++i) r.pop_front();  // head at slot 14 of 16
    for (int i = 0; i < 6; ++i) r.push_back(10 * i);
    r.insert(at, 99);
    ASSERT_EQ(r.size(), 7u);
    std::vector<int> got;
    for (std::size_t i = 0; i < r.size(); ++i) got.push_back(r[i]);
    std::vector<int> want{0, 10, 20, 30, 40, 50};
    want.insert(want.begin() + static_cast<std::ptrdiff_t>(at), 99);
    EXPECT_EQ(got, want) << "insert at " << at;
  }
}

}  // namespace
}  // namespace xmp::net
