#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
  // One delivery and one transmit-complete per packet, as before chaining.
  EXPECT_EQ(sched.dispatched(), 2u * kPackets);
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

}  // namespace
}  // namespace xmp::net
