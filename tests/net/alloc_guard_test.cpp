// Allocation guards for per-link state: a link costs heap memory only once
// it holds packets, and a FIFO's first allocation is a few slots, because
// a fabric has hundreds of links and most of their containers stay short
// or empty (DESIGN.md §17).
//
// This binary replaces the global operator new with a counting one, so it
// stands alone: no other test shares its allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

// Out of line, so the compiler does not pair the free() with the replaced
// operator new below and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { ::operator delete(p); }
// The array forms too: a sanitizer runtime supplies its own, which would
// bypass the count.
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t /*n*/) noexcept { ::operator delete(p); }

namespace xmp::net {
namespace {

struct Allocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

/// Heap allocations made by `f`.
template <class F>
Allocations allocations_of(F&& f) {
  const std::size_t count = g_allocations.load(std::memory_order_relaxed);
  const std::size_t bytes = g_bytes.load(std::memory_order_relaxed);
  f();
  return {g_allocations.load(std::memory_order_relaxed) - count,
          g_bytes.load(std::memory_order_relaxed) - bytes};
}

class NullSink final : public PacketSink {
 public:
  void receive(Packet /*p*/) override {}
};

// The hold buffer, the boundary mirror, the wires and the state lists all
// start unallocated: a link that is built, wired as a shard boundary and
// destroyed without carrying a packet never touches the heap.
TEST(LinkAllocations, ConstructingALinkAllocatesNothing) {
  ShardFabric fabric{2};
  NullSink sink;
  std::unique_ptr<Queue> q = make_queue(QueueConfig{});
  std::optional<Link> link;
  const Allocations made = allocations_of([&] {
    link.emplace(fabric.sched(0), 0, 1'000'000'000, sim::Time::microseconds(1), std::move(q),
                 sink);
    link->set_remote_handoff(&fabric.channel(0, 1), fabric.sched(1));
    link.reset();
  });
  EXPECT_EQ(made.count, 0u);
  EXPECT_EQ(made.bytes, 0u);
}

// A ring's first push takes exactly kFirstSlots slots in one allocation,
// the next kFirstSlots - 1 pushes take nothing, and the one after doubles.
TEST(LinkAllocations, FifoRingFirstPushTakesKFirstSlots) {
  constexpr std::size_t kFirst = PacketRing::kFirstSlots;
  PacketRing r;
  const Allocations first = allocations_of([&] { r.push_back(Packet{}); });
  EXPECT_EQ(first.count, 1u);
  EXPECT_EQ(first.bytes, kFirst * sizeof(Packet));
  const Allocations rest = allocations_of([&] {
    while (r.size() < kFirst) r.push_back(Packet{});
  });
  EXPECT_EQ(rest.count, 0u);
  const Allocations grown = allocations_of([&] { r.push_back(Packet{}); });
  EXPECT_EQ(grown.count, 1u);
  EXPECT_EQ(grown.bytes, 2 * kFirst * sizeof(Packet));
  EXPECT_EQ(r.slots(), 2 * kFirst);
}

// A wire at 1 Gbps holds one to three packets and an egress queue averages
// under one, so a first allocation beyond four slots is memory that most
// of a fabric's rings never use.
TEST(LinkAllocations, FirstAllocationFitsAShortWire) {
  EXPECT_LE(PacketRing::kFirstSlots, 4u);
}

}  // namespace
}  // namespace xmp::net
