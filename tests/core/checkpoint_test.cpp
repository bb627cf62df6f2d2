// In-run checkpoint/restore (DESIGN.md §12).
//
// The contract under test: a run resumed from a snapshot produces results
// identical to the uninterrupted run — including the *bytes* of the next
// checkpoint it writes — and a damaged snapshot (truncated, bit-flipped,
// version- or config-mismatched) is rejected with a clean diagnostic, with
// newest_valid() falling back to the previous good file.

#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/handoff.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"

namespace xmp::core {
namespace {

ExperimentConfig small_cfg(int shards = 0) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.08);
  cfg.seed = 42;
  cfg.shards = shards;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "xmp_" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// Every deterministic summary field the paper reports.
void expect_same_results(const ExperimentResults& a, const ExperimentResults& b) {
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.sim_duration.ns(), b.sim_duration.ns());
  EXPECT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rtt_by_category[i].count(), b.rtt_by_category[i].count());
    EXPECT_EQ(a.rtt_by_category[i].mean(), b.rtt_by_category[i].mean());
    EXPECT_EQ(a.utilization_by_layer[i].mean(), b.utilization_by_layer[i].mean());
    EXPECT_EQ(a.queue_occupancy_by_layer[i].mean(), b.queue_occupancy_by_layer[i].mean());
  }
  EXPECT_EQ(a.drops.offered, b.drops.offered);
  EXPECT_EQ(a.drops.delivered, b.drops.delivered);
  EXPECT_EQ(a.switch_forwarded, b.switch_forwarded);
}

TEST(Checkpoint, SerialResumeMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("serial_a");
  const std::string dir_b = fresh_dir("serial_b");

  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);
  ASSERT_FALSE(full.ckpt.last_path.empty());

  // Resume from the FIRST snapshot into a second directory; the resumed run
  // must re-write every later checkpoint with identical bytes and finish
  // with identical results and lineage totals.
  auto cfg2 = small_cfg();
  cfg2.checkpoint.every = cfg.checkpoint.every;
  cfg2.checkpoint.dir = dir_b;
  cfg2.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(1);
  const auto resumed = run_experiment(cfg2);

  EXPECT_TRUE(resumed.ckpt.restored);
  EXPECT_EQ(resumed.ckpt.restored_seq, 1u);
  expect_same_results(full, resumed);
  EXPECT_EQ(full.ckpt.written, resumed.ckpt.written);
  EXPECT_EQ(full.ckpt.bytes, resumed.ckpt.bytes);
  for (std::uint64_t s = 2; s <= full.ckpt.written; ++s) {
    const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
    const std::string b = slurp(dir_b + "/" + ckpt::file_name(s));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "checkpoint " << s << " diverged after restore";
  }
}

TEST(Checkpoint, ShardedResumeMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("shard_a");
  const std::string dir_b = fresh_dir("shard_b");

  auto cfg = small_cfg(/*shards=*/2);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);

  auto cfg2 = small_cfg(/*shards=*/2);
  cfg2.checkpoint.every = cfg.checkpoint.every;
  cfg2.checkpoint.dir = dir_b;
  cfg2.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(1);
  const auto resumed = run_experiment(cfg2);

  EXPECT_TRUE(resumed.ckpt.restored);
  expect_same_results(full, resumed);
  EXPECT_EQ(full.shard.epochs, resumed.shard.epochs);
  EXPECT_EQ(full.shard.barriers, resumed.shard.barriers);
  EXPECT_EQ(full.shard.micro_steps, resumed.shard.micro_steps);
  EXPECT_EQ(full.ckpt.written, resumed.ckpt.written);
  for (std::uint64_t s = 2; s <= full.ckpt.written; ++s) {
    const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
    const std::string b = slurp(dir_b + "/" + ckpt::file_name(s));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "sharded checkpoint " << s << " diverged after restore";
  }
}

TEST(Checkpoint, ExternalStopWritesResumableSnapshot) {
  const std::string dir = fresh_dir("stop");

  // A stop flag raised before the first event: the engine halts at its
  // first quiescent point, writes a final checkpoint, and reports the
  // interruption instead of a completed run.
  std::atomic<bool> stop{true};
  auto cfg = small_cfg();
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.stop_requested = &stop;
  const auto halted = run_experiment(cfg);
  EXPECT_TRUE(halted.ckpt.interrupted);
  ASSERT_EQ(halted.ckpt.written, 1u);

  // Resuming that snapshot runs to completion with the results of a plain
  // uninterrupted run.
  auto cfg2 = small_cfg();
  cfg2.checkpoint.restore_path = halted.ckpt.last_path;
  const auto resumed = run_experiment(cfg2);
  const auto plain = run_experiment(small_cfg());
  EXPECT_FALSE(resumed.ckpt.interrupted);
  expect_same_results(plain, resumed);
}

TEST(Checkpoint, CorruptionRejectedWithFallback) {
  const std::string dir = fresh_dir("corrupt");
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);
  const std::uint64_t fp = ckpt::config_fingerprint(cfg);
  const std::string newest = dir + "/" + ckpt::file_name(full.ckpt.written);
  const std::string prev = dir + "/" + ckpt::file_name(full.ckpt.written - 1);

  // Pristine: both probe clean, newest_valid picks the highest seq.
  ckpt::Header h;
  std::string err;
  ASSERT_TRUE(ckpt::probe_file(newest, fp, h, &err)) << err;
  EXPECT_EQ(ckpt::newest_valid(dir, fp), newest);

  // Bit-flip one payload byte: CRC mismatch, one-line diagnostic, and
  // newest_valid falls back to the previous good snapshot.
  const std::string pristine = slurp(newest);
  ASSERT_GT(pristine.size(), ckpt::kHeaderBytes + 8);
  {
    std::string bad = pristine;
    bad[ckpt::kHeaderBytes + 7] = static_cast<char>(bad[ckpt::kHeaderBytes + 7] ^ 0x20);
    std::ofstream{newest, std::ios::binary} << bad;
  }
  err.clear();
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
  EXPECT_EQ(ckpt::newest_valid(dir, fp), prev);

  // Truncation: rejected, same fallback.
  std::ofstream{newest, std::ios::binary} << pristine.substr(0, pristine.size() / 2);
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_EQ(ckpt::newest_valid(dir, fp), prev);

  // Future format version: rejected before any payload is touched.
  {
    std::string bad = pristine;
    bad[4] = static_cast<char>(bad[4] + 1);  // version u32 LE at offset 4
    std::ofstream{newest, std::ios::binary} << bad;
  }
  err.clear();
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;

  // Config-fingerprint mismatch (e.g. a different seed): rejected.
  std::ofstream{newest, std::ios::binary} << pristine;
  EXPECT_FALSE(ckpt::probe_file(newest, fp + 1, h, &err));

  // Every candidate damaged: newest_valid reports "nothing usable".
  std::ofstream{prev, std::ios::binary} << std::string{"garbage"};
  std::ofstream{newest, std::ios::binary} << std::string{"garbage"};
  for (std::uint64_t s = 1; s <= full.ckpt.written; ++s) {
    std::ofstream{dir + "/" + ckpt::file_name(s), std::ios::binary} << std::string{"x"};
  }
  EXPECT_EQ(ckpt::newest_valid(dir, fp), "");
}

TEST(Checkpoint, SchedulerPendingKeyRoundTrip) {
  using sim::Time;
  sim::Scheduler a;
  std::vector<int> order;
  a.schedule_at(Time::microseconds(10), [&] { order.push_back(1); });
  const sim::EventId e2 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(2); });
  const sim::EventId e3 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(3); });
  a.run_until(Time::microseconds(20));  // fires event 1; 2 and 3 stay pending

  sim::Scheduler::PendingKey k2;
  sim::Scheduler::PendingKey k3;
  ASSERT_TRUE(a.key_of(e2, k2));
  ASSERT_TRUE(a.key_of(e3, k3));

  // Restore into a virgin scheduler — deliberately re-arming in the
  // *opposite* order; the saved (t, seq) keys must still reproduce the
  // original equal-timestamp FIFO order.
  sim::Scheduler b;
  b.restore_clock(a.now(), a.next_seq(), a.dispatched());
  std::vector<int> replay;
  b.restore_at(Time::nanoseconds(k3.t_ns), k3.seq, [&] { replay.push_back(3); });
  b.restore_at(Time::nanoseconds(k2.t_ns), k2.seq, [&] { replay.push_back(2); });
  b.run_until(Time::microseconds(50));
  EXPECT_EQ(replay, (std::vector<int>{2, 3}));
  EXPECT_EQ(b.now().ns(), Time::microseconds(50).ns());
  EXPECT_EQ(b.dispatched(), a.dispatched() + 2);
}

// --- LNKS: wire state of one local and one boundary link ---

/// Holds packet uid 4 at link entry for 500 us (a gray-failure delay), so
/// the hold buffer has an entry to checkpoint as well.
class HoldUid4 final : public net::Link::FaultHook {
 public:
  net::Link::FaultVerdict on_send(const net::Packet& p) override {
    net::Link::FaultVerdict v;
    if (p.uid == 4) v.delay = sim::Time::microseconds(500);
    return v;
  }
};

class DiscardSink final : public net::PacketSink {
 public:
  void receive(net::Packet /*p*/) override {}
};

/// A local link with a long wire and a boundary link from shard 0 to shard
/// 1 whose drained packets wait in the destination-side FIFO.
struct WireRig {
  net::ShardFabric fabric{2};
  DiscardSink sink;
  HoldUid4 hold;
  net::Link local{fabric.sched(0), 0, 1'000'000'000, sim::Time::microseconds(100),
                  net::make_queue(net::QueueConfig{}), sink};
  net::Link boundary{fabric.sched(0), 1, 1'000'000'000, sim::Time::microseconds(12),
                     net::make_queue(net::QueueConfig{}), sink};

  WireRig() {
    fabric.note_cross_link(0, 1, boundary.prop_delay(), boundary.id());
    boundary.set_remote_handoff(&fabric.channel(0, 1), fabric.sched(1));
  }
  [[nodiscard]] std::string save() const {
    ckpt::Saver s;
    local.save_state(s);
    boundary.save_state(s);
    return s.data();
  }
};

// save -> restore -> save of links with several packets on the wire, a
// held packet, a pending transmit-complete and parked cross-shard arrivals
// reproduces the bytes exactly, and those bytes are the LNKS layout of the
// engine that kept one scheduler event per packet (CRC pinned from it), so
// the checkpoint format did not change.
TEST(Checkpoint, LinkWireStateRoundTripsByteIdentical) {
  WireRig a;
  a.local.set_fault_hook(&a.hold);
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    net::Packet p;
    p.uid = uid;
    p.size_bytes = net::kDataPacketBytes;
    a.local.send(p);
    a.boundary.send(p);
  }
  // Transmissions start at 0, 12, 24 and 36 us on both links.
  a.fabric.sched(0).run_before(sim::Time::microseconds(40));
  ASSERT_EQ(a.fabric.drain_all(), 4u);
  ASSERT_EQ(a.local.live_in_flight(), 4u);
  ASSERT_EQ(a.local.held(), 1u);
  ASSERT_EQ(a.boundary.live_in_flight(), 4u);
  const std::string bytes = a.save();
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0x6a563bbeu);

  WireRig b;
  for (int s = 0; s < 2; ++s) {
    const sim::Scheduler& src = a.fabric.sched(s);
    b.fabric.sched(s).restore_clock(src.now(), src.next_seq(), src.dispatched());
  }
  ckpt::Loader l{bytes};
  b.local.restore_state(l);
  b.boundary.restore_state(l);
  ASSERT_TRUE(l.done());
  EXPECT_EQ(b.save(), bytes);
  // Each wire arms only its head; the shard-0 heap also holds both
  // transmit-completes and the hold release.
  EXPECT_EQ(b.fabric.sched(0).pending(), 4u);
  EXPECT_EQ(b.fabric.sched(1).pending(), 1u);

  // Both copies finish identically.
  for (WireRig* r : {&a, &b}) {
    for (int s = 0; s < 2; ++s) r->fabric.sched(s).run_until(sim::Time::milliseconds(1));
  }
  EXPECT_EQ(b.local.delivered(), a.local.delivered());
  EXPECT_EQ(b.boundary.delivered(), a.boundary.delivered());
  EXPECT_EQ(b.fabric.total_dispatched(), a.fabric.total_dispatched());
  EXPECT_EQ(b.save(), a.save());
}

}  // namespace
}  // namespace xmp::core
