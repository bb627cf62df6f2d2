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
#include "faults/invariant_checker.hpp"
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

// Resuming from the lineage's final snapshot writes none, and still reports
// that snapshot as the newest, under the name the uninterrupted run gave it.
TEST(Checkpoint, ResumeFromTheFinalSnapshotReportsItAsTheLast) {
  const std::string dir = fresh_dir("final_snapshot");
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);

  cfg.checkpoint.restore_path = dir + "/" + ckpt::file_name(full.ckpt.written);
  const auto resumed = run_experiment(cfg);
  EXPECT_EQ(resumed.ckpt.restored_seq, full.ckpt.written);
  EXPECT_EQ(resumed.ckpt.written, full.ckpt.written);
  EXPECT_EQ(resumed.ckpt.last_path, full.ckpt.last_path);
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

// Several short rounds give several serial micro-step segments, and a
// short interval puts snapshots at the barriers right after them: where
// links have just stopped arming completions nothing waits for, and where
// a round flip has left shards behind the flipping step, waiting at their
// new flows' first events. A run resumed from any snapshot must dispatch
// exactly the uninterrupted run's events and re-write every later
// snapshot byte for byte.
TEST(Checkpoint, ShardedResumeAfterSerialSegmentsMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("shard_rounds_a");
  auto cfg = small_cfg(/*shards=*/2);
  cfg.permutation_rounds = 6;
  cfg.perm_min_bytes = 20'000;
  cfg.perm_max_bytes = 40'000;
  cfg.duration = sim::Time::seconds(0.03);
  cfg.checkpoint.every = sim::Time::seconds(0.0003);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.shard.micro_steps, 100u);
  ASSERT_GE(full.ckpt.written, 8u);

  for (std::uint64_t from = 1; from < full.ckpt.written; ++from) {
    const std::string dir_b = fresh_dir("shard_rounds_b");
    auto cfg2 = cfg;
    cfg2.checkpoint.dir = dir_b;
    cfg2.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(from);
    const auto resumed = run_experiment(cfg2);
    ASSERT_TRUE(resumed.ckpt.restored);
    EXPECT_EQ(full.events_dispatched, resumed.events_dispatched) << "resumed from " << from;
    EXPECT_EQ(full.shard.micro_steps, resumed.shard.micro_steps) << "resumed from " << from;
    EXPECT_EQ(full.goodput.mean(), resumed.goodput.mean()) << "resumed from " << from;
    ASSERT_EQ(full.ckpt.written, resumed.ckpt.written) << "resumed from " << from;
    for (std::uint64_t s = from + 1; s <= full.ckpt.written; ++s) {
      const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, slurp(dir_b + "/" + ckpt::file_name(s)))
          << "checkpoint " << s << " diverged after resuming from " << from;
    }
  }
}

// A switch failing 5 us before a checkpoint cuts short transmissions that
// queued packets waited for; the snapshot is taken while their completions
// would still be pending. A run resumed from it must dispatch exactly the
// uninterrupted run's events.
TEST(Checkpoint, SerialResumeRightAfterALinkClosesMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("close_a");
  const std::string dir_b = fresh_dir("close_b");
  auto cfg = small_cfg();
  cfg.duration = sim::Time::seconds(0.012);
  for (int sw = 0; sw < 20; ++sw) cfg.fault_plan.switch_down(sw, sim::Time::microseconds(4995));
  for (int sw = 0; sw < 20; ++sw) cfg.fault_plan.switch_up(sw, sim::Time::microseconds(6000));
  cfg.checkpoint.every = sim::Time::seconds(0.005);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);
  ASSERT_GT(full.drops.admin_down, 0u);

  auto cfg2 = cfg;
  cfg2.checkpoint.dir = dir_b;
  cfg2.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(1);
  const auto resumed = run_experiment(cfg2);
  ASSERT_TRUE(resumed.ckpt.restored);
  expect_same_results(full, resumed);
  EXPECT_EQ(slurp(dir_a + "/" + ckpt::file_name(2)), slurp(dir_b + "/" + ckpt::file_name(2)));
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
  // Each wire arms only its head; the shard-0 heap also holds the hold
  // release and the boundary link's transmit-complete (a fifth packet waits
  // in its queue). The local link's queue is empty, so its transmit end,
  // saved and restored all the same, stays unarmed.
  EXPECT_EQ(b.fabric.sched(0).pending(), 3u);
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

// --- LNKS: the transmit completion, reserved when a transmission starts
// and armed only once a packet waits behind it. Its record is written
// whenever the transmitter is busy, so the bytes are those of an engine
// that scheduled every completion eagerly (CRCs pinned from it). ---

/// Records each delivery as (ns, uid).
class RecordSink final : public net::PacketSink {
 public:
  explicit RecordSink(const sim::Scheduler& s) : sched_{s} {}
  void receive(net::Packet p) override { got.emplace_back(sched_.now().ns(), p.uid); }
  std::vector<std::pair<std::int64_t, std::uint64_t>> got;

 private:
  const sim::Scheduler& sched_;
};

/// One local link (1 Gbps, 100 us wire) on a serial scheduler.
struct TxRig {
  sim::Scheduler sched;
  RecordSink sink{sched};
  net::Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100),
                 net::make_queue(net::QueueConfig{}), sink};

  [[nodiscard]] std::string save() const {
    ckpt::Saver s;
    link.save_state(s);
    return s.data();
  }
  /// Restore `bytes` into this virgin rig, its clock as `src` saved it.
  void restore(sim::Time now, std::uint64_t next_seq, const std::string& bytes) {
    sched.restore_clock(now, next_seq, 0);
    ckpt::Loader l{bytes};
    link.restore_state(l);
    ASSERT_TRUE(l.done());
  }
};

net::Packet data(std::uint64_t uid) {
  net::Packet p;
  p.uid = uid;
  p.size_bytes = net::kDataPacketBytes;
  return p;
}

// A checkpoint at run_until(T) after a transmission ended in (last event,
// T], with nothing queued: the eager engine had fired that completion, so
// the link saves as idle — no transmitting flag, no record.
TEST(Checkpoint, TransmissionEndedBeforeTheHorizonSavesAsIdle) {
  TxRig a;
  a.link.send(data(1));  // on the wire 0..12 us
  a.sched.schedule_at(sim::Time::microseconds(5), [] {});  // the last event before T
  a.sched.run_until(sim::Time::microseconds(20));
  EXPECT_FALSE(a.link.transmitting());
  const std::string bytes = a.save();
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0x50dabd37u);

  TxRig b;
  b.restore(a.sched.now(), a.sched.next_seq(), bytes);
  EXPECT_EQ(b.save(), bytes);
  EXPECT_EQ(b.sched.pending(), 1u);  // 1's delivery
  for (TxRig* r : {&a, &b}) {
    r->link.send(data(2));  // the transmitter is idle: 2 starts at once
    EXPECT_EQ(r->link.queue().len_packets(), 0u);
    r->sched.run_until(sim::Time::milliseconds(1));
  }
  EXPECT_EQ(b.sink.got, a.sink.got);
  EXPECT_EQ(a.sink.got, (std::vector<std::pair<std::int64_t, std::uint64_t>>{{112'000, 1},
                                                                              {132'000, 2}}));
}

// A checkpoint taken while a transmission runs with nothing queued: the
// record is saved though the completion was never armed, and a packet sent
// right after the restore waits for it exactly as in the saving run.
TEST(Checkpoint, RestoredBusyTransmitterQueuesTheNextPacket) {
  TxRig a;
  a.link.send(data(1));
  a.sched.run_until(sim::Time::microseconds(5));
  EXPECT_TRUE(a.link.transmitting());
  const std::string bytes = a.save();
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0x0dc0a2a4u);

  TxRig b;
  b.restore(a.sched.now(), a.sched.next_seq(), bytes);
  EXPECT_EQ(b.save(), bytes);
  EXPECT_TRUE(b.link.transmitting());
  EXPECT_EQ(b.sched.pending(), 1u);  // the delivery; the completion waits unarmed
  for (TxRig* r : {&a, &b}) {
    r->link.send(data(2));
    EXPECT_EQ(r->link.queue().len_packets(), 1u);  // behind 1, until 12 us
  }
  EXPECT_EQ(b.sched.pending(), 2u);  // now armed
  for (TxRig* r : {&a, &b}) r->sched.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(b.sink.got, a.sink.got);
  EXPECT_EQ(a.sink.got, (std::vector<std::pair<std::int64_t, std::uint64_t>>{{112'000, 1},
                                                                              {124'000, 2}}));
}

std::string from_hex(const std::string& hex) {
  std::string bytes;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// LNKS bytes written, after a close and reopen within one serialization
// time, by an engine that kept the closed epoch's cut-short completion:
// besides the live record (2's end at 14 us, epoch 1) they carry that stale
// one (1's end at 12 us, epoch 0). Restoring drops it and arms the live one
// (packet 3 waits), and the run finishes as the saving run did: 2 lands at
// 114 us and 3 at 126 us. Re-saving drops exactly the stale record, and the
// same history run here saves those bytes.
TEST(Checkpoint, StaleCompletionRecordRoundTrips) {
  const std::string hex =
    "0100b80b000000000000c05d0000000000000100000000000000030000000000000000000000000000000000"
    "0000000000000100000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000f03f0100000000000000030000000000000000000000000000000000"
    "ffffffffffffffffdc0500000000000000000000000000000000000000000000000000000000000000dc0500"
    "0000000000030000000000000000000000000000000000000000000000010000000000000000d00700000000"
    "00000100000000000000ffffffffffffffff00000000000000000000000000000000020000000000000080b5"
    "01000000000001000000000000000000000000000000010000000000000000000000000000000000ffffffff"
    "ffffffffdc050000000000000000000000000000000000000000000000000000000000000050bd0100000000"
    "0005000000000000000100000000000000020000000000000000000000000000000000ffffffffffffffffdc"
    "05000000000000000000000000000000000000000000000000000000000000000200000000000000e02e0000"
    "0000000002000000000000000000000000000000b03600000000000006000000000000000100000000000000"
    "00000000000000000000000000000000";
  const std::string bytes = from_hex(hex);
  ASSERT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0xef3912b7u);
  // The transmit-complete list: a record count at byte 428, then one
  // (t_ns, seq, epoch) record per completion, the stale one first.
  constexpr std::size_t kCount = 428;
  ASSERT_EQ(bytes.substr(kCount, 8 + 24),
            from_hex("0200000000000000e02e00000000000002000000000000000000000000000000"));
  const std::string resaved = bytes.substr(0, kCount) + from_hex("0100000000000000") +
                              bytes.substr(kCount + 8 + 24);
  EXPECT_EQ(ckpt::crc32(resaved.data(), resaved.size()), 0xd2eb0fabu);

  TxRig b;
  b.restore(sim::Time::microseconds(5), 7, bytes);
  EXPECT_EQ(b.save(), resaved);
  EXPECT_TRUE(b.link.transmitting());
  EXPECT_EQ(b.link.queue().len_packets(), 1u);
  EXPECT_EQ(b.sched.pending(), 2u);  // the wire head (stale 1) and 2's completion
  b.sched.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(b.sink.got, (std::vector<std::pair<std::int64_t, std::uint64_t>>{{114'000, 2},
                                                                              {126'000, 3}}));
  EXPECT_EQ(b.link.drops().admin_down, 1u);

  TxRig a;
  a.link.send(data(1));
  a.sched.schedule_at(sim::Time::microseconds(1), [&] { a.link.set_down(true); });
  a.sched.schedule_at(sim::Time::microseconds(2), [&] {
    a.link.set_down(false);
    a.link.send(data(2));
    a.link.send(data(3));
  });
  a.sched.run_until(sim::Time::microseconds(5));
  EXPECT_EQ(a.sched.next_seq(), 7u);
  EXPECT_EQ(a.save(), resaved);
  a.sched.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(a.sink.got, b.sink.got);
  EXPECT_EQ(b.save(), a.save());
}

// --- LNKS: the gray hold buffer and the boundary link's conservation
// mirror, the two per-link containers that stay empty on most links ---

/// Holds uid 1 for 300 us as a reorder with a pending clone, and uid 3 for
/// 50 us.
class HoldRule final : public net::Link::FaultHook {
 public:
  net::Link::FaultVerdict on_send(const net::Packet& p) override {
    net::Link::FaultVerdict v;
    if (p.uid == 1) {
      v.delay = sim::Time::microseconds(300);
      v.reorder = true;
      v.duplicate = true;
    } else if (p.uid == 3) {
      v.delay = sim::Time::microseconds(50);
    }
    return v;
  }
};

/// WireRig's two links, both behind HoldRule, stepped the way the sharded
/// engine steps them: source shard, barrier drain, destination shard.
struct HoldRig {
  net::ShardFabric fabric{2};
  DiscardSink sink;
  HoldRule hold;
  net::Link local{fabric.sched(0), 0, 1'000'000'000, sim::Time::microseconds(100),
                  net::make_queue(net::QueueConfig{}), sink};
  net::Link boundary{fabric.sched(0), 1, 1'000'000'000, sim::Time::microseconds(12),
                     net::make_queue(net::QueueConfig{}), sink};

  HoldRig() {
    fabric.note_cross_link(0, 1, boundary.prop_delay(), boundary.id());
    boundary.set_remote_handoff(&fabric.channel(0, 1), fabric.sched(1));
    local.set_fault_hook(&hold);
    boundary.set_fault_hook(&hold);
  }
  void send(std::uint64_t uid) {
    local.send(data(uid));
    boundary.send(data(uid));
  }
  void step_to(sim::Time t) {
    fabric.sched(0).run_before(t);
    fabric.drain_all();
    fabric.sched(1).run_before(t);
  }
  /// uids 0..5 at 0 us (1 and 3 held), 6 at 52 us; barriers at 40 and 55 us.
  /// 3's release at 50 us prunes the first two mirror entries, so the
  /// mirror's head is off the front of its storage when it is saved.
  void history() {
    for (std::uint64_t uid = 0; uid < 6; ++uid) send(uid);
    step_to(sim::Time::microseconds(40));
    fabric.sched(0).schedule_at(sim::Time::microseconds(52), [this] { send(6); });
    step_to(sim::Time::microseconds(55));
  }
  [[nodiscard]] std::string save() const {
    ckpt::Saver s;
    local.save_state(s);
    boundary.save_state(s);
    return s.data();
  }
};

// LNKS bytes of HoldRig::history() at its 55 us barrier, written while the
// hold buffer was a std::deque and the mirror a std::deque: each link holds
// uid 1 and its pending clone; the boundary link mirrors uids 4, 5 and 3
// (5 and 3 parked on shard 1). The bytes restore and re-save unchanged,
// the same history writes them today, and the conservation law counts the
// held packet and the mirrored ones: closing the boundary link at the
// barrier turns the two still propagating, the queued one and the held
// one into admin_down drops, in the restored copy as in the saving run.
TEST(Checkpoint, HoldBufferAndBoundaryMirrorRoundTrip) {
  const std::string bytes = from_hex(
    "01004c1d00000000000060ea0000000000000000000000000000070000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000020000000000"
    "00000000000000000000000000000000f03f0100000000000000060000000000000000000000000000000000"
    "ffffffffffffffffdc0500000000000000000000000000000000000000000000000000000000000000dc0500"
    "000000000006000000000000000000000000000000000000000000000001000000000094f14020cb00000000"
    "00000300000000000000ffffffffffffffff00000000000000000100000000000000e0930400000000000400"
    "00000000000001010000000000000000000000000000000000ffffffffffffffffdc05000000000000000000"
    "00000000000000000000000000000000000000000000050000000000000080b5010000000000010000000000"
    "00000000000000000000000000000000000000000000000000000000ffffffffffffffffdc05000000000000"
    "0000000000000000000000000000000000000000000000000060e40100000000000800000000000000000000"
    "0000000000020000000000000000000000000000000000ffffffffffffffffdc050000000000000000000000"
    "000000000000000000000000000000000000000040130200000000000b000000000000000000000000000000"
    "040000000000000000000000000000000000ffffffffffffffffdc0500000000000000000000000000000000"
    "00000000000000000000000000000020420200000000000e0000000000000000000000000000000500000000"
    "00000000000000000000000000ffffffffffffffffdc05000000000000000000000000000000000000000000"
    "00000000000000000000d0780200000000001200000000000000000000000000000003000000000000000000"
    "0000000000000000ffffffffffffffffdc050000000000000000000000000000000000000000000000000000"
    "0000000000010000000000000030f20000000000001300000000000000000000000000000000000000000000"
    "00000000000000000001004c1d00000000000060ea0000000000000000000000000000070000000000000003"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000002000000000000000000000000000000000000000000f03f0100000000000000060000000000000000"
    "000000000000000000ffffffffffffffffdc0500000000000000000000000000000000000000000000000000"
    "000000000000dc05000000000000060000000000000000000000000000000000000000000000010000000000"
    "94f14020cb0000000000000300000000000000ffffffffffffffff00000000000000000100000000000000e0"
    "93040000000000050000000000000001010000000000000000000000000000000000ffffffffffffffffdc05"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000100000000"
    "00000030f200000000000014000000000000000000000000000000030000000000000080bb00000000000000"
    "000000000000000060ea00000000000000000000000000000010210100000000000000000000000000000200"
    "00000000000060ea000000000000040000000000000000000000000000000500000000000000000000000000"
    "00000000ffffffffffffffffdc05000000000000000000000000000000000000000000000000000000000000"
    "00102101000000000005000000000000000000000000000000030000000000000000000000000000000000ff"
    "ffffffffffffffdc0500000000000000000000000000000000000000000000000000000000000000");
  ASSERT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0x7756da50u);

  HoldRig b;
  b.fabric.sched(0).restore_clock(sim::Time::microseconds(52), 21, 0);
  b.fabric.sched(1).restore_clock(sim::Time::microseconds(48), 6, 0);
  ckpt::Loader l{bytes};
  b.local.restore_state(l);
  b.boundary.restore_state(l);
  ASSERT_TRUE(l.done());
  EXPECT_EQ(b.save(), bytes);
  EXPECT_EQ(b.local.held(), 1u);
  EXPECT_EQ(b.boundary.held(), 1u);
  EXPECT_EQ(b.local.live_in_flight(), 5u);
  EXPECT_EQ(b.boundary.live_in_flight(), 2u);

  HoldRig a;
  a.history();
  EXPECT_EQ(a.save(), bytes);

  for (HoldRig* r : {&a, &b}) {
    EXPECT_EQ(faults::link_conservation_error(r->local), "");
    EXPECT_EQ(faults::link_conservation_error(r->boundary), "");
    r->boundary.set_down(true);
    EXPECT_EQ(r->boundary.drops().admin_down, 4u);
    EXPECT_EQ(r->boundary.live_in_flight(), 0u);
    EXPECT_EQ(r->boundary.held(), 0u);
    EXPECT_EQ(faults::link_conservation_error(r->boundary), "");
  }
  EXPECT_EQ(b.save(), a.save());
  for (HoldRig* r : {&a, &b}) r->step_to(sim::Time::milliseconds(1));
  EXPECT_EQ(b.local.delivered(), 8u);  // 0..6 and 1's clone
  EXPECT_EQ(b.local.delivered(), a.local.delivered());
  EXPECT_EQ(b.boundary.delivered(), a.boundary.delivered());
  EXPECT_EQ(faults::link_conservation_error(b.local), "");
  EXPECT_EQ(b.save(), a.save());
}

// The egress ring grows on demand (4, 8, 16, ... slots); a checkpoint taken
// mid-growth, with the head off slot 0, restores to the same FIFO and the
// same bytes, and both copies keep growing to the capacity identically.
TEST(Checkpoint, EgressRingRoundTripsMidGrowth) {
  net::QueueConfig qc;
  qc.kind = net::QueueConfig::Kind::DropTail;
  const auto a = net::make_queue(qc);
  const auto b = net::make_queue(qc);
  const sim::Time t0 = sim::Time::zero();
  for (std::uint64_t uid = 0; uid < 20; ++uid) ASSERT_TRUE(a->enqueue(data(uid), t0));
  net::Packet out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(a->dequeue(out, t0));
  ckpt::Saver s;
  a->save_state(s);
  ckpt::Loader l{s.data()};
  b->restore_state(l);
  ASSERT_TRUE(l.done());
  ckpt::Saver again;
  b->save_state(again);
  EXPECT_EQ(again.data(), s.data());
  for (std::uint64_t uid = 20; uid < 200; ++uid) {  // past the capacity of 100
    EXPECT_EQ(a->enqueue(data(uid), t0), b->enqueue(data(uid), t0));
  }
  EXPECT_EQ(a->len_packets(), 100u);
  EXPECT_EQ(b->len_packets(), 100u);
  for (std::uint64_t uid = 5; uid < 105; ++uid) {
    net::Packet pa;
    net::Packet pb;
    ASSERT_TRUE(a->dequeue(pa, t0));
    ASSERT_TRUE(b->dequeue(pb, t0));
    EXPECT_EQ(pa.uid, uid);
    EXPECT_EQ(pb.uid, uid);
  }
}

// A saved backlog longer than the queue's capacity is malformed input, not
// something to wrap the ring over: the restore fails.
TEST(Checkpoint, BacklogBeyondTheQueueCapacityIsRejected) {
  net::QueueConfig qc;
  qc.capacity_packets = 4;
  const auto a = net::make_queue(qc);
  ckpt::Saver s;
  s.u64(5);
  for (std::uint64_t uid = 0; uid < 5; ++uid) net::save_packet(s, data(uid));
  ckpt::Loader l{s.data()};
  a->restore_state(l);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(a->len_packets(), 0u);
}

}  // namespace
}  // namespace xmp::core
