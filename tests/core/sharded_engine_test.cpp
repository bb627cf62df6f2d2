// The sharded conservative-sync engine, driven through run_experiment with
// cfg.shards >= 1.
//
// The load-bearing property is *worker-count invariance*: logical shards
// are fixed by the topology, so --shards=1, 2 and 4 must produce identical
// results, bit for bit — the golden fingerprint below pins the trajectory
// the same way determinism_test.cpp pins the serial engine's.
//
// The sharded trajectory is NOT byte-identical to the serial engine's:
// conservative synchronisation preserves every packet timestamp but not
// the serial engine's insertion-order tie-break among equal-timestamp
// events (cross-shard deliveries are enqueued at the barrier, giving them
// a different heap sequence number than an in-epoch schedule would). The
// two engines therefore follow statistically equivalent but distinct
// sample paths; MatchesSerialAggregates bounds the distance.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/timeline.hpp"
#include "sim/scheduler.hpp"

namespace xmp::core {
namespace {

ExperimentConfig sharded_cfg(int shards) {
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

void expect_identical(const ExperimentResults& a, const ExperimentResults& b) {
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  EXPECT_EQ(a.goodput.percentile(50), b.goodput.percentile(50));
  EXPECT_EQ(a.sim_duration.ns(), b.sim_duration.ns());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rtt_by_category[i].count(), b.rtt_by_category[i].count());
    EXPECT_EQ(a.rtt_by_category[i].mean(), b.rtt_by_category[i].mean());
    EXPECT_EQ(a.utilization_by_layer[i].mean(), b.utilization_by_layer[i].mean());
    EXPECT_EQ(a.queue_occupancy_by_layer[i].mean(), b.queue_occupancy_by_layer[i].mean());
  }
  EXPECT_EQ(a.drops.offered, b.drops.offered);
  EXPECT_EQ(a.drops.delivered, b.drops.delivered);
  EXPECT_EQ(a.switch_forwarded, b.switch_forwarded);
  // The shard accounting itself is worker-count independent.
  EXPECT_EQ(a.shard.logical_shards, b.shard.logical_shards);
  EXPECT_EQ(a.shard.epochs, b.shard.epochs);
  EXPECT_EQ(a.shard.barriers, b.shard.barriers);
  EXPECT_EQ(a.shard.handoff_packets, b.shard.handoff_packets);
  EXPECT_EQ(a.shard.micro_steps, b.shard.micro_steps);
  EXPECT_EQ(a.shard.replays, b.shard.replays);
}

TEST(ShardedEngine, WorkerCountInvariance) {
  const auto r1 = run_experiment(sharded_cfg(1));
  const auto r2 = run_experiment(sharded_cfg(2));
  const auto r4 = run_experiment(sharded_cfg(4));
  expect_identical(r1, r2);
  expect_identical(r1, r4);
}

TEST(ShardedEngine, GoldenShardedFingerprint) {
  const auto r = run_experiment(sharded_cfg(2));
  EXPECT_TRUE(r.sharded);
  EXPECT_EQ(r.shard.logical_shards, 4);
  EXPECT_DOUBLE_EQ(r.shard.lookahead_us, 40.0);
  // Engine cost: no transmit-complete event is armed for a queue left
  // empty, in serial segments too.
  EXPECT_EQ(r.events_dispatched, 51665u);
  EXPECT_EQ(r.flows.size(), 16u);
  EXPECT_EQ(r.goodput.count(), 16u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 483.20222212422357);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 491.68590638081946);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.0083177600000000004);
  EXPECT_EQ(r.shard.epochs, 205u);
  EXPECT_EQ(r.shard.barriers, 206u);
  EXPECT_EQ(r.shard.handoff_packets, 6562u);
  EXPECT_EQ(r.shard.micro_steps, 4u);
  EXPECT_EQ(r.shard.replays, 0u);
  EXPECT_EQ(r.rtt_by_category[1].count(), 2u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[1].mean(), 0.37936899999999996);
  EXPECT_EQ(r.rtt_by_category[2].count(), 22u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.62665386363636355);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[0].mean(), 0.3728936636786826);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[0].mean(), 0.84078766398645788);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[1].mean(), 0.95095674797060759);
}

// Short rounds end inside serial micro-step segments, where the round's
// last flow flips it on one shard while the other shards wait. Every
// shard must start the next round's flows at the flip's own time, not at
// its clock's last step: no shard may hold an event before the flip. A new
// flow's first packet is sampled on its source NIC as it is queued, so in
// the trace, where a serial step's rows follow one another, the first NIC
// sample after a flow's start must not be earlier than that start. Host h's
// NIC is link 2h, and round r starts flows 16r..16r+15 from hosts 0..15.
TEST(ShardedEngine, RoundFlipStartsFlowsAtTheFlipOnEveryShard) {
  const std::string path = ::testing::TempDir() + "xmp_round_flip_trace.csv";
  auto cfg = sharded_cfg(2);
  cfg.permutation_rounds = 6;
  cfg.perm_min_bytes = 20'000;
  cfg.perm_max_bytes = 40'000;
  cfg.duration = sim::Time::seconds(0.03);
  cfg.obs.trace_csv = path;
  cfg.obs.categories = obs::cat::kQueue | obs::cat::kFlow;
  const auto r = run_experiment(cfg);
  ASSERT_GE(r.shard.micro_steps, 100u);
  ASSERT_EQ(r.flows.size(), 6u * 16u);

  constexpr std::uint64_t kHosts = 16;
  std::map<std::uint64_t, std::int64_t> started;  // host -> start of its new flow
  std::uint64_t checked = 0;
  std::ifstream in{path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  while (std::getline(in, line)) {
    std::istringstream row{line};
    std::string t_ns, kind, id;
    std::getline(row, t_ns, ',');
    std::getline(row, kind, ',');
    std::getline(row, id, ',');
    const std::int64_t t = std::stoll(t_ns);
    const std::uint64_t n = std::stoull(id);
    if (kind == "flow_start" && n >= kHosts) {  // rounds 1..5 start at a flip
      started[n % kHosts] = t;
    } else if (kind == "queue_sample" && n % 2 == 0 && n / 2 < kHosts) {
      const auto it = started.find(n / 2);
      if (it == started.end()) continue;
      EXPECT_GE(t, it->second) << "host " << n / 2 << "'s NIC ran before its flow started";
      started.erase(it);
      ++checked;
    }
  }
  EXPECT_GE(checked, 2 * kHosts);
}

// The serial engine's golden constants (determinism_test.cpp) pin its
// trajectory; the sharded engine must land on the same physics even though
// its equal-timestamp tie-breaks differ. Flow population and byte totals
// are exact; rate statistics agree to a few percent.
TEST(ShardedEngine, MatchesSerialAggregates) {
  auto serial_cfg = sharded_cfg(0);
  serial_cfg.shards = 0;
  const auto s = run_experiment(serial_cfg);
  const auto p = run_experiment(sharded_cfg(2));
  ASSERT_EQ(s.flows.size(), p.flows.size());
  ASSERT_EQ(s.goodput.count(), p.goodput.count());
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    EXPECT_EQ(s.flows[i].bytes, p.flows[i].bytes);
    EXPECT_EQ(s.flows[i].src_host, p.flows[i].src_host);
    EXPECT_EQ(s.flows[i].dst_host, p.flows[i].dst_host);
    EXPECT_EQ(s.flows[i].completed, p.flows[i].completed);
  }
  EXPECT_NEAR(p.goodput.mean() / s.goodput.mean(), 1.0, 0.05);
  EXPECT_NEAR(p.sim_duration.sec() / s.sim_duration.sec(), 1.0, 0.05);
  EXPECT_EQ(s.drops.queue, 0u);
  EXPECT_EQ(p.drops.queue, 0u);
}

// Control events landing exactly on epoch boundaries: with the RTT probe
// interval equal to the 40 us lookahead, every epoch ends exactly at a
// control event and the follow-on epoch starts with one due at its very
// first instant (the b == start empty-epoch path). The horizon is chosen
// off the 40 us grid so the final epoch is truncated mid-window.
TEST(ShardedEngine, ControlEventExactlyAtEpochEnd) {
  auto mk = [](int shards) {
    auto cfg = sharded_cfg(shards);
    cfg.rtt_sample_interval = sim::Time::microseconds(40);
    cfg.duration = sim::Time::microseconds(2'375);  // not a lookahead multiple
    return cfg;
  };
  const auto r1 = run_experiment(mk(1));
  const auto r2 = run_experiment(mk(2));
  expect_identical(r1, r2);
  EXPECT_EQ(r1.sim_duration.ns(), 2'375'000);
}

// A transient core-link failure mid-run: the kill lands mid-epoch (the
// control strand forces an epoch boundary at the fault instant, so the
// link flips state with the fabric quiesced), RTO timers scheduled many
// epochs ahead fire or are cancelled/rescheduled across epoch horizons,
// and the in-flight mirror of the downed boundary link drops its payload
// exactly like the serial engine's in-flight accounting does.
TEST(ShardedEngine, BoundaryLinkKillMidEpoch) {
  // Find a core (cross-shard) link id from a scratch build of the same tree.
  net::LinkId core_link = 0;
  {
    sim::Scheduler sched;
    net::Network netw{sched};
    topo::FatTree::Config tc;
    tc.k = 4;
    topo::FatTree tree{netw, tc};
    core_link = tree.links(topo::FatTree::Layer::Core)[0]->id();
  }
  auto mk = [core_link](int shards) {
    auto cfg = sharded_cfg(shards);
    faults::FaultEvent down;
    down.kind = faults::FaultEvent::Kind::LinkDown;
    down.at = sim::Time::microseconds(2'030);  // mid-epoch: off the 40 us grid
    down.target = static_cast<int>(core_link);
    faults::FaultEvent up = down;
    up.kind = faults::FaultEvent::Kind::LinkUp;
    up.at = sim::Time::microseconds(4'810);
    cfg.fault_plan.events = {down, up};
    cfg.scheme.dead_after_rtos = 0;  // keep subflows alive through the outage
    return cfg;
  };
  const auto r1 = run_experiment(mk(1));
  const auto r2 = run_experiment(mk(2));
  const auto r4 = run_experiment(mk(4));
  expect_identical(r1, r2);
  expect_identical(r1, r4);
  // The outage must actually have bitten: packets died on the wire.
  EXPECT_GT(r1.drops.fault + r1.drops.admin_down, 0u);
}

// Per-link impairment rows must add up to the run's impairment totals in
// both engines. The gray plan and scenario are scripts/gray_diff.sh's: every
// gray fault kind at once on a k=4 permutation (seed 11), so each of the
// duplicated/delayed/overmarked columns is non-zero.
TEST(ShardedEngine, LinkImpairmentRowsSumToTotals) {
  auto mk = [](int shards) {
    ExperimentConfig cfg;
    cfg.fat_tree_k = 4;
    cfg.pattern = Pattern::Permutation;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.scheme.beta = 4;
    cfg.scheme.dead_after_rtos = 3;  // the CLI default under a fault plan
    cfg.permutation_rounds = 1;
    cfg.duration = sim::Time::seconds(0.05);
    cfg.seed = 11;
    cfg.shards = shards;
    std::string err;
    const bool parsed = faults::FaultPlan::parse(
        "degrade,link=2,at=0.01,factor=0.4,until=0.03;"
        "delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;"
        "reorder,link=7,at=0.01,p=0.05,dt=2e-4;"
        "duplicate,link=9,at=0,p=0.02;"
        "overmark,link=11,at=0.02,p=0.3",
        cfg.fault_plan, &err);
    EXPECT_TRUE(parsed) << err;
    return cfg;
  };
  for (const int shards : {0, 1}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto r = run_experiment(mk(shards));
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t overmarked = 0;
    for (const auto& row : r.link_drops) {
      duplicated += row.duplicated;
      delayed += row.delayed;
      overmarked += row.overmarked;
    }
    EXPECT_GT(r.drops.duplicated, 0u);
    EXPECT_GT(r.drops.delayed, 0u);
    EXPECT_GT(r.drops.overmarked, 0u);
    EXPECT_EQ(duplicated, r.drops.duplicated);
    EXPECT_EQ(delayed, r.drops.delayed);
    EXPECT_EQ(overmarked, r.drops.overmarked);
  }
}

// Construction-time rejection: a zero-delay cross-shard link would make the
// conservative lookahead zero (no parallel window at all), so the fabric
// refuses to build, with exit code 2 and a one-line diagnostic.
TEST(ShardedEngineDeath, ZeroCrossShardDelayExits2) {
  EXPECT_EXIT(
      {
        net::ShardFabric fabric{4};
        fabric.note_cross_link(0, 1, sim::Time::zero(), 7);
      },
      ::testing::ExitedWithCode(2), "zero propagation delay");
}

// A library caller asking the sharded engine for a pattern it cannot run
// gets a one-line reason and exit 2 in every build type, never a silent
// permutation run.
TEST(ShardedEngineDeath, RandomPatternExits2) {
  auto cfg = sharded_cfg(1);
  cfg.pattern = Pattern::Random;
  EXPECT_EXIT((void)run_experiment(cfg), ::testing::ExitedWithCode(2),
              "sharded engine supports the Permutation pattern only");
}

// --- boundary links on a bare two-shard fabric (no experiment around) ---

/// Records arrival instants on the destination shard's clock.
class ArrivalSink final : public net::PacketSink {
 public:
  explicit ArrivalSink(sim::Scheduler& s) : sched_{s} {}
  void receive(net::Packet /*p*/) override { at.push_back(sched_.now()); }
  std::vector<sim::Time> at;

 private:
  sim::Scheduler& sched_;
};

/// One 1 Gbps boundary link from shard 0 to shard 1 with a 12 us delay.
struct BoundaryRig {
  net::ShardFabric fabric{2};
  ArrivalSink sink{fabric.sched(1)};
  net::Link link{fabric.sched(0), 0, 1'000'000'000, sim::Time::microseconds(12),
                 net::make_queue(net::QueueConfig{}), sink};

  BoundaryRig() {
    fabric.note_cross_link(0, 1, link.prop_delay(), link.id());
    link.set_remote_handoff(&fabric.channel(0, 1), fabric.sched(1));
  }
  void send(int n) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.uid = static_cast<std::uint64_t>(i);
      p.size_bytes = net::kDataPacketBytes;
      link.send(p);
    }
  }
  /// One conservative-sync epoch ending at `b`: run both shards, drain the
  /// channels, align the clocks.
  void epoch_to(sim::Time b) {
    for (int s = 0; s < 2; ++s) fabric.sched(s).run_before(b);
    fabric.drain_all();
    for (int s = 0; s < 2; ++s) fabric.sched(s).advance_clock_to(b);
  }
};

// A packet due exactly at a barrier is neither delivered (run_before
// excludes the barrier instant) nor lost, so the conservation law must see
// it in flight there.
TEST(ShardFabric, BoundaryPacketDueAtBarrierCountsAsInFlight) {
  BoundaryRig rig;
  rig.send(1);  // 12 us serialization + 12 us propagation: due at 24 us
  rig.epoch_to(sim::Time::microseconds(12));
  rig.epoch_to(sim::Time::microseconds(24));
  EXPECT_EQ(rig.link.offered(), 1u);
  EXPECT_EQ(rig.link.delivered(), 0u);
  EXPECT_EQ(rig.link.queue().len_packets(), 0u);
  EXPECT_EQ(rig.link.live_in_flight(), 1u);
  rig.epoch_to(sim::Time::microseconds(36));
  EXPECT_EQ(rig.link.delivered(), 1u);
  EXPECT_EQ(rig.link.live_in_flight(), 0u);
  EXPECT_EQ(rig.sink.at, (std::vector<sim::Time>{sim::Time::microseconds(24)}));
}

// Parked cross-shard arrivals chain like a local wire: the destination
// scheduler holds one event for the whole FIFO, and each arrival still
// lands at its own instant.
TEST(ShardFabric, ParkedArrivalsArmOneEventPerLink) {
  BoundaryRig rig;
  rig.send(5);
  // Transmissions start at 0, 12, 24, 36 and 48 us; all five are in the
  // channel before 60 us and none is due before 24 us.
  rig.fabric.sched(0).run_before(sim::Time::microseconds(60));
  EXPECT_EQ(rig.fabric.drain_all(), 5u);
  EXPECT_EQ(rig.fabric.sched(1).pending(), 1u);
  EXPECT_EQ(rig.link.live_in_flight(), 5u);
  rig.fabric.sched(1).run_until(sim::Time::microseconds(100));
  EXPECT_EQ(rig.sink.at, (std::vector<sim::Time>{
                             sim::Time::microseconds(24), sim::Time::microseconds(36),
                             sim::Time::microseconds(48), sim::Time::microseconds(60),
                             sim::Time::microseconds(72)}));
  EXPECT_EQ(rig.fabric.sched(1).dispatched(), 5u);
  EXPECT_EQ(rig.link.delivered(), 5u);
}

}  // namespace
}  // namespace xmp::core
