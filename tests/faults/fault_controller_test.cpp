// FaultPlan parsing/building and FaultController semantics: deterministic
// loss processes, composite switch/host failures, ECN blackholes, and the
// MPTCP failover path they exercise (subflow death, reinjection, abort).

#include "faults/fault_controller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "mptcp/connection.hpp"
#include "topo/pinned.hpp"
#include "transport/flow.hpp"
#include "util/fixtures.hpp"

namespace xmp::faults {
namespace {

using testutil::TwoHosts;

constexpr std::int64_t kGbps = 1'000'000'000;

// ---------------------------------------------------------------------------
// FaultPlan: builders and text form
// ---------------------------------------------------------------------------

TEST(FaultPlan, BuildersExpandComposites) {
  FaultPlan p;
  p.link_flap(3, sim::Time::seconds(0.1), sim::Time::seconds(0.02), 3);
  ASSERT_EQ(p.size(), 6u);  // 3 down/up cycles
  for (int i = 0; i < 3; ++i) {
    const auto& down = p.events[2 * i];
    const auto& up = p.events[2 * i + 1];
    EXPECT_EQ(down.kind, FaultEvent::Kind::LinkDown);
    EXPECT_EQ(up.kind, FaultEvent::Kind::LinkUp);
    EXPECT_EQ(down.target, 3);
    EXPECT_DOUBLE_EQ(down.at.sec(), 0.1 + 0.02 * i);
    EXPECT_DOUBLE_EQ(up.at.sec(), 0.1 + 0.02 * i + 0.01);  // 50% duty cycle
  }

  FaultPlan q;
  q.loss(2, LossModel::bernoulli(0.01), sim::Time::zero(), sim::Time::seconds(0.5));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.events[0].kind, FaultEvent::Kind::LossStart);
  EXPECT_EQ(q.events[1].kind, FaultEvent::Kind::LossStop);
  EXPECT_DOUBLE_EQ(q.events[1].at.sec(), 0.5);

  FaultPlan r;
  r.blackhole(5, sim::Time::seconds(0.2));  // no until => no stop event
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.events[0].kind, FaultEvent::Kind::EcnBlackholeStart);
}

TEST(FaultPlan, ParsesEveryVerb) {
  FaultPlan p;
  std::string err;
  const std::string text =
      "down,link=3,at=0.5,until=0.7; up,link=4,at=0.9;"
      "flap,link=1,at=0.1,period=0.02,count=2;"
      "down,switch=2,at=0.3; down,host=7,at=0.4,until=0.6;"
      "loss,link=2,at=0,p=0.01,corrupt=0.002,until=0.5;"
      "gilbert,link=6,at=0.1,pgb=0.001,pbg=0.2,pbad=0.3;"
      "blackhole,switch=5,at=0.2,until=0.4";
  ASSERT_TRUE(FaultPlan::parse(text, p, &err)) << err;
  // down+until(2) + up(1) + flap(4) + switch(1) + host+until(2) +
  // loss+until(2) + gilbert(1) + blackhole+until(2)
  ASSERT_EQ(p.size(), 15u);

  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::LinkDown);
  EXPECT_EQ(p.events[1].kind, FaultEvent::Kind::LinkUp);
  EXPECT_DOUBLE_EQ(p.events[1].at.sec(), 0.7);
  EXPECT_EQ(p.events[2].kind, FaultEvent::Kind::LinkUp);
  EXPECT_EQ(p.events[2].target, 4);
  EXPECT_EQ(p.events[7].kind, FaultEvent::Kind::SwitchDown);
  EXPECT_EQ(p.events[8].kind, FaultEvent::Kind::HostDown);
  EXPECT_EQ(p.events[9].kind, FaultEvent::Kind::HostUp);

  const auto& loss = p.events[10];
  EXPECT_EQ(loss.kind, FaultEvent::Kind::LossStart);
  EXPECT_EQ(loss.loss.kind, LossModel::Kind::Bernoulli);
  EXPECT_DOUBLE_EQ(loss.loss.p_loss, 0.01);
  EXPECT_DOUBLE_EQ(loss.loss.p_corrupt, 0.002);
  EXPECT_EQ(p.events[11].kind, FaultEvent::Kind::LossStop);

  const auto& ge = p.events[12];
  EXPECT_EQ(ge.loss.kind, LossModel::Kind::GilbertElliott);
  EXPECT_DOUBLE_EQ(ge.loss.p_good_bad, 0.001);
  EXPECT_DOUBLE_EQ(ge.loss.p_bad_good, 0.2);
  EXPECT_DOUBLE_EQ(ge.loss.loss_bad, 0.3);
  EXPECT_DOUBLE_EQ(ge.loss.loss_good, 0.0);  // default

  EXPECT_EQ(p.events[13].kind, FaultEvent::Kind::EcnBlackholeStart);
  EXPECT_EQ(p.events[14].kind, FaultEvent::Kind::EcnBlackholeStop);
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  FaultPlan p;
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("explode,link=1,at=0.1", p, &err));
  EXPECT_NE(err.find("unknown fault verb"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse("down,at=0.5", p, &err));  // no target
  EXPECT_FALSE(FaultPlan::parse("down,link=1", p, &err));  // no at=
  EXPECT_FALSE(FaultPlan::parse("loss,link=1,at=0,p=1.5", p, &err));
  EXPECT_FALSE(FaultPlan::parse("loss,link=1,at=0", p, &err));  // p+corrupt == 0
  EXPECT_FALSE(FaultPlan::parse("down,link=1,at=0.5,until=0.4", p, &err));
  EXPECT_FALSE(FaultPlan::parse("gilbert,link=1,at=0", p, &err));  // no pgb=
  EXPECT_FALSE(FaultPlan::parse("down,link,at=0.1", p, &err));     // not key=value
  // Errors must not leave partial plans behind.
  EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, EmptyTextIsAnEmptyPlan) {
  FaultPlan p;
  EXPECT_TRUE(FaultPlan::parse("", p, nullptr));
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ; ", p, nullptr));
  EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, LossRoundTripsThroughToString) {
  FaultPlan p;
  p.loss(2, LossModel::bernoulli(0.01, 0.002), sim::Time::zero());
  FaultPlan q;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(p.to_string(), q, &err)) << err;
  ASSERT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.events[0].loss.p_loss, 0.01);
  EXPECT_DOUBLE_EQ(q.events[0].loss.p_corrupt, 0.002);
}

// ---------------------------------------------------------------------------
// LossProcess: deterministic verdict streams
// ---------------------------------------------------------------------------

std::vector<net::Link::FaultVerdict> draw(LossProcess& lp, int n) {
  std::vector<net::Link::FaultVerdict> out;
  net::Packet p;
  for (int i = 0; i < n; ++i) out.push_back(lp.on_send(p));
  return out;
}

TEST(LossProcess, SameSeedSameLinkGivesIdenticalVerdicts) {
  const LossModel m = LossModel::bernoulli(0.5, 0.1);
  LossProcess a{m, 42, 3};
  LossProcess b{m, 42, 3};
  EXPECT_EQ(draw(a, 200), draw(b, 200));
}

TEST(LossProcess, SeedAndLinkBothPerturbTheStream) {
  const LossModel m = LossModel::bernoulli(0.5);
  LossProcess base{m, 42, 3};
  LossProcess other_seed{m, 43, 3};
  LossProcess other_link{m, 42, 4};
  const auto ref = draw(base, 200);
  EXPECT_NE(ref, draw(other_seed, 200));
  EXPECT_NE(ref, draw(other_link, 200));
}

TEST(LossProcess, GilbertExtremesPinTheChannelState) {
  // p_good_bad = 1, p_bad_good = 0, loss_bad = 1: every packet after the
  // first transition is lost.
  LossProcess always_bad{LossModel::gilbert(1.0, 0.0, 1.0), 1, 0};
  for (const auto v : draw(always_bad, 50)) EXPECT_EQ(v, net::Link::FaultVerdict::Action::Drop);
  // p_good_bad = 0, loss_good = 0: the channel never degrades.
  LossProcess always_good{LossModel::gilbert(1e-12, 0.5, 1.0), 1, 0};
  int drops = 0;
  for (const auto v : draw(always_good, 50)) drops += v == net::Link::FaultVerdict::Action::Drop;
  EXPECT_EQ(drops, 0);
}

// ---------------------------------------------------------------------------
// FaultController against live networks
// ---------------------------------------------------------------------------

/// Host -- switch -- host, with symmetric link pairs (4 links total).
struct HostSwitchHost {
  sim::Scheduler sched;
  net::Network net{sched};
  net::Host* h0 = nullptr;
  net::Host* h1 = nullptr;
  net::Switch* sw = nullptr;

  HostSwitchHost() {
    h0 = &net.add_host();
    h1 = &net.add_host();
    sw = &net.add_switch();
    const auto q = testutil::droptail_queue(64);
    net.attach_host(*h0, *sw, kGbps, sim::Time::microseconds(10), q);
    net.attach_host(*h1, *sw, kGbps, sim::Time::microseconds(10), q);
  }
};

TEST(FaultController, SwitchDownDownsEveryAttachedLink) {
  HostSwitchHost t;
  FaultPlan plan;
  plan.switch_down(0, sim::Time::milliseconds(1)).switch_up(0, sim::Time::milliseconds(2));
  FaultController ctl{t.sched, t.net, plan};
  ctl.arm();

  t.sched.run_until(sim::Time::microseconds(1500));
  for (const auto& l : t.net.links()) EXPECT_TRUE(l->is_down()) << "link " << l->id();
  EXPECT_EQ(ctl.events_applied(), 1u);

  t.sched.run_until(sim::Time::microseconds(2500));
  for (const auto& l : t.net.links()) EXPECT_FALSE(l->is_down()) << "link " << l->id();
  EXPECT_EQ(ctl.events_applied(), 2u);
}

TEST(FaultController, HostDownDownsUplinkAndIngressOnly) {
  HostSwitchHost t;
  FaultPlan plan;
  plan.host_down(0, sim::Time::milliseconds(1));
  FaultController ctl{t.sched, t.net, plan};
  ctl.arm();
  t.sched.run_until(sim::Time::milliseconds(1) + sim::Time::microseconds(1));

  EXPECT_TRUE(t.h0->uplink()->is_down());
  for (net::Link* l : t.net.links_into(*t.h0)) EXPECT_TRUE(l->is_down());
  // Host 1's connectivity is untouched.
  EXPECT_FALSE(t.h1->uplink()->is_down());
  for (net::Link* l : t.net.links_into(*t.h1)) EXPECT_FALSE(l->is_down());
}

TEST(FaultController, BlackholeDisablesMarkingOnEgressQueues) {
  HostSwitchHost t;
  FaultPlan plan;
  plan.blackhole(0, sim::Time::milliseconds(1), sim::Time::milliseconds(2));
  FaultController ctl{t.sched, t.net, plan};
  ctl.arm();

  t.sched.run_until(sim::Time::microseconds(1500));
  ASSERT_GT(t.sw->port_count(), 0u);
  for (std::size_t i = 0; i < t.sw->port_count(); ++i) {
    EXPECT_FALSE(t.sw->port(i).queue().marking_enabled());
  }
  // Host uplinks are not the switch's egress: they keep marking.
  EXPECT_TRUE(t.h0->uplink()->queue().marking_enabled());

  t.sched.run_until(sim::Time::microseconds(2500));
  for (std::size_t i = 0; i < t.sw->port_count(); ++i) {
    EXPECT_TRUE(t.sw->port(i).queue().marking_enabled());
  }
}

// ---------------------------------------------------------------------------
// End-to-end: loss / corruption / transient outage under real transport
// ---------------------------------------------------------------------------

struct LossyFlowBed {
  TwoHosts t{kGbps, sim::Time::microseconds(50), testutil::droptail_queue(256)};
  std::unique_ptr<transport::Flow> flow;

  explicit LossyFlowBed(std::int64_t bytes) {
    transport::Flow::Config fc;
    fc.id = 1;
    fc.size_bytes = bytes;
    flow = std::make_unique<transport::Flow>(t.sched, *t.a, *t.b, fc);
  }

  void run(const FaultPlan& plan, std::uint64_t seed, sim::Time horizon) {
    FaultController::Config fcc;
    fcc.seed = seed;
    FaultController ctl{t.sched, t.net, plan, fcc};
    ctl.arm();
    flow->start();
    t.sched.run_until(horizon);
  }
};

TEST(FaultController, BernoulliLossRecoversAndConserves) {
  FaultPlan plan;
  plan.loss(0, LossModel::bernoulli(0.01), sim::Time::zero());  // link 0 == a->b

  LossyFlowBed bed{1'000'000};
  bed.run(plan, 7, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.drops().fault, 0u);
  EXPECT_EQ(ab.drops().corrupt, 0u);
  // Conservation at quiescence: nothing queued, nothing in flight.
  EXPECT_EQ(ab.offered(), ab.delivered() + ab.drops().total() + ab.queue().len_packets() +
                              ab.live_in_flight());
}

TEST(FaultController, SameFaultSeedReplaysBitIdentically) {
  FaultPlan plan;
  plan.loss(0, LossModel::bernoulli(0.02), sim::Time::zero());

  std::uint64_t drops[2];
  double finish[2];
  std::uint64_t events[2];
  for (int i = 0; i < 2; ++i) {
    LossyFlowBed bed{1'000'000};
    bed.run(plan, 99, sim::Time::seconds(30));
    ASSERT_TRUE(bed.flow->complete());
    drops[i] = bed.t.ab->drops().fault;
    finish[i] = bed.flow->finish_time().sec();
    events[i] = bed.t.sched.dispatched();
  }
  EXPECT_EQ(drops[0], drops[1]);
  EXPECT_DOUBLE_EQ(finish[0], finish[1]);
  EXPECT_EQ(events[0], events[1]);
}

TEST(FaultController, CorruptionIsCountedSeparatelyAndDiscarded) {
  FaultPlan plan;
  plan.loss(0, LossModel::bernoulli(0.0, 0.02), sim::Time::zero());  // corrupt only

  LossyFlowBed bed{1'000'000};
  bed.run(plan, 11, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.drops().corrupt, 0u);
  EXPECT_EQ(ab.drops().fault, 0u);
  // Corrupted packets consumed wire time but were never handed to the sink.
  EXPECT_EQ(ab.offered(), ab.delivered() + ab.drops().total() + ab.queue().len_packets() +
                              ab.live_in_flight());
}

TEST(FaultController, TransientOutageIsSurvivedByGoBackN) {
  // The outage hits 1 ms in, long before the ~16 ms transfer could finish.
  FaultPlan plan;
  plan.link_down(0, sim::Time::milliseconds(1));
  plan.link_up(0, sim::Time::milliseconds(300));

  LossyFlowBed bed{2'000'000};
  bed.run(plan, 1, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  EXPECT_GT(bed.t.ab->drops().admin_down, 0u);
  EXPECT_GT(bed.flow->finish_time().ms(), 300.0);  // stalled across the outage
}

TEST(FaultController, LossStopsWhenThePlanSaysSo) {
  // 100% loss for the first 100 ms, then a clean link: the flow must finish
  // with every fault drop timestamped inside the loss window.
  FaultPlan plan;
  plan.loss(0, LossModel::bernoulli(1.0), sim::Time::zero(), sim::Time::milliseconds(100));

  LossyFlowBed bed{200'000};
  bed.run(plan, 5, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  EXPECT_GT(bed.t.ab->drops().fault, 0u);
  EXPECT_EQ(bed.t.ab->fault_hook(), nullptr);  // hook removed at stop
}

// ---------------------------------------------------------------------------
// MPTCP failover hardening
// ---------------------------------------------------------------------------

struct FailoverBed {
  sim::Scheduler sched;
  net::Network net{sched};
  std::unique_ptr<topo::PinnedPaths> paths;

  FailoverBed() {
    topo::PinnedPaths::Config tc;
    tc.bottlenecks = {{kGbps, sim::Time::microseconds(50)},
                      {kGbps, sim::Time::microseconds(50)}};
    tc.bottleneck_queue = testutil::ecn_queue(100, 10);
    paths = std::make_unique<topo::PinnedPaths>(net, tc);
  }

  std::unique_ptr<mptcp::MptcpConnection> make_conn(std::int64_t bytes, int dead_after) {
    auto pair = paths->add_pair({0, 1});
    mptcp::MptcpConnection::Config mc;
    mc.id = 1;
    mc.size_bytes = bytes;
    mc.n_subflows = 2;
    mc.coupling = mptcp::Coupling::Xmp;
    mc.path_tag_fn = [](int i) { return static_cast<std::uint16_t>(i); };
    mc.dead_after_rtos = dead_after;
    // Shrink the RTO floor so the consecutive-RTO death verdict lands while
    // the transfer is still in flight (default 200 ms RTOmin would let the
    // survivor finish first on this microsecond-RTT testbed).
    mc.tune_sender = [](transport::SenderConfig& c) {
      c.rto_min = sim::Time::milliseconds(5);
      c.initial_rto = sim::Time::milliseconds(5);
    };
    return std::make_unique<mptcp::MptcpConnection>(sched, *pair.src, *pair.dst, mc);
  }
};

TEST(MptcpFailover, PermanentPathFailureKillsTheSubflowAndCompletes) {
  FailoverBed tb;
  auto conn = tb.make_conn(20'000'000, /*dead_after=*/3);
  conn->start();

  FaultPlan plan;
  plan.link_down(tb.paths->bottleneck(0).id(), sim::Time::milliseconds(20));
  FaultController ctl{tb.sched, tb.net, plan};
  ctl.arm();

  tb.sched.run_until(sim::Time::seconds(10));
  ASSERT_TRUE(conn->complete());
  EXPECT_FALSE(conn->aborted());
  EXPECT_TRUE(conn->subflow_dead(0));
  EXPECT_FALSE(conn->subflow_dead(1));
  EXPECT_EQ(conn->live_subflows(), 1);
  // The dead subflow is out of the coupling aggregates...
  EXPECT_EQ(conn->context().subflow_count(), 1);
  // ...and its sender generates no further events.
  EXPECT_TRUE(conn->subflow_sender(0).halted());
  EXPECT_EQ(conn->delivered_bytes(), 20'000'000);
}

TEST(MptcpFailover, DeadSubflowStopsAfterConfiguredRtoCount) {
  FailoverBed tb;
  auto conn = tb.make_conn(10'000'000, /*dead_after=*/2);
  conn->start();
  tb.sched.schedule_at(sim::Time::milliseconds(20),
                       [&] { tb.paths->bottleneck(0).set_down(true); });
  tb.sched.run_until(sim::Time::seconds(10));
  ASSERT_TRUE(conn->complete());
  ASSERT_TRUE(conn->subflow_dead(0));
  // Death is declared at the configured consecutive-RTO threshold, so the
  // dead sender saw exactly that many timeouts after its last progress.
  EXPECT_EQ(conn->subflow_sender(0).rto_backoff(), 2);
}

TEST(MptcpFailover, AllSubflowsDeadAbortsTheConnection) {
  FailoverBed tb;
  auto conn = tb.make_conn(50'000'000, /*dead_after=*/2);
  int aborts = 0;
  conn->set_on_abort([&] { ++aborts; });
  conn->start();

  FaultPlan plan;
  plan.link_down(tb.paths->bottleneck(0).id(), sim::Time::milliseconds(20));
  plan.link_down(tb.paths->bottleneck(1).id(), sim::Time::milliseconds(20));
  FaultController ctl{tb.sched, tb.net, plan};
  ctl.arm();

  tb.sched.run_until(sim::Time::seconds(10));
  EXPECT_FALSE(conn->complete());
  EXPECT_TRUE(conn->aborted());
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(conn->live_subflows(), 0);
  EXPECT_LT(conn->delivered_bytes(), 50'000'000);
  // Abort quiesces the connection: both senders halted, no event churn left.
  EXPECT_TRUE(conn->subflow_sender(0).halted());
  EXPECT_TRUE(conn->subflow_sender(1).halted());
}

TEST(MptcpFailover, DisabledByDefault) {
  // dead_after_rtos = 0 (the default): a permanently failed path never kills
  // the subflow — pre-fault-injection behavior, reinjection still completes
  // the transfer.
  FailoverBed tb;
  auto conn = tb.make_conn(5'000'000, /*dead_after=*/0);
  conn->start();
  tb.sched.schedule_at(sim::Time::milliseconds(20),
                       [&] { tb.paths->bottleneck(0).set_down(true); });
  tb.sched.run_until(sim::Time::seconds(5));
  ASSERT_TRUE(conn->complete());
  EXPECT_FALSE(conn->subflow_dead(0));
  EXPECT_EQ(conn->live_subflows(), 2);
}

}  // namespace
}  // namespace xmp::faults
