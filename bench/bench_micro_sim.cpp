// Micro-benchmarks of the simulator substrate (google-benchmark): event
// scheduling, queue disciplines, link forwarding, end-to-end transport and
// Fat-Tree construction. These are regression guards for the hot paths
// that determine how large an evaluation fits in a given wall-clock budget.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/xmp.hpp"

using namespace xmp;

namespace {

void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sched.schedule_at(sim::Time::nanoseconds(i), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.dispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleDispatch)->Arg(1000)->Arg(100000);

void BM_SchedulerTimerChurn(benchmark::State& state) {
  // Schedule + cancel pattern (the RTO-timer workload).
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::EventId pending = sim::kInvalidEventId;
    for (int i = 0; i < 10000; ++i) {
      sched.cancel(pending);
      pending = sched.schedule_at(sim::Time::nanoseconds(1000000 + i), [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerTimerChurn);

void BM_SchedulerDelayMix(benchmark::State& state) {
  // The insert-delay mix of a k=8 fat-tree permutation run at about
  // state.range(0) pending events: 25% under 0.5 µs (ACK serialization),
  // 60% at 8-16 µs (data serialization, re-armed wire heads), 10% at
  // 16-65 µs, 2% at 0.5-8 µs and a rare 200 ms RTO. On top of that, 2.9%
  // of dispatches re-arm a 1 ms delayed-ACK timer, cancelling the
  // receiver's previous one if it is still pending (it nearly always is).
  // Every dispatch schedules one successor, so the population is steady.
  constexpr int kEvents = 200'000;
  constexpr std::size_t kTable = 4096;
  struct Mix {
    sim::Scheduler* sched = nullptr;
    std::vector<sim::Time> delays;     ///< successor delays, cycled
    std::vector<std::uint8_t> rearm;   ///< whether this dispatch re-arms a timer
    std::vector<sim::EventId> timers;  ///< one delayed-ACK timer per receiver
    std::size_t next = 0;
    int left = kEvents;
    void fire() {
      const std::size_t i = next++ % kTable;
      if (rearm[i] != 0) {
        sim::EventId& timer = timers[i % timers.size()];
        sched->cancel(timer);
        timer = sched->schedule_in(sim::Time::milliseconds(1), [] {});
      }
      if (--left == 0) sched->stop();
      sched->schedule_in(delays[i], [this] { fire(); });
    }
  };
  const auto target = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{42};
  Mix mix;
  for (std::size_t i = 0; i < kTable; ++i) {
    const double u = rng.uniform01();
    std::int64_t ns = 0;
    if (u < 0.25) {
      ns = rng.uniform_int(0, 499);
    } else if (u < 0.85) {
      ns = rng.uniform_int(8'000, 16'000);
    } else if (u < 0.95) {
      ns = rng.uniform_int(16'000, 65'000);
    } else if (u < 0.9999) {
      ns = rng.uniform_int(500, 8'000);
    } else {
      ns = 200'000'000;
    }
    mix.delays.push_back(sim::Time::nanoseconds(ns));
    mix.rearm.push_back(rng.uniform01() < 0.029 ? 1 : 0);
  }
  for (auto _ : state) {
    sim::Scheduler sched;
    mix.sched = &sched;
    mix.next = 0;
    mix.left = kEvents;
    // About one receiver timer per eight chained events.
    mix.timers.assign(target / 8, sim::kInvalidEventId);
    for (std::size_t i = 0; i < target - target / 8; ++i) {
      sched.schedule_at(mix.delays[(i * 7) % kTable], [&mix] { mix.fire(); });
    }
    sched.run();
    benchmark::DoNotOptimize(sched.dispatched());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SchedulerDelayMix)->Arg(180)->Arg(700)->Unit(benchmark::kMillisecond);

void BM_EcnQueueEnqueueDequeue(benchmark::State& state) {
  net::EcnThresholdQueue q{100, 10};
  net::Packet p;
  p.ecn = net::Ecn::Ect;
  for (auto _ : state) {
    net::Packet in = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(in), sim::Time::zero()));
    net::Packet out;
    benchmark::DoNotOptimize(q.dequeue(out, sim::Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcnQueueEnqueueDequeue);

void BM_RedQueueEnqueueDequeue(benchmark::State& state) {
  net::RedQueue q{100, {}};
  net::Packet p;
  p.ecn = net::Ecn::Ect;
  for (auto _ : state) {
    net::Packet in = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(in), sim::Time::zero()));
    net::Packet out;
    benchmark::DoNotOptimize(q.dequeue(out, sim::Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedQueueEnqueueDequeue);

void BM_EndToEndTransfer(benchmark::State& state) {
  // Full transport stack: one 10 MB BOS flow over a 10 Gbps pipe.
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network network{sched};
    net::QueueConfig q;
    q.kind = net::QueueConfig::Kind::EcnThreshold;
    q.capacity_packets = 100;
    q.mark_threshold = 60;
    net::Host& a = network.add_host();
    net::Host& b = network.add_host();
    net::Link& ab = network.add_link(b, 10'000'000'000, sim::Time::microseconds(10), q);
    net::Link& ba = network.add_link(a, 10'000'000'000, sim::Time::microseconds(10), q);
    a.attach_uplink(ab);
    b.attach_uplink(ba);
    transport::Flow::Config fc;
    fc.id = 1;
    fc.size_bytes = 10'000'000;
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    transport::Flow f{sched, a, b, fc};
    f.start();
    sched.run_until(sim::Time::seconds(1.0));
    benchmark::DoNotOptimize(f.complete());
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(sched.dispatched()), benchmark::Counter::kIsIterationInvariantRate);
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_EndToEndTransfer)->Unit(benchmark::kMillisecond);

void BM_LongWire(benchmark::State& state) {
  // One saturated 1 Gbps link with 1 ms of propagation: about 83 packets
  // are on the wire at once, so this prices the per-packet delivery path
  // (and the heap depth it leaves behind) rather than the queue.
  constexpr int kPackets = 10'000;
  class CountingSink final : public net::PacketSink {
   public:
    void receive(net::Packet /*p*/) override { ++delivered; }
    std::uint64_t delivered = 0;
  };
  net::QueueConfig q;
  q.kind = net::QueueConfig::Kind::DropTail;
  q.capacity_packets = kPackets;
  net::Packet p;
  p.size_bytes = net::kDataPacketBytes;
  for (auto _ : state) {
    sim::Scheduler sched;
    CountingSink sink;
    net::Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), net::make_queue(q), sink};
    for (int i = 0; i < kPackets; ++i) link.send(p);
    sched.run();
    benchmark::DoNotOptimize(sink.delivered);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_LongWire)->Unit(benchmark::kMillisecond);

void BM_FatTreeConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network network{sched};
    topo::FatTree::Config tc;
    tc.k = k;
    topo::FatTree tree{network, tc};
    benchmark::DoNotOptimize(tree.n_hosts());
  }
}
BENCHMARK(BM_FatTreeConstruction)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FatTreePermutationRound(benchmark::State& state) {
  // One permutation round of small XMP-2 flows on a k=4 tree: the
  // composite "whole system" cost.
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.fat_tree_k = 4;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.pattern = core::Pattern::Permutation;
    cfg.permutation_rounds = 1;
    cfg.perm_min_bytes = 250'000;
    cfg.perm_max_bytes = 500'000;
    cfg.duration = sim::Time::seconds(2.0);
    const auto res = core::run_experiment(cfg);
    benchmark::DoNotOptimize(res.goodput.count());
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(res.events_dispatched),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_FatTreePermutationRound)->Unit(benchmark::kMillisecond);

void BM_ShardedEpoch(benchmark::State& state) {
  // The sharded conservative-sync engine: a horizon-bounded permutation
  // slice on a k-pod Fat-Tree where no flow completes inside the window,
  // so every iteration runs pure parallel epochs (no sync-gate micro-steps,
  // no replays) — the steady-state regime that dominates 1000-host runs.
  // range(0) = fat_tree_k, range(1) = worker threads (--shards). Results
  // are bit-identical across the worker axis; only events/s may move.
  // On a single-core host the threads time-slice and the worker axis is
  // flat — the scaling claim needs cores >= workers.
  const int k = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.fat_tree_k = k;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.pattern = core::Pattern::Permutation;
    cfg.permutation_rounds = 1;
    cfg.duration = sim::Time::milliseconds(2);  // << flow completion time
    cfg.seed = 42;
    cfg.shards = workers;
    const auto res = core::run_experiment(cfg);
    events = res.events_dispatched;
    benchmark::DoNotOptimize(events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsIterationInvariantRate);
}
// UseRealTime: with worker threads the main thread's CPU time is a fraction
// of wall-clock, and counter rates divide by the measured time — only real
// time makes events/s comparable across the worker axis.
BENCHMARK(BM_ShardedEpoch)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointWrite(benchmark::State& state) {
  // The checkpoint write hot path (DESIGN.md §12): serialize a payload of
  // range(0) KB through the Saver, CRC it and publish atomically
  // (temp file + rename). 64 KB matches a real k=4 snapshot; 1 MB bounds
  // larger topologies. The payload mix mirrors save_world: mostly u64/i64
  // counters with a sprinkling of f64 samples.
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_ckpt.bin").string();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    core::ckpt::Saver s;
    const std::size_t words = kb * 1024 / 8;
    for (std::size_t i = 0; i < words; ++i) {
      if (i % 8 == 7) {
        s.f64(static_cast<double>(i) * 1e-3);
      } else {
        s.u64(i * 0x9E3779B97F4A7C15ull);
      }
    }
    core::ckpt::Header h;
    h.fingerprint = 0xBADC0FFEE;
    h.t_ns = 1'000'000;
    h.seq = ++seq;
    const bool ok = core::ckpt::write_file(path, h, s.data(), nullptr);
    benchmark::DoNotOptimize(ok);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kb * 1024));
}
BENCHMARK(BM_CheckpointWrite)->Arg(64)->Arg(1024);

void BM_CheckpointRestore(benchmark::State& state) {
  // The matching read path: open, header + CRC verification, payload into
  // memory. This is the per-retry cost the orchestrator pays to resume a
  // job from its newest snapshot.
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_ckpt_r.bin").string();
  core::ckpt::Saver s;
  for (std::size_t i = 0; i < kb * 1024 / 8; ++i) s.u64(i * 0x9E3779B97F4A7C15ull);
  core::ckpt::Header h;
  h.fingerprint = 0xBADC0FFEE;
  h.t_ns = 1'000'000;
  h.seq = 1;
  core::ckpt::write_file(path, h, s.data(), nullptr);
  for (auto _ : state) {
    core::ckpt::Header rh;
    std::string payload;
    const bool ok = core::ckpt::read_file(path, 0xBADC0FFEE, rh, payload, nullptr);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(payload.data());
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kb * 1024));
}
BENCHMARK(BM_CheckpointRestore)->Arg(64)->Arg(1024);

void BM_HybridSteadyState(benchmark::State& state) {
  // The hybrid fluid/packet engine (DESIGN.md §14) at steady state: range(0)
  // fluid background aggregates + 2 packet-accurate foreground flows on a
  // k=range(1) Fat-Tree for 50 ms of sim time. The per-tick cost is
  // O(links + subflows + paths x hops). Path dedup only merges subflows
  // with the same endpoints and path choices: at k=4 (16 hosts) 10^4
  // aggregates collapse to under 1k paths, while at k=8 nearly every
  // subflow keeps its own (18,722 paths for 20,000 subflows), so the k=8
  // row is the path-heavy regime of the 10^5-flow recipe in EXPERIMENTS.md.
  core::ExperimentConfig cfg;
  cfg.fat_tree_k = static_cast<int>(state.range(1));
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.duration = sim::Time::seconds(0.05);
  cfg.seed = 11;
  cfg.hybrid.enabled = true;
  cfg.hybrid.bg_flows = static_cast<int>(state.range(0));
  cfg.hybrid.fg_flows = 2;
  for (auto _ : state) {
    const auto res = core::run_experiment(cfg);
    benchmark::DoNotOptimize(res.hybrid.fluid_bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HybridSteadyState)
    ->Args({1000, 4})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
