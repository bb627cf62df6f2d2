#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <utility>

#include "core/parallel_runner.hpp"
#include "core/world.hpp"
#include "net/handoff.hpp"
#include "obs/hooks.hpp"
#include "sim/scheduler.hpp"

// The sharded conservative-sync engine (DESIGN.md §11).
//
// The fabric is partitioned into one *logical* shard per pod (plus the
// round-robin core assignment) at topology-construction time; cfg.shards
// only sizes the worker pool, so every run is bit-identical across worker
// counts by construction. Shards advance in epochs of length
//
//   L = min cross-shard propagation delay  (the lookahead),
//
// executing events strictly before the epoch boundary in parallel: a packet
// another shard sends during the same epoch cannot arrive earlier than
// epoch_start + L, so nothing a shard runs inside the window can be
// invalidated. At the barrier, parked cross-shard packets are drained in a
// fixed (dst, src, FIFO) merge order, every clock advances to the boundary,
// and the control strand (RTT probe, fault plan, route manager) runs with
// the whole fabric quiesced.
//
// Global transitions — a Permutation round flip fans flow construction out
// to every shard — must not run mid-epoch on a worker thread. The workload
// defers a round completion that lands inside a parallel epoch and flags
// the engine, which discards the attempt and replays it from scratch with
// that epoch pinned serial (micro-stepped in global (t, control-first,
// shard-index) order). A cheap gate makes replays rare: once a round has
// at most one flow left, the engine micro-steps until the next round is in
// full flight again.

namespace xmp::core {

namespace {

struct AttemptOutcome {
  bool ok = true;
  std::int64_t failed_epoch_start_ns = 0;  ///< epoch to pin serial on replay
  ExperimentResults res;
};

AttemptOutcome attempt(const ExperimentConfig& cfg, const std::set<std::int64_t>& forced,
                       WorkerPool& pool, std::uint64_t replays, const RestoreImage* restore) {
  AttemptOutcome out;

  // The World's construction order matches the serial engine's, so every
  // NodeId/LinkId and the full creation sequence agree byte for byte. Its
  // observation scope makes this thread the control strand for the whole
  // attempt (epoch/barrier markers, serial micro-steps, control events).
  // `done` and `final_time` outlive the World whose workload writes them.
  bool done = false;
  sim::Time final_time = cfg.duration;
  net::ShardFabric fabric{cfg.fat_tree_k};
  World w{cfg, &fabric};
  sim::Scheduler& control = w.sched;
  workload::PermutationTraffic& perm = *w.perm;
  ExperimentResults::ShardStats& stats = w.res.shard;
  const int n_shards = fabric.n_shards();

  perm.set_on_done([&done, &final_time, &control] {
    done = true;
    // Fires inside a serial micro-step: the dispatching scheduler's clock
    // is the exact completion instant (the serial engine's sched.now()).
    sim::Scheduler* cs = sim::current_scheduler();
    final_time = cs != nullptr ? cs->now() : control.now();
  });
  w.start(restore);

  // --- the epoch engine ---
  const sim::Time horizon = cfg.duration;
  // A fabric with no cross-shard links has unbounded lookahead; one epoch
  // spans the whole horizon. (Unreachable for a Fat-Tree, where pods only
  // connect through cores, but it keeps the math total.)
  const sim::Time lookahead = fabric.has_cross_links()
                                  ? fabric.lookahead()
                                  : horizon + sim::Time::nanoseconds(1);

  // Align every clock on `t`. Callers pass a time no strand has an event
  // before, so no clock passes an event it still has to run.
  auto all_clocks_to = [&](sim::Time t) {
    const auto align = [t](sim::Scheduler& s) {
      assert(s.next_time() >= t && "a strand would skip an event");
      s.advance_clock_to(t);
    };
    for (int s = 0; s < n_shards; ++s) align(fabric.sched(s));
    align(control);
  };

  // The strand with the earliest pending event; the control strand wins
  // ties, then ascending shard index — the canonical order that keeps
  // serial segments a pure function of simulation state.
  auto earliest = [&](sim::Time& t_out) -> sim::Scheduler* {
    sim::Scheduler* who = nullptr;
    sim::Time best = control.next_time();
    if (best < sim::Time::infinity()) who = &control;
    for (int s = 0; s < n_shards; ++s) {
      sim::Scheduler& ss = fabric.sched(s);
      const sim::Time t = ss.next_time();
      if (t < best) {
        best = t;
        who = &ss;
      }
    }
    t_out = best;
    return who;
  };

  // Snapshots happen only at barriers, where handoff channels are drained
  // and every clock is aligned — the sharded engine's quiescent points.
  const bool ckpt_on = cfg.checkpoint.enabled();
  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  const sim::Time every = cfg.checkpoint.every;
  // The next periodic boundary is a pure function of the clock, so a
  // resumed run checkpoints at the same sim times as an uninterrupted one.
  sim::Time next_ckpt = sim::Time::infinity();
  if (every > sim::Time::zero()) {
    next_ckpt = sim::Time::nanoseconds((control.now().ns() / every.ns() + 1) * every.ns());
  }

  sim::Time start = control.now();

  while (!done && start < horizon) {
    const bool forced_serial = forced.count(start.ns()) > 0;
    const bool gate_serial = perm.pending_flows() <= 1;

    if (forced_serial || gate_serial) {
      // ---- serial segment: global one-event micro-steps ----
      const sim::Time serial_until = start + lookahead;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, w.epoch_index, serial_until.us(), /*serial=*/true);
      }
      sim::Time seg_t = start;
      for (;;) {
        sim::Time t;
        sim::Scheduler* s = earliest(t);
        if (s == nullptr || t > horizon) {
          seg_t = horizon;
          all_clocks_to(horizon);
          break;
        }
        // The segment ends once the next round is in full flight again and
        // one full lookahead window has been stepped through.
        if (t >= serial_until && perm.pending_flows() > 1) break;
        // `t` is the earliest event of all, so every clock can stand on it
        // before the step: a round flip then starts the next round's flows
        // at the flip's own time on every shard.
        all_clocks_to(t);
        s->step_one();
        ++stats.micro_steps;
        stats.handoff_packets += fabric.drain_all();
        seg_t = t;
        if (done) break;
        // Clocks are aligned and handoffs drained right here, so an external
        // stop can cut the segment short and still checkpoint safely below.
        if (stop_flag != nullptr && stop_flag->load()) break;
      }
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(seg_t, w.epoch_index, 0);
      }
      start = seg_t > start ? seg_t : start;
    } else {
      // ---- parallel epoch [start, b) ----
      sim::Time b = start + lookahead;
      const sim::Time ct = control.next_time();
      if (ct < b) b = ct;  // the control strand defines the next boundary
      if (b > horizon) b = horizon;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, w.epoch_index, b.us(), /*serial=*/false);
      }

      obs::SimMetrics* metrics = w.sim_metrics.get();
      perm.set_parallel_phase(true);
      pool.run(n_shards, [&fabric, &shard_tracers = w.shard_tracers, metrics, b](int s) {
        obs::ObservationScope shard_scope{
            shard_tracers.empty() ? nullptr : shard_tracers[static_cast<std::size_t>(s)].get(),
            metrics};
        fabric.sched(s).run_before(b);
      });
      perm.set_parallel_phase(false);

      if (perm.deferred_done()) {
        // A round completed mid-epoch; the flip must run serially. Discard
        // this attempt and replay with this epoch pinned.
        out.ok = false;
        out.failed_epoch_start_ns = start.ns();
        return out;
      }

      // ---- barrier: drain handoffs, align clocks, run the control strand ----
      const std::uint64_t drained = fabric.drain_all();
      stats.handoff_packets += drained;
      all_clocks_to(b);
      control.run_until(b);
      ++stats.epochs;
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(b, w.epoch_index, drained);
      }
      start = b;
    }
    ++w.epoch_index;

    // ---- quiescent point: channels drained, every clock == start ----
    assert(done || control.now() == start);
    if (ckpt_on && !done) {
      if (stop_flag != nullptr && stop_flag->load()) {
        w.write_checkpoint();
        w.res.ckpt.interrupted = true;
        final_time = start;  // partial summary covers [0, halt)
        break;
      }
      if (start >= next_ckpt) {
        w.write_checkpoint();
        next_ckpt = sim::Time::nanoseconds((start.ns() / every.ns() + 1) * every.ns());
      }
    }
  }

  if (!done && !w.res.ckpt.interrupted) {
    // Horizon pass: the serial engine's run_until bound is inclusive, so
    // events at exactly t == horizon still run (canonical order; equal-time
    // events on different shards cannot interact within the instant).
    control.run_until(horizon);
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).run_until(horizon);
    all_clocks_to(horizon);
    // Park what the horizon instant put on boundary wires: collect() checks
    // conservation, which counts a packet in flight only once it is parked.
    // Its deliveries lie past the horizon and never run.
    fabric.drain_all();
    final_time = horizon;
  }

  ExperimentResults res = w.collect(final_time, fabric.total_dispatched() + control.dispatched());
  res.sharded = true;
  res.shard.logical_shards = n_shards;
  res.shard.lookahead_us = fabric.has_cross_links() ? fabric.lookahead().us() : 0.0;
  res.shard.replays = replays;
  if (w.registry) {
    obs::MetricsRegistry& reg = *w.registry;
    reg.counter("harness.shard.logical_shards").inc(static_cast<std::uint64_t>(n_shards));
    reg.counter("harness.shard.epochs").inc(res.shard.epochs);
    reg.counter("harness.shard.barriers").inc(res.shard.barriers);
    reg.counter("harness.shard.handoff_packets").inc(res.shard.handoff_packets);
    reg.counter("harness.shard.micro_steps").inc(res.shard.micro_steps);
    reg.counter("harness.shard.replays").inc(replays);
  }
  w.export_outputs(res);

  out.res = std::move(res);
  return out;
}

// The World could build a hybrid engine, scheme_b flows or a non-permutation
// pattern, but this engine's run loop cannot drive them; refuse rather than
// silently running something else.
const char* unsupported(const ExperimentConfig& cfg) {
  if (cfg.pattern != Pattern::Permutation) return "supports the Permutation pattern only";
  if (cfg.scheme_b) return "does not run coexistence (scheme_b)";
  if (cfg.routing.kind == route::PolicyKind::Flowlet) {
    return "does not run flowlet routing (it reads the control clock per packet)";
  }
  if (cfg.check_invariants) return "does not run invariant checking";
  if (cfg.scheme.max_rehomes != 0) return "does not run subflow re-homing";
  if (cfg.hybrid.enabled) return "does not run the hybrid engine";
  return nullptr;
}

}  // namespace

ExperimentResults run_experiment_sharded(const ExperimentConfig& cfg) {
  assert(cfg.shards >= 1);
  if (const char* why = unsupported(cfg)) {
    std::fprintf(stderr, "xmpsim: sharded engine %s\n", why);
    std::exit(2);
  }
  // A restore image is read and verified once; every attempt (including
  // round-flip replays) restores from the same in-memory bytes.
  const std::optional<RestoreImage> restore = read_restore_image(cfg);

  WorkerPool pool{static_cast<unsigned>(cfg.shards)};
  std::set<std::int64_t> forced;  // epoch starts pinned serial by failed attempts
  for (;;) {
    AttemptOutcome out = attempt(cfg, forced, pool, forced.size(), restore ? &*restore : nullptr);
    if (out.ok) return std::move(out.res);
    // Abort-and-replay: deterministic world construction makes the replay
    // reach the same epoch with the same state, now micro-stepped serially.
    const bool fresh = forced.insert(out.failed_epoch_start_ns).second;
    assert(fresh && "replayed epoch deferred again despite serial pinning");
    (void)fresh;
  }
}

}  // namespace xmp::core
