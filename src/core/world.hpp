#pragma once

// The simulated world of one Fat-Tree evaluation run, shared by the serial
// engine (experiment.cpp) and the sharded conservative-sync engine
// (experiment_sharded.cpp). Internal to the core library: callers go
// through run_experiment(cfg), which picks the engine on cfg.shards alone.
//
// The World builds everything a run needs — observation, topology, routes,
// flows, faults, traffic generators, the hybrid engine and the probes — in
// one fixed order, so every NodeId/LinkId and rng draw is the same in both
// engines. It owns the checkpoint payload (save/restore), the fresh-start
// scheduling order, result collection and the exports. The engines keep
// only their run loops.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "faults/fault_controller.hpp"
#include "faults/invariant_checker.hpp"
#include "model/hybrid/engine.hpp"
#include "net/handoff.hpp"
#include "net/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
#include "workload/empirical.hpp"
#include "workload/incast.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"

namespace xmp::core {

/// A checkpoint image, read and verified once per run. The sharded engine
/// restores every attempt (round-flip replays included) from these bytes.
struct RestoreImage {
  ckpt::Header h;
  std::string payload;
};

/// Reads cfg.checkpoint.restore_path and verifies its CRC and config
/// fingerprint; a bad image exits 2 with a one-line reason. Empty when the
/// run does not restore.
[[nodiscard]] std::optional<RestoreImage> read_restore_image(const ExperimentConfig& cfg);

struct World {
  /// A null `fabric` builds the serial world; otherwise hosts, links and
  /// flow endpoints are placed on the fabric's per-shard schedulers and
  /// `sched` is the control strand. The fabric must outlive the World.
  World(const ExperimentConfig& cfg, net::ShardFabric* fabric);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Restores from `image` when given, otherwise schedules a fresh start
  /// (faults, invariant checker, workload, hybrid, probes — the legacy order).
  void start(const RestoreImage* image);

  /// Writes the next ckpt_<seq>.bin into cfg.checkpoint.dir. Must only run
  /// at a quiescent point of the engine.
  void write_checkpoint();

  /// Gathers the run's results. `final_time` is the simulated end of the
  /// run and `dispatched` the engine's total event count.
  [[nodiscard]] ExperimentResults collect(sim::Time final_time, std::uint64_t dispatched);

  /// Trace, metrics and FCT exports; run after collect() (and after the
  /// engine's own registry counters) so they never observe the run.
  void export_outputs(const ExperimentResults& res) const;

  const ExperimentConfig& cfg;
  net::ShardFabric* const fabric;

  // --- observation: one tracer for the control strand plus one per shard
  // (merged deterministically at export; none when serial) and a single
  // registry whose instruments are relaxed atomics shared by every thread.
  // Strictly passive: nothing reads them, so observing never changes a run.
  std::unique_ptr<obs::TimelineTracer> tracer;
  std::vector<std::unique_ptr<obs::TimelineTracer>> shard_tracers;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::SimMetrics> sim_metrics;
  obs::ObservationScope scope;

  sim::Scheduler sched;  ///< the serial scheduler, or the sharded control strand
  net::Network netw;
  topo::FatTree tree;
  route::RouteManager routes;
  sim::Rng rng;
  workload::FlowManager flows_a;
  std::unique_ptr<workload::FlowManager> flows_b;  ///< coexistence runs only
  std::unique_ptr<faults::FaultController> fault_ctl;
  std::unique_ptr<faults::InvariantChecker> inv;

  // --- traffic: the pattern's generators (none in a hybrid run) ---
  std::unique_ptr<workload::PermutationTraffic> perm;
  std::unique_ptr<workload::RandomTraffic> rand_a;
  std::unique_ptr<workload::RandomTraffic> rand_b;
  std::unique_ptr<workload::IncastTraffic> incast;
  std::unique_ptr<workload::RandomTraffic> incast_bg;
  std::unique_ptr<workload::EmpiricalTraffic> emp;
  std::unique_ptr<model::hybrid::Engine> hybrid;
  std::function<void(int)> start_hybrid_fg;

  /// Filled during the run (RTT samples, checkpoint notes, the sharded
  /// engine's epoch accounting) and by collect().
  ExperimentResults res;

  // --- probes (the control strand; they run with the fabric quiesced) ---
  stats::GaugeProbe rtt_tick;
  stats::UtilizationWindow util;
  std::vector<net::Link*> all_links;  ///< edge, aggregation, core order
  std::array<std::pair<std::size_t, std::size_t>, 3> layer_ranges;

  /// Sharded engine: epochs plus serial segments so far. It and the
  /// res.shard counters ride in the SHST checkpoint section, so a resumed
  /// run's summary matches an uninterrupted run's.
  std::uint32_t epoch_index = 0;

 private:
  void build_traffic();
  void build_hybrid();
  void save(ckpt::Saver& s);
  [[nodiscard]] bool restore(ckpt::Loader& l);
  template <class F>
  void for_each_saved_generator(F&& f);
  void publish_ckpt_totals();

  std::uint64_t ckpt_fp_ = 0;
  std::uint64_t ckpt_seq_ = 0;      ///< last sequence number used
  std::uint64_t ckpt_written_ = 0;  ///< lineage-cumulative snapshot count
  std::uint64_t ckpt_bytes_ = 0;    ///< lineage-cumulative snapshot bytes
};

/// The sharded conservative-sync engine behind run_experiment when
/// cfg.shards >= 1. A configuration it cannot run (a pattern other than
/// Permutation, scheme_b, flowlet routing, invariant checking, subflow
/// re-homing or the hybrid engine) exits 2 with a one-line reason.
[[nodiscard]] ExperimentResults run_experiment_sharded(const ExperimentConfig& cfg);

}  // namespace xmp::core
