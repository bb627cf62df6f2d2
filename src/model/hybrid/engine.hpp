#pragma once

// Hybrid fluid/packet engine (DESIGN.md §14).
//
// Long-lived background flows evolve as per-RTT fluid ODEs — the paper's §2
// window dynamics (Eq. 2/3) plus the TraSh gain coupling (Eq. 9) — while
// designated foreground flows remain packet-accurate on the unchanged
// event-driven fast path. The two worlds meet at every link:
//
//   fluid → packet:  each egress queue is driven through marking bursts
//     (Queue::set_fluid_marking) whose duty cycle equals the fluid marking
//     probability — the sawtooth the fluid model averaged out, re-imposed
//     so packet flows are marked in a p fraction of rounds rather than
//     always (the fluid backlog itself sits above K at equilibrium) — and
//     each transmitter is slowed by the fluid bandwidth share
//     (Link::set_fluid_share), computed as proportional FIFO sharing of
//     fluid and measured packet arrivals, so packet flows contend for the
//     link the way they would against real background packets.
//
//   packet → fluid:  every tick measures the bytes the transmitter actually
//     serialized since the previous tick; that drain is subtracted from the
//     capacity available to the fluid aggregate, so fluid flows back off
//     when packet flows ramp up.
//
// The fluid tick runs on the ordinary Scheduler, so determinism, the
// metrics/trace layers and checkpointing (HYBR section) all compose: a
// hybrid run is an ordinary run with one extra periodic event.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link.hpp"
#include "sim/scheduler.hpp"

namespace xmp::model::hybrid {

/// One fluid subflow: a pinned path through the topology plus the BOS
/// per-round state (window w, TraSh gain δ).
struct FluidSubflowState {
  int path = -1;           ///< index into the engine's deduped path table
  double base_rtt_s = 0.0; ///< zero-load round-trip time of the path
  double w = 10.0;         ///< congestion window, segments
  double delta = 1.0;      ///< TraSh gain δ
};

/// Lifecycle of a background flow (checkpointed as its u8 value).
enum class AggregateState : std::uint8_t {
  Fluid,     ///< evolving as an ODE
  Promoted,  ///< handed to the packet domain for its final bytes
  Done,      ///< drained fully inside the fluid model
};

/// Registration record of one background flow: a single- or multi-path
/// aggregate of fluid subflows. add_aggregate copies the subflows into the
/// engine's flat subflow table, which is the only store of their state.
struct FluidAggregate {
  std::vector<FluidSubflowState> subflows;
  double beta = 4.0;             ///< XMP window-reduction factor
  std::int64_t total_bytes = -1; ///< -1 = unbounded (steady-state background)
  int src_host = -1;  ///< topology host indices, used at promotion
  int dst_host = -1;
};

/// Everything the promotion callback needs to start the packet-domain tail
/// of a finishing fluid flow.
struct PromotionInfo {
  int aggregate = -1;            ///< index into the engine's aggregate table
  std::int64_t remaining_bytes = 0;
  double cwnd_segments = 0.0;    ///< converged fluid window, per subflow
  int src_host = -1;
  int dst_host = -1;
};

/// Cumulative hybrid-engine counters (reported in summaries; checkpointed).
struct EngineStats {
  std::uint64_t ticks = 0;
  std::uint64_t promotions = 0;
  std::uint64_t fluid_completions = 0;  ///< finite flows fully drained as fluid
  double fluid_bytes = 0.0;             ///< bytes delivered by fluid flows
  /// Σ over ticks of the arrival-weighted mean marking probability; divide
  /// by `ticks` for the run's average congestion level.
  double mark_p_accum = 0.0;
};

/// The hybrid engine. Build it after the topology (add_link / add_aggregate),
/// then start() once; every `tick` interval it advances all fluid state by
/// one step and refreshes the per-link coupling terms.
class Engine {
 public:
  struct Config {
    sim::Time tick = sim::Time::microseconds(200);
    /// Marking-probability ramp width (packets): p = clamp((q - K)/span).
    /// In equilibrium the fluid queue settles at K + span·p*, so the
    /// emergent p* matches the §2 closed form exactly; span trades
    /// convergence speed against queue-length bias.
    double mark_span_packets = 4.0;
    /// Period (ticks) of the foreground marking duty cycle: each link marks
    /// all packet arrivals for the first p_mark fraction of every cycle.
    /// A round is marked when it *touches* a burst, so the probability a
    /// foreground flow actually experiences is p + RTT/period; longer
    /// cycles shrink that overshoot (and the burst is trimmed by one tick
    /// for the same reason) at the cost of slower response to load shifts.
    int mark_cycle_ticks = 100;
    /// EWMA weight for the per-tick marking probability. The instantaneous
    /// packet queue length feeds the congestion signal; unsmoothed, its
    /// sawtooth makes the fluid windows chase noise and the link runs
    /// under capacity. The fixed point is unchanged — only convergence is
    /// damped.
    double mark_ewma = 0.25;
    /// EWMA weight for the measured packet drain/arrival rates. A tick is
    /// shorter than a foreground RTT, so the raw per-tick drain whipsaws
    /// between line rate and zero with the window bursts; unsmoothed it
    /// drives the fluid capacity — and with it the fluid windows — into a
    /// limit cycle.
    double rate_ewma = 0.1;
    /// Promote a finite fluid flow to the packet domain when its remaining
    /// bytes drop to this threshold (0 = never promote, finish as fluid).
    std::int64_t promote_bytes = 0;
    double max_fluid_share = 0.95;  ///< keep the packet path schedulable
    double min_window = 2.0;        ///< paper footnote 5: 2-segment floor
    double max_window = 1.0e6;
    double delta_floor = 1.0e-3;    ///< as in model::solve_multipath
    double trash_relax = 0.5;       ///< TraSh damping per RTT
  };

  Engine(sim::Scheduler& sched, const Config& cfg) : sched_{sched}, cfg_{cfg} {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a link the fluid traffic may traverse; `mark_threshold` is its
  /// queue's ECN threshold K in packets. Idempotent per link — returns the
  /// existing index when called twice.
  int add_link(net::Link* link, double mark_threshold);

  /// Intern a path (hop-ordered engine link indices from add_link). Equal
  /// paths are deduplicated, which collapses them only where flows share
  /// endpoints and path choices: at k=8 with 20,000 subflows, 18,722
  /// paths remain. Register every path before start() / restore_state(),
  /// which release the dedup index.
  int add_path(const std::vector<int>& links);

  /// Register a background flow. All paths referenced by its subflows must
  /// already be interned. Returns the aggregate index.
  int add_aggregate(const FluidAggregate& agg);
  /// Size the aggregate and subflow tables for the registrations to come,
  /// so they are allocated once rather than grown by doubling.
  void reserve(std::size_t aggregates, std::size_t subflows) {
    aggs_.reserve(aggregates);
    subflows_.reserve(subflows);
  }

  /// Called when a finite fluid flow crosses the promotion threshold. The
  /// callee starts the packet-domain tail (FlowManager::start_large_flow
  /// with PromotionInfo::cwnd_segments as the initial window).
  void set_on_promote(std::function<void(const PromotionInfo&)> fn) {
    on_promote_ = std::move(fn);
  }

  /// Arm the periodic fluid tick (idempotent). Call on a fresh start only —
  /// restore_state re-arms the saved timer itself.
  void start();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t n_links() const { return links_.size(); }
  [[nodiscard]] std::size_t n_aggregates() const { return aggs_.size(); }
  [[nodiscard]] int active_fluid_flows() const;
  /// Window and TraSh gain of subflow `j` of aggregate `agg`.
  [[nodiscard]] double subflow_w(int agg, int j) const { return subflow(agg, j).w; }
  [[nodiscard]] double subflow_delta(int agg, int j) const { return subflow(agg, j).delta; }

  /// Per-link fluid state, for validation tests and summaries.
  [[nodiscard]] double link_mark_p(int i) const {
    return links_.at(static_cast<std::size_t>(i)).p_mark;
  }
  [[nodiscard]] double link_fluid_queue(int i) const {
    return links_.at(static_cast<std::size_t>(i)).q_fluid;
  }
  [[nodiscard]] double link_fluid_rate_sps(int i) const {
    return links_.at(static_cast<std::size_t>(i)).fluid_rate_sps;
  }

  /// Aggregate fluid throughput over the whole run so far, bits per second.
  [[nodiscard]] double fluid_throughput_bps() const;

  /// Checkpoint the dynamic fluid state + the tick timer (HYBR section
  /// payload). The static structure (links, paths, aggregate shapes) is
  /// rebuilt from config before restore, exactly like the topology itself;
  /// restore_state returns false when the payload's link, aggregate or
  /// per-aggregate subflow counts disagree with it, or it is truncated.
  void save_state(core::ckpt::Saver& s) const;
  [[nodiscard]] bool restore_state(core::ckpt::Loader& l);

 private:
  struct LinkState {
    net::Link* link = nullptr;
    double mark_threshold = 0.0;   ///< K, packets
    double capacity_sps = 0.0;     ///< full-size data packets per second
    double capacity_packets = 0.0; ///< queue capacity, packets
    // --- dynamic (checkpointed) ---
    double q_fluid = 0.0;          ///< virtual fluid backlog, packets
    double p_mark = 0.0;           ///< per-round marking probability
    double fluid_rate_sps = 0.0;   ///< fluid throughput through this link
    /// Fluid fraction of the link's service capacity under proportional
    /// FIFO sharing of fluid and measured packet arrivals (see tick()).
    double fluid_share = 0.0;
    double pkt_drain_sps = 0.0;    ///< EWMA-smoothed measured packet drain
    double pkt_arrival_sps = 0.0;  ///< EWMA-smoothed measured packet arrivals
    std::uint64_t last_bytes_sent = 0;  ///< transmitter odometer at last tick
    std::uint64_t last_queue_bytes = 0; ///< egress queue depth at last tick
  };

  struct Aggregate {
    double beta = 4.0;
    std::int64_t total_bytes = -1;
    double delivered_bytes = 0.0;
    std::uint32_t sf_begin = 0;  ///< [sf_begin, sf_end) in subflows_
    std::uint32_t sf_end = 0;
    AggregateState state = AggregateState::Fluid;
    int src_host = -1;
    int dst_host = -1;
  };

  [[nodiscard]] const FluidSubflowState& subflow(int agg, int j) const;
  /// End of registration: size the per-tick scratch to the path and link
  /// tables and release the path dedup index. Idempotent.
  void seal();
  /// Double the dedup table (64 slots at first) and re-index every path.
  void grow_path_dedup();
  void tick();
  /// Push the marking duty-cycle phase / bandwidth share into the net-layer
  /// objects (after every tick and after a restore). The burst phase is a
  /// pure function of stats_.ticks and the link index, so it checkpoints
  /// for free and is staggered across links.
  void push_coupling(LinkState& ls, std::size_t link_index);
  void promote(int agg_index);

  sim::Scheduler& sched_;
  Config cfg_;
  std::vector<LinkState> links_;
  std::vector<int> link_index_;  ///< LinkId -> engine link index, -1 = unregistered
  // Paths in CSR form: path p's hops are path_hop_[path_off_[p] .. path_off_[p+1]).
  std::vector<std::uint32_t> path_off_{0};
  std::vector<int> path_hop_;
  /// Path dedup index, until seal(): an open-addressing table of path ids
  /// (-1 = empty), probed linearly from the hop hash, at most half full.
  std::vector<int> path_dedup_;
  std::vector<Aggregate> aggs_;
  std::vector<FluidSubflowState> subflows_;  ///< all aggregates' subflows, contiguous per aggregate
  std::function<void(const PromotionInfo&)> on_promote_;
  EngineStats stats_;
  sim::EventId timer_ = sim::kInvalidEventId;

  // Per-tick scratch, sized by seal() (kept hot across ticks). Every
  // per-hop term is computed once per link and summed in hop order, so the
  // result is bit-identical to evaluating it at each hop.
  std::vector<double> link_delay_s_;     ///< (q_fluid + queued packets) / capacity
  std::vector<double> link_keep_;        ///< 1 - p_mark
  std::vector<double> link_serve_;       ///< min(1, fluid_rate / arrival), 1 without arrivals
  std::vector<double> link_arrival_sps_; ///< fluid arrivals fanned out from the paths
  std::vector<double> path_delay_s_;
  std::vector<double> path_rate_sps_;
  std::vector<double> path_p_;
  std::vector<double> path_serve_;  ///< min over hops of served/arrival
  // T_eff and rate w/T_eff of each subflow of the aggregate in pass 4.
  std::vector<double> sf_t_eff_;
  std::vector<double> sf_x_;
};

}  // namespace xmp::model::hybrid
