#include "model/hybrid/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/checkpoint.hpp"
#include "net/types.hpp"

namespace xmp::model::hybrid {

int Engine::add_link(net::Link* link, double mark_threshold) {
  assert(link != nullptr);
  const std::size_t id = link->id();
  if (id >= link_index_.size()) link_index_.resize(id + 1, -1);
  int& index = link_index_[id];
  if (index >= 0) return index;
  index = static_cast<int>(links_.size());
  LinkState ls;
  ls.link = link;
  ls.mark_threshold = mark_threshold;
  ls.capacity_sps =
      static_cast<double>(link->rate_bps()) / 8.0 / static_cast<double>(net::kDataPacketBytes);
  ls.capacity_packets = static_cast<double>(link->queue().capacity());
  ls.last_bytes_sent = link->bytes_sent();
  links_.push_back(ls);
  return index;
}

namespace {

std::uint64_t hop_hash(const int* first, const int* last) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) h = net::mix64(h ^ static_cast<std::uint64_t>(*first));
  return h;
}

}  // namespace

int Engine::add_path(const std::vector<int>& links) {
  assert(std::all_of(links.begin(), links.end(), [this](int li) {
    return li >= 0 && static_cast<std::size_t>(li) < links_.size();
  }));
  if (2 * path_off_.size() > path_dedup_.size()) grow_path_dedup();
  const std::size_t mask = path_dedup_.size() - 1;
  std::size_t i = hop_hash(links.data(), links.data() + links.size()) & mask;
  for (;; i = (i + 1) & mask) {
    const int p = path_dedup_[i];
    if (p < 0) break;
    const auto pu = static_cast<std::size_t>(p);
    if (std::equal(links.begin(), links.end(), path_hop_.begin() + path_off_[pu],
                   path_hop_.begin() + path_off_[pu + 1])) {
      return p;
    }
  }
  const int pid = static_cast<int>(path_off_.size() - 1);
  path_hop_.insert(path_hop_.end(), links.begin(), links.end());
  path_off_.push_back(static_cast<std::uint32_t>(path_hop_.size()));
  path_dedup_[i] = pid;
  return pid;
}

void Engine::grow_path_dedup() {
  std::vector<int> table(std::max<std::size_t>(64, 2 * path_dedup_.size()), -1);
  const std::size_t mask = table.size() - 1;
  const int* hops = path_hop_.data();
  for (std::size_t p = 0; p + 1 < path_off_.size(); ++p) {
    std::size_t i = hop_hash(hops + path_off_[p], hops + path_off_[p + 1]) & mask;
    while (table[i] >= 0) i = (i + 1) & mask;
    table[i] = static_cast<int>(p);
  }
  path_dedup_.swap(table);
}

int Engine::add_aggregate(const FluidAggregate& agg) {
  assert(!agg.subflows.empty());
  Aggregate a;
  a.beta = agg.beta;
  a.total_bytes = agg.total_bytes;
  a.src_host = agg.src_host;
  a.dst_host = agg.dst_host;
  a.sf_begin = static_cast<std::uint32_t>(subflows_.size());
  for (const FluidSubflowState& sf : agg.subflows) {
    assert(sf.path >= 0 && static_cast<std::size_t>(sf.path) + 1 < path_off_.size());
    assert(sf.base_rtt_s > 0.0);
    subflows_.push_back(sf);
  }
  a.sf_end = static_cast<std::uint32_t>(subflows_.size());
  aggs_.push_back(a);
  return static_cast<int>(aggs_.size() - 1);
}

const FluidSubflowState& Engine::subflow(int agg, int j) const {
  const Aggregate& a = aggs_.at(static_cast<std::size_t>(agg));
  assert(j >= 0 && a.sf_begin + static_cast<std::uint32_t>(j) < a.sf_end);
  return subflows_[a.sf_begin + static_cast<std::uint32_t>(j)];
}

void Engine::seal() {
  const std::size_t n_paths = path_off_.size() - 1;
  path_delay_s_.resize(n_paths);
  path_rate_sps_.resize(n_paths);
  path_p_.resize(n_paths);
  path_serve_.resize(n_paths);
  link_delay_s_.resize(links_.size());
  link_keep_.resize(links_.size());
  link_serve_.resize(links_.size());
  link_arrival_sps_.resize(links_.size());
  std::size_t max_sf = 0;
  for (const Aggregate& a : aggs_) max_sf = std::max<std::size_t>(max_sf, a.sf_end - a.sf_begin);
  sf_t_eff_.resize(max_sf);
  sf_x_.resize(max_sf);
  decltype(path_dedup_){}.swap(path_dedup_);
}

void Engine::start() {
  if (timer_ != sim::kInvalidEventId) return;
  seal();
  // Re-baseline the odometers so traffic sent before start() (none, in
  // practice) is not mistaken for the first tick's drain or arrivals.
  for (LinkState& ls : links_) {
    ls.last_bytes_sent = ls.link->bytes_sent();
    ls.last_queue_bytes = ls.link->queue().len_bytes();
  }
  timer_ = sched_.schedule_in(cfg_.tick, [this] { tick(); });
}

int Engine::active_fluid_flows() const {
  int n = 0;
  for (const Aggregate& a : aggs_) {
    if (a.state == AggregateState::Fluid) ++n;
  }
  return n;
}

double Engine::fluid_throughput_bps() const {
  const double sec = sched_.now().sec();
  return sec > 0.0 ? stats_.fluid_bytes * 8.0 / sec : 0.0;
}

void Engine::push_coupling(LinkState& ls, std::size_t link_index) {
  // Foreground marking as a duty cycle: the fluid equilibrium backlog sits
  // above K by construction (q* = K + span·p), so the threshold compare
  // would mark every foreground packet; the real queue oscillates and
  // marks only a p fraction of rounds. Re-impose that sawtooth: mark all
  // arrivals during the first p_mark fraction of a fixed cycle, none
  // outside it, with the phase staggered per link so bursts are not
  // fleet-synchronized. The phase derives from stats_.ticks, which is
  // checkpointed, so a restored run resumes the same cycle position.
  const auto cycle = static_cast<std::uint64_t>(cfg_.mark_cycle_ticks);
  const std::uint64_t phase = (stats_.ticks + link_index * 7) % cycle;
  // Trim one tick off the burst: a round is marked when it merely touches
  // the burst, which inflates the experienced probability by ~RTT/cycle.
  const double burst_ticks = std::max(0.0, ls.p_mark * static_cast<double>(cycle) - 1.0);
  const bool burst = ls.p_mark >= 1.0 || static_cast<double>(phase) < burst_ticks;
  ls.link->queue().set_fluid_marking(burst);
  ls.link->set_fluid_share(std::min(cfg_.max_fluid_share, ls.fluid_share));
}

void Engine::tick() {
  const double dt = cfg_.tick.sec();
  ++stats_.ticks;
  const std::size_t n_paths = path_rate_sps_.size();

  // Pass 0: per-path queueing delay from the state at tick entry. The
  // effective RTT a fluid subflow experiences is its zero-load RTT plus the
  // drain time of every backlog (fluid + real packets) on its path —
  // material here: at K = 10 packets the queueing term is ~120 µs against
  // a ~300 µs base RTT.
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const LinkState& ls = links_[li];
    link_delay_s_[li] =
        (ls.q_fluid + static_cast<double>(ls.link->queue().len_packets())) / ls.capacity_sps;
  }
  for (std::size_t p = 0; p < n_paths; ++p) {
    double d = 0.0;
    for (std::uint32_t h = path_off_[p]; h < path_off_[p + 1]; ++h) {
      d += link_delay_s_[static_cast<std::size_t>(path_hop_[h])];
    }
    path_delay_s_[p] = d;
  }

  // Pass 1: fluid arrival rates, accumulated per path then fanned out to
  // links — O(subflows + paths·hops), independent of the flow count per
  // path.
  std::fill(path_rate_sps_.begin(), path_rate_sps_.end(), 0.0);
  for (const Aggregate& agg : aggs_) {
    if (agg.state != AggregateState::Fluid) continue;
    for (std::uint32_t j = agg.sf_begin; j < agg.sf_end; ++j) {
      const FluidSubflowState& sf = subflows_[j];
      const auto p = static_cast<std::size_t>(sf.path);
      path_rate_sps_[p] += sf.w / (sf.base_rtt_s + path_delay_s_[p]);
    }
  }
  std::fill(link_arrival_sps_.begin(), link_arrival_sps_.end(), 0.0);
  for (std::size_t p = 0; p < n_paths; ++p) {
    const double r = path_rate_sps_[p];
    if (r <= 0.0) continue;
    for (std::uint32_t h = path_off_[p]; h < path_off_[p + 1]; ++h) {
      link_arrival_sps_[static_cast<std::size_t>(path_hop_[h])] += r;
    }
  }

  // Pass 2: per-link fluid queue evolution and marking probability. The
  // capacity available to fluid traffic is what the real transmitter did
  // not use since the last tick (packet → fluid coupling); the resulting
  // backlog and bandwidth share are pushed back into the queue and link
  // (fluid → packet coupling).
  double p_weighted = 0.0;
  double arrival_total = 0.0;
  for (std::size_t li = 0; li < links_.size(); ++li) {
    LinkState& ls = links_[li];
    const double arrival_sps = link_arrival_sps_[li];
    const std::uint64_t sent = ls.link->bytes_sent();
    const double drained_bytes = static_cast<double>(sent - ls.last_bytes_sent);
    ls.last_bytes_sent = sent;
    // Packet arrivals over the tick = what drained + the queue's growth;
    // measured in bytes so ACKs weigh what they cost, not a full slot. Both
    // measurements are EWMA-smoothed: the raw per-tick values whipsaw with
    // the foreground window bursts (a tick is shorter than an RTT).
    const std::uint64_t qbytes = ls.link->queue().len_bytes();
    const double arrived_bytes =
        drained_bytes + static_cast<double>(static_cast<std::int64_t>(qbytes) -
                                            static_cast<std::int64_t>(ls.last_queue_bytes));
    ls.last_queue_bytes = qbytes;
    ls.pkt_drain_sps +=
        cfg_.rate_ewma * (drained_bytes / dt / static_cast<double>(net::kDataPacketBytes) -
                          ls.pkt_drain_sps);
    ls.pkt_arrival_sps +=
        cfg_.rate_ewma *
        (std::max(0.0, arrived_bytes / dt / static_cast<double>(net::kDataPacketBytes)) -
         ls.pkt_arrival_sps);
    // A work-conserving FIFO shared by both worlds serves proportionally to
    // arrivals under overload and leaves the residual otherwise. Deriving
    // the share from the fluid *throughput* instead would ratchet: the
    // packet drain could never grow past the residual it was last granted.
    const double total_arrival_sps = arrival_sps + ls.pkt_arrival_sps;
    ls.fluid_share = total_arrival_sps > ls.capacity_sps ? arrival_sps / total_arrival_sps
                                                         : arrival_sps / ls.capacity_sps;
    const double c_fluid = std::max(0.0, ls.capacity_sps - ls.pkt_drain_sps);
    const double backlog = ls.q_fluid + arrival_sps * dt;
    const double served = std::min(backlog, c_fluid * dt);
    ls.q_fluid = std::min(backlog - served, ls.capacity_packets);
    ls.fluid_rate_sps = served / dt;
    // Per-round marking probability: a linear ramp of width `span` packets
    // above K. In equilibrium q settles at K + span·p*, which makes the
    // emergent p* coincide with the §2 closed form p = S/(C+S).
    const double q_tot = ls.q_fluid + static_cast<double>(ls.link->queue().len_packets());
    const double p_inst =
        std::clamp((q_tot - ls.mark_threshold) / cfg_.mark_span_packets, 0.0, 1.0);
    ls.p_mark += cfg_.mark_ewma * (p_inst - ls.p_mark);
    push_coupling(ls, li);
    p_weighted += ls.p_mark * arrival_sps;
    arrival_total += arrival_sps;
    // This link's hop terms for pass 3: the refreshed drain time, the
    // unmarked fraction and the fraction of its fluid arrivals actually
    // served this tick (below 1 only while the queue overflows).
    link_delay_s_[li] = q_tot / ls.capacity_sps;
    link_keep_[li] = 1.0 - ls.p_mark;
    link_serve_[li] = arrival_sps > 0.0 ? std::min(1.0, ls.fluid_rate_sps / arrival_sps) : 1.0;
  }
  if (arrival_total > 0.0) stats_.mark_p_accum += p_weighted / arrival_total;

  // Pass 3: per-path end-to-end marking probability, refreshed delay
  // (semi-implicit: window updates see the post-update queues) and
  // bottleneck service fraction.
  for (std::size_t p = 0; p < n_paths; ++p) {
    double keep = 1.0;
    double d = 0.0;
    double f = 1.0;
    for (std::uint32_t h = path_off_[p]; h < path_off_[p + 1]; ++h) {
      const auto li = static_cast<std::size_t>(path_hop_[h]);
      keep *= link_keep_[li];
      d += link_delay_s_[li];
      f = std::min(f, link_serve_[li]);
    }
    path_p_[p] = 1.0 - keep;
    path_delay_s_[p] = d;
    path_serve_[p] = f;
  }

  // Pass 4: per-aggregate dynamics — delivery, TraSh gain coupling (Eq. 9,
  // damped), then the BOS window ODE (Eq. 2 in expectation):
  //   E[Δw per round] = δ(1-P) - (w/β)P.
  for (std::size_t ai = 0; ai < aggs_.size(); ++ai) {
    Aggregate& agg = aggs_[ai];
    if (agg.state != AggregateState::Fluid) continue;
    FluidSubflowState* const sfs = subflows_.data() + agg.sf_begin;
    const std::uint32_t n_sf = agg.sf_end - agg.sf_begin;

    double y = 0.0;
    double y_served = 0.0;
    double t_min = 1e30;
    for (std::uint32_t j = 0; j < n_sf; ++j) {
      const auto p = static_cast<std::size_t>(sfs[j].path);
      const double t_eff = sfs[j].base_rtt_s + path_delay_s_[p];
      const double x = sfs[j].w / t_eff;
      y += x;
      // Delivery is the *served* rate: the offered rate w/T scaled by the
      // path's bottleneck service fraction, so goodput never exceeds what
      // the links actually carried even when windows are floored above the
      // network's capacity.
      y_served += x * path_serve_[p];
      t_min = std::min(t_min, t_eff);
      sf_t_eff_[j] = t_eff;
      sf_x_[j] = x;
    }
    const double delivered = y_served * dt * static_cast<double>(net::kMssBytes);
    agg.delivered_bytes += delivered;
    stats_.fluid_bytes += delivered;

    // One pass per subflow: the TraSh update of δ reads only this subflow's
    // own (not yet updated) window plus the aggregate's y and t_min, so it
    // can run right before the window update that consumes it.
    const bool trash = n_sf > 1 && y > 0.0;
    const double lambda = trash ? std::min(1.0, cfg_.trash_relax * dt / t_min) : 0.0;
    for (std::uint32_t j = 0; j < n_sf; ++j) {
      FluidSubflowState& sf = sfs[j];
      const double t_eff = sf_t_eff_[j];
      if (trash) {
        const double target = t_eff * sf_x_[j] / (t_min * y);
        sf.delta = std::max(cfg_.delta_floor, sf.delta + lambda * (target - sf.delta));
      }
      const double big_p = path_p_[static_cast<std::size_t>(sf.path)];
      const double rounds = dt / t_eff;
      const double dw = (sf.delta * (1.0 - big_p) - sf.w / agg.beta * big_p) * rounds;
      sf.w = std::clamp(sf.w + dw, cfg_.min_window, cfg_.max_window);
    }

    if (agg.total_bytes >= 0) {
      const double remaining = static_cast<double>(agg.total_bytes) - agg.delivered_bytes;
      if (remaining <= 0.0) {
        agg.state = AggregateState::Done;
        ++stats_.fluid_completions;
      } else if (cfg_.promote_bytes > 0 &&
                 remaining <= static_cast<double>(cfg_.promote_bytes)) {
        promote(static_cast<int>(ai));
      }
    }
  }

  timer_ = sched_.schedule_in(cfg_.tick, [this] { tick(); });
}

void Engine::promote(int agg_index) {
  Aggregate& agg = aggs_[static_cast<std::size_t>(agg_index)];
  agg.state = AggregateState::Promoted;
  ++stats_.promotions;
  if (!on_promote_) return;
  PromotionInfo info;
  info.aggregate = agg_index;
  const double remaining = static_cast<double>(agg.total_bytes) - agg.delivered_bytes;
  info.remaining_bytes = std::max<std::int64_t>(1, std::llround(remaining));
  double wsum = 0.0;
  for (std::uint32_t j = agg.sf_begin; j < agg.sf_end; ++j) wsum += subflows_[j].w;
  info.cwnd_segments = wsum / static_cast<double>(agg.sf_end - agg.sf_begin);
  info.src_host = agg.src_host;
  info.dst_host = agg.dst_host;
  on_promote_(info);
}

void Engine::save_state(core::ckpt::Saver& s) const {
  s.u64(links_.size());
  for (const LinkState& ls : links_) {
    s.f64(ls.q_fluid);
    s.f64(ls.p_mark);
    s.f64(ls.fluid_rate_sps);
    s.f64(ls.fluid_share);
    s.f64(ls.pkt_drain_sps);
    s.f64(ls.pkt_arrival_sps);
    s.u64(ls.last_bytes_sent);
    s.u64(ls.last_queue_bytes);
  }
  s.u64(aggs_.size());
  for (const Aggregate& agg : aggs_) {
    s.u8(static_cast<std::uint8_t>(agg.state));
    s.f64(agg.delivered_bytes);
    s.u64(agg.sf_end - agg.sf_begin);
    for (std::uint32_t j = agg.sf_begin; j < agg.sf_end; ++j) {
      s.f64(subflows_[j].w);
      s.f64(subflows_[j].delta);
    }
  }
  s.u64(stats_.ticks);
  s.u64(stats_.promotions);
  s.u64(stats_.fluid_completions);
  s.f64(stats_.fluid_bytes);
  s.f64(stats_.mark_p_accum);
  const bool armed = timer_ != sim::kInvalidEventId;
  s.b(armed);
  if (armed) {
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = sched_.key_of(timer_, k);
    assert(live && "hybrid tick timer id stale");
    s.i64(k.t_ns);
    s.u64(k.seq);
  }
}

bool Engine::restore_state(core::ckpt::Loader& l) {
  seal();
  // Structure (links, paths, aggregate shapes) was rebuilt from config
  // before this call; the config fingerprint guarantees it matches, and a
  // payload whose counts disagree is refused before it is written anywhere.
  if (l.u64() != links_.size()) return false;
  for (LinkState& ls : links_) {
    ls.q_fluid = l.f64();
    ls.p_mark = l.f64();
    ls.fluid_rate_sps = l.f64();
    ls.fluid_share = l.f64();
    ls.pkt_drain_sps = l.f64();
    ls.pkt_arrival_sps = l.f64();
    ls.last_bytes_sent = l.u64();
    ls.last_queue_bytes = l.u64();
  }
  if (l.u64() != aggs_.size()) return false;
  for (Aggregate& agg : aggs_) {
    const std::uint8_t state = l.u8();
    if (state > static_cast<std::uint8_t>(AggregateState::Done)) return false;
    agg.state = static_cast<AggregateState>(state);
    agg.delivered_bytes = l.f64();
    if (l.u64() != agg.sf_end - agg.sf_begin) return false;
    for (std::uint32_t j = agg.sf_begin; j < agg.sf_end; ++j) {
      subflows_[j].w = l.f64();
      subflows_[j].delta = l.f64();
    }
  }
  stats_.ticks = l.u64();
  stats_.promotions = l.u64();
  stats_.fluid_completions = l.u64();
  stats_.fluid_bytes = l.f64();
  stats_.mark_p_accum = l.f64();
  if (l.b()) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    if (!l.ok()) return false;
    timer_ = sched_.restore_at(sim::Time::nanoseconds(t_ns), seq, [this] { tick(); });
  }
  // Coupling values are not serialized in the queue/link objects; re-derive
  // them now that stats_.ticks (the duty-cycle phase) is restored.
  for (std::size_t i = 0; i < links_.size(); ++i) push_coupling(links_[i], i);
  return l.ok();
}

}  // namespace xmp::model::hybrid
