#include "net/link.hpp"

#include <cassert>

#include "net/handoff.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::net {

namespace {

// One call per drop; the TLS gate keeps the disabled cost to two loads.
void note_drop(sim::Time t, LinkId link, obs::DropCause cause) {
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] tr->drop(t, link, cause);
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_dropped.inc();
}

// One call per gray impairment applied (delay/reorder/duplicate/overmark).
void note_impair(sim::Time t, LinkId link, obs::ImpairKind kind) {
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] tr->impair(t, link, kind);
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_impaired.inc();
}

using Key = sim::Scheduler::PendingKey;

// schedule_in() that also reports the event's key, so save_state() reads
// keys from the link itself instead of looking them up in the scheduler.
sim::EventId schedule_keyed(sim::Scheduler& s, sim::Time delay, Key& key, sim::EventCallback cb) {
  const sim::Time t = s.now() + delay;
  key = Key{t.ns(), s.reserve_seq()};
  return s.restore_at(t, key.seq, std::move(cb));
}

}  // namespace

Link::Link(sim::Scheduler& sched, LinkId id, std::int64_t rate_bps, sim::Time prop_delay,
           std::unique_ptr<Queue> queue, PacketSink& sink)
    : sched_{sched},
      id_{id},
      rate_bps_{rate_bps},
      effective_rate_bps_{rate_bps},
      queue_{std::move(queue)},
      prop_delay_{prop_delay},
      sink_{sink} {
  assert(rate_bps_ > 0);
  assert(queue_ != nullptr);
  queue_->set_owner(id_);  // label this queue's trace events with the link id
}

void Link::send(Packet p) {
  ++offered_;
  if (down_) {  // administratively closed
    ++drops_.admin_down;
    note_drop(sched_.now(), id_, obs::DropCause::AdminDown);
    return;
  }
  bool dup = false;
  if (fault_hook_ != nullptr) {
    const FaultVerdict v = fault_hook_->on_send(p);
    switch (v.action) {
      case FaultVerdict::Action::Pass:
        break;
      case FaultVerdict::Action::Drop:
        ++drops_.fault;
        note_drop(sched_.now(), id_, obs::DropCause::Fault);
        return;
      case FaultVerdict::Action::Corrupt:
        p.corrupt = true;  // rides the wire, discarded at the sink end
        break;
    }
    if (v.overmark && p.ecn == Ecn::Ect) {
      p.ecn = Ecn::Ce;  // the dual of a blackhole: CE without congestion
      ++overmarked_;
      note_impair(sched_.now(), id_, obs::ImpairKind::Overmark);
    }
    dup = v.duplicate;
    if (dup) note_impair(sched_.now(), id_, obs::ImpairKind::Duplicate);
    if (v.delay > sim::Time::zero()) {
      // Park the packet (and a pending clone) at entry; release re-enters
      // the enqueue path below, so everything downstream — egress queue,
      // in-flight FIFO, boundary handoff — sees a perfectly ordinary send.
      ++delayed_;
      note_impair(sched_.now(), id_, v.reorder ? obs::ImpairKind::Reorder : obs::ImpairKind::Delay);
      const std::uint64_t id = next_held_id_++;
      Key key;
      const sim::EventId ev =
          schedule_keyed(sched_, v.delay, key, [this, id] { release_held(id); });
      held_.push_back(Held{id, dup, std::move(p), ev, key});
      return;
    }
  }
  enqueue_for_tx(std::move(p), dup);
}

void Link::enqueue_for_tx(Packet&& p, bool dup) {
  Packet clone;
  if (dup) clone = p;  // copy before the move below
  if (!queue_->enqueue(std::move(p), sched_.now())) {  // tail drop
    ++drops_.queue;
    note_drop(sched_.now(), id_, obs::DropCause::Queue);
  }
  if (dup) {
    // The clone is an extra packet the link manufactured: it enters the
    // conservation law on the offered side (duplicated_), then lives and
    // dies exactly like any other packet.
    ++duplicated_;
    if (!queue_->enqueue(std::move(clone), sched_.now())) {
      ++drops_.queue;
      note_drop(sched_.now(), id_, obs::DropCause::Queue);
    }
  }
  if (!tx_busy()) {
    start_transmission();
  } else if (tx_ev_ == sim::kInvalidEventId && queue_->len_packets() > 0) {
    tx_ev_ = arm_completion();  // the first packet to wait behind it
  }
}

void Link::release_held(std::uint64_t id) {
  for (auto it = held_.begin(); it != held_.end(); ++it) {
    if (it->id == id) {
      Held h = std::move(*it);
      held_.erase(it);
      enqueue_for_tx(std::move(h.pkt), h.duplicate);
      return;
    }
  }
  assert(!"release for a hold entry that no longer exists");
}

void Link::start_transmission() {
  Packet p;
  if (!queue_->dequeue(p, sched_.now())) return;

  const sim::Time tx = sim::transmission_time(p.size_bytes, effective_rate_bps_);
  busy_ += tx;
  bytes_sent_ += p.size_bytes;

  if (remote_ != nullptr) {
    // Shard-boundary link: hand the packet to the cross-shard channel; the
    // barrier drain schedules its delivery on the destination shard. The
    // src-owned mirror keeps set_down()'s conservation accounting working
    // without touching destination-shard state.
    const std::int64_t deliver_t_ns = (sched_.now() + tx + prop_delay_).ns();
    while (!remote_in_flight_.empty() &&
           remote_in_flight_.front().deliver_t_ns + remote_->min_delay_ns() <
               sched_.now().ns()) {
      remote_in_flight_.pop_front();  // certainly delivered (see header)
    }
    remote_in_flight_.push_back(RemoteInFlight{deliver_t_ns, epoch_, p.corrupt});
    remote_->push(RemotePacket{this, std::move(p), deliver_t_ns, epoch_});
  } else {
    // Deliver to the sink after serialization + propagation, under the
    // sequence number an eagerly scheduled delivery event would have had.
    const Key key{(sched_.now() + tx + prop_delay_).ns(), sched_.reserve_seq()};
    push_wire(in_flight_, InFlight{std::move(p), epoch_, key});
  }
  // The transmitter frees up after serialization only. Its completion takes
  // the sequence number an eagerly scheduled event would have, so every
  // later key (and tie order) is unchanged; the event itself is armed only
  // once a packet waits for it.
  tx_end_ = Key{(sched_.now() + tx).ns(), sched_.reserve_seq()};
  if (queue_->len_packets() > 0) tx_ev_ = arm_completion();
}

sim::EventId Link::arm_completion() {
  return sched_.restore_at(sim::Time::nanoseconds(tx_end_.t_ns), tx_end_.seq, [this] {
    tx_ev_ = sim::kInvalidEventId;
    start_transmission();
  });
}

void Link::push_wire(Wire& w, InFlight&& f) {
  FifoRing<InFlight>& q = w.fifo;
  if (q.empty() || q.back().key < f.key) {
    q.push_back(std::move(f));
    if (q.size() == 1) arm_head(w);
    return;
  }
  // Keys can only go backwards across a set_down(): the overtaken entries
  // are stale and will be discarded, but each still owes its dispatch.
  assert(q.back().epoch != f.epoch && "wire FIFO keys must be (t, seq)-monotone within an epoch");
  std::size_t at = q.size();
  while (at > 0 && f.key < q[at - 1].key) --at;
  q.insert(at, std::move(f));
  if (at == 0) {
    sched_of(w).cancel(w.head_ev);
    arm_head(w);
  }
}

void Link::arm_head(Wire& w) {
  const Key& k = w.fifo.front().key;
  const sim::Time t = sim::Time::nanoseconds(k.t_ns);
  // Pointer-sized captures: the callback stays inline (no allocation).
  if (&w == &in_flight_) {
    w.head_ev = sched_.restore_at(t, k.seq, [this] { deliver_head(in_flight_); });
  } else {
    w.head_ev = dst_sched_->restore_at(t, k.seq, [this] { deliver_head(remote_arrivals_); });
  }
}

void Link::deliver_head(Wire& w) {
  assert(!w.fifo.empty());
  InFlight head = std::move(w.fifo.front());
  w.fifo.pop_front();
  if (!w.fifo.empty()) arm_head(w);
  if (head.epoch != epoch_) return;  // lost to set_down; counted there
  if (head.pkt.corrupt) {
    ++drops_.corrupt;  // failed checksum at the receiving end
    // A boundary link's delivery time is the destination shard's clock,
    // not sched_'s (the source shard's).
    note_drop(sched_of(w).now(), id_, obs::DropCause::Corrupt);
    return;
  }
  ++delivered_;
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_delivered.inc();
  sink_.receive(std::move(head.pkt));
}

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->link_state(sched_.now(), id_, down_);
  }
  if (down_) {
    // Everything currently propagating with the live epoch is lost; count
    // it now so conservation holds at any probe instant (the stale pops in
    // deliver_head must not count again). Attribution is deterministic: a
    // packet already corrupted by a fault dies as `corrupt` wherever it is
    // when the link closes; only clean packets become admin_down.
    for (std::size_t i = 0; i < in_flight_.fifo.size(); ++i) {
      const InFlight& f = in_flight_.fifo[i];
      if (f.epoch == epoch_) ++(f.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    // Boundary mode: faults apply at barriers, where every event with
    // t < now has run, so mirror entries with deliver_t < now were
    // delivered and the rest are lost in flight. Their parked/scheduled
    // deliveries discard on the stale epoch without double counting.
    while (!remote_in_flight_.empty() && remote_in_flight_.front().deliver_t_ns < sched_.now().ns()) {
      remote_in_flight_.pop_front();
    }
    for (std::size_t i = 0; i < remote_in_flight_.size(); ++i) {
      const RemoteInFlight& f = remote_in_flight_[i];
      if (f.epoch == epoch_) ++(f.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    // The transmission is cut short too: a reopened link starts afresh,
    // so nothing waits for its completion any more.
    sched_.cancel(tx_ev_);
    tx_ev_ = sim::kInvalidEventId;
    tx_end_ = kIdle;
    ++epoch_;  // cancels in-flight deliveries
    Packet discard;
    while (queue_->dequeue(discard, sched_.now())) {
      ++(discard.corrupt ? drops_.corrupt : drops_.admin_down);  // flushed on closure
    }
    // The hold buffer drains the same way; pending clones were never
    // materialized, so they owe the conservation law nothing.
    for (const Held& h : held_) {
      sched_.cancel(h.ev);
      ++(h.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    held_.clear();
  }
  for (StateListener* l : state_listeners_) l->on_link_state(*this, down_);
}

void Link::save_state(core::ckpt::Saver& s) const {
  const bool busy = tx_busy();
  s.b(busy);
  s.b(down_);
  s.u64(bytes_sent_);
  s.time(busy_);
  s.u64(epoch_);
  s.u64(offered_);
  s.u64(delivered_);
  s.u64(drops_.queue);
  s.u64(drops_.admin_down);
  s.u64(drops_.fault);
  s.u64(drops_.corrupt);
  s.u64(duplicated_);
  s.u64(delayed_);
  s.u64(overmarked_);
  s.f64(degrade_);
  queue_->save_state(s);

  // Hold buffer: each parked packet re-arms its release event on restore.
  s.u64(held_.size());
  for (const Held& h : held_) {
    s.i64(h.key.t_ns);
    s.u64(h.key.seq);
    s.b(h.duplicate);
    save_packet(s, h.pkt);
  }

  // One (key, epoch, packet) record per entry, the same layout whether the
  // entry's event is armed (the head) or still chained behind it.
  const auto save_wire = [&s](const Wire& w) {
    s.u64(w.fifo.size());
    for (std::size_t i = 0; i < w.fifo.size(); ++i) {
      const InFlight& f = w.fifo[i];
      s.i64(f.key.t_ns);
      s.u64(f.key.seq);
      s.u64(f.epoch);
      save_packet(s, f.pkt);
    }
  };
  save_wire(in_flight_);

  // The transmit-complete record list: the busy transmitter's, armed or not.
  s.u64(busy ? 1 : 0);
  if (busy) {
    s.i64(tx_end_.t_ns);
    s.u64(tx_end_.seq);
    s.u64(epoch_);
  }

  s.u64(remote_in_flight_.size());
  for (std::size_t i = 0; i < remote_in_flight_.size(); ++i) {
    const RemoteInFlight& f = remote_in_flight_[i];
    s.i64(f.deliver_t_ns);
    s.u64(f.epoch);
    s.b(f.corrupt);
  }

  save_wire(remote_arrivals_);
}

void Link::restore_state(core::ckpt::Loader& l) {
  static_cast<void>(l.b());  // "transmitting": the same as a live record below
  down_ = l.b();  // listeners are NOT notified: their state restores separately
  bytes_sent_ = l.u64();
  busy_ = l.time();
  epoch_ = l.u64();
  offered_ = l.u64();
  delivered_ = l.u64();
  drops_.queue = l.u64();
  drops_.admin_down = l.u64();
  drops_.fault = l.u64();
  drops_.corrupt = l.u64();
  duplicated_ = l.u64();
  delayed_ = l.u64();
  overmarked_ = l.u64();
  degrade_ = l.f64();
  recompute_effective_rate();
  queue_->restore_state(l);

  const std::uint64_t n_held = l.u64();
  for (std::uint64_t i = 0; i < n_held && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    const bool dup = l.b();
    const std::uint64_t id = next_held_id_++;
    const sim::EventId ev =
        sched_.restore_at(sim::Time::nanoseconds(t_ns), seq, [this, id] { release_held(id); });
    held_.push_back(Held{id, dup, load_packet(l), ev, Key{t_ns, seq}});
  }

  // Re-fill a wire in its saved (key) order; only the head gets an event.
  const auto restore_wire = [this, &l](Wire& w) {
    const std::uint64_t n = l.u64();
    for (std::uint64_t i = 0; i < n && l.ok(); ++i) {
      const std::int64_t t_ns = l.i64();
      const std::uint64_t seq = l.u64();
      const std::uint64_t epoch = l.u64();
      push_wire(w, InFlight{load_packet(l), epoch, Key{t_ns, seq}});
    }
  };
  restore_wire(in_flight_);

  // Files written before cut-short completions were forgotten at set_down()
  // also list those, ahead of the live one; their epoch is over, so they
  // are dropped.
  const std::uint64_t n_tx = l.u64();
  for (std::uint64_t i = 0; i < n_tx && l.ok(); ++i) {
    const Key key{l.i64(), l.u64()};
    const std::uint64_t epoch = l.u64();
    if (epoch == epoch_) tx_end_ = key;
  }
  if (tx_busy() && queue_->len_packets() > 0) tx_ev_ = arm_completion();

  const std::uint64_t n_remote = l.u64();
  for (std::uint64_t i = 0; i < n_remote && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t epoch = l.u64();
    const bool corrupt = l.b();
    remote_in_flight_.push_back(RemoteInFlight{t_ns, epoch, corrupt});
  }

  restore_wire(remote_arrivals_);
}

std::size_t Link::live_in_flight() const {
  // Boundary links hold their in-flight packets in remote_arrivals_ once
  // the channel is drained, which it is at every quiesced instant.
  std::size_t n = 0;
  for (const Wire* w : {&in_flight_, &remote_arrivals_}) {
    for (std::size_t i = 0; i < w->fifo.size(); ++i) {
      if (w->fifo[i].epoch == epoch_) ++n;
    }
  }
  return n;
}

}  // namespace xmp::net
