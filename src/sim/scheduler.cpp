#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "obs/hooks.hpp"
#include "obs/timeline.hpp"

namespace xmp::sim {

namespace {

constexpr EventId encode(std::uint32_t gen, std::uint32_t idx) {
  return (static_cast<EventId>(gen) << 32) | (idx + 1);
}

/// Marks this scheduler as the one dispatching on the current thread for
/// the duration of a run loop; restores the previous value on exit so
/// nested run_until() calls (tests do this) unwind correctly.
struct TlsSchedulerScope {
  explicit TlsSchedulerScope(Scheduler* s) : prev{detail::tls_scheduler} {
    detail::tls_scheduler = s;
  }
  ~TlsSchedulerScope() { detail::tls_scheduler = prev; }
  TlsSchedulerScope(const TlsSchedulerScope&) = delete;
  TlsSchedulerScope& operator=(const TlsSchedulerScope&) = delete;
  Scheduler* prev;
};

}  // namespace

std::uint32_t Scheduler::pending_slot_of(EventId id) const {
  if (id == kInvalidEventId) return kNullPos;
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return kNullPos;
  if (slots_[idx].gen != gen || pos_[idx] == kNullPos) return kNullPos;
  return idx;
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  assert(slots_.size() < kSlotMask && "too many concurrent events");
  slots_.emplace_back();
  pos_.push_back(kNullPos);
  ent_.emplace_back();
  next_.push_back(kNullPos);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  ++s.gen;  // invalidate outstanding ids for this slot
  pos_[idx] = kNullPos;
  free_.push_back(idx);
}

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(heap_[parent], pos);
    pos = parent;
  }
  place(e, pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(heap_[best], pos);
    pos = best;
  }
  place(e, pos);
}

void Scheduler::restore(std::size_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / kArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Scheduler::heap_erase(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(last, pos);
  restore(pos);
}

void Scheduler::heap_pop() {
  // Refill the root from the heap's own tail and sink it (no parent check
  // needed at the root).
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(last, 0);
    sift_down(0);
  }
}

void Scheduler::ring_insert(const HeapEntry& e) {
  const std::uint32_t idx = e.slot();
  const std::size_t b = bucket_of(e.t_ns);
  assert(tick_of(e.t_ns) >= cursor_ && tick_of(e.t_ns) < cursor_ + kRingSize);
  ent_[idx] = e;
  pos_[idx] = kInRing;
  ++ring_live_;
  std::uint64_t& word = occ_[b >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (b & 63);
  if ((word & bit) == 0) {
    word |= bit;
    head_[b] = last_[b] = idx;
    next_[idx] = kNullPos;
    return;
  }
  if (earlier(ent_[last_[b]], e)) {  // the common case: later than everything queued
    next_[last_[b]] = idx;
    last_[b] = idx;
    next_[idx] = kNullPos;
    return;
  }
  // Sorted place; the walk stops before the bucket's last entry at worst.
  std::uint32_t prev = kNullPos;
  std::uint32_t cur = head_[b];
  while (earlier(ent_[cur], e)) {
    prev = cur;
    cur = next_[cur];
  }
  next_[idx] = cur;
  (prev == kNullPos ? head_[b] : next_[prev]) = idx;
}

void Scheduler::ring_unlink(std::uint32_t idx) {
  const std::size_t b = bucket_of(ent_[idx].t_ns);
  std::uint32_t prev = kNullPos;
  std::uint32_t cur = head_[b];
  while (cur != idx) {
    prev = cur;
    cur = next_[cur];
  }
  const std::uint32_t after = next_[idx];
  if (prev == kNullPos) {
    head_[b] = after;
  } else {
    next_[prev] = after;
  }
  if (after == kNullPos) {
    if (prev == kNullPos) {
      occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    } else {
      last_[b] = prev;
    }
  }
  --ring_live_;
}

std::size_t Scheduler::first_bucket() const {
  assert(ring_live_ != 0);
  // Buckets in ring order from the cursor's are in tick order; the word
  // holding the cursor's bucket is visited again last, for the buckets
  // before it (which hold the window's highest ticks).
  const std::size_t start = static_cast<std::size_t>(cursor_) & kRingMask;
  std::size_t w = start >> 6;
  std::uint64_t bits = occ_[w] & (~std::uint64_t{0} << (start & 63));
  while (bits == 0) {
    w = (w + 1) % occ_.size();
    bits = occ_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void Scheduler::migrate() {
  // The heap yields far events in (t, seq) order and their buckets held
  // ticks below the old cursor, so each migrant appends to an empty or
  // same-tick bucket.
  while (!heap_.empty() && tick_of(heap_.front().t_ns) < cursor_ + kRingSize) {
    const HeapEntry top = heap_.front();
    heap_pop();
    ring_insert(top);
  }
}

void Scheduler::heap_push(const HeapEntry& e) {
  const std::size_t pos = heap_.size();
  heap_.push_back(e);
  pos_[e.slot()] = static_cast<std::uint32_t>(pos);
  sift_up(pos);
}

void Scheduler::restart_window() {
  for (std::size_t w = 0; w < occ_.size(); ++w) {
    for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::uint32_t i = head_[b]; i != kNullPos; i = next_[i]) heap_push(ent_[i]);
    }
    occ_[w] = 0;
  }
  ring_live_ = 0;
  cursor_ = tick_of(now_.ns());
  migrate();
}

void Scheduler::insert_entry(std::uint32_t idx, Time t, std::uint64_t seq) {
  assert(seq < (1ull << (64 - kSlotBits)) && "sequence space exhausted");
  const HeapEntry e{t.ns(), (seq << kSlotBits) | idx};
  const std::int64_t tick = tick_of(e.t_ns);
  if (tick < cursor_) restart_window();
  if (tick >= cursor_ + kRingSize) {
    if (ring_live_ == 0) {
      // Nothing near is pending: slide the window up to this event, or to
      // the earliest far event if that comes first. The cursor may pass
      // the clock here; restart_window() undoes that when needed.
      cursor_ = heap_.empty() ? tick : std::min(tick, tick_of(heap_.front().t_ns));
      migrate();
    }
    if (tick >= cursor_ + kRingSize) {
      heap_push(e);
      return;
    }
  }
  ring_insert(e);
}

EventId Scheduler::schedule_at(Time t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  assert(cb && "null event callback");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  insert_entry(idx, t, next_seq_++);
  return encode(s.gen, idx);
}

bool Scheduler::key_of(EventId id, PendingKey& out) const {
  const std::uint32_t idx = pending_slot_of(id);
  if (idx == kNullPos) return false;
  const std::uint32_t pos = pos_[idx];
  const HeapEntry& e = pos == kInRing ? ent_[idx] : heap_[pos];
  out.t_ns = e.t_ns;
  out.seq = e.key >> kSlotBits;
  return true;
}

EventId Scheduler::restore_at(Time t, std::uint64_t seq, Callback cb) {
  assert(t >= now_ && "cannot restore into the past");
  assert(seq < next_seq_ && "restore_clock must run before restore_at");
  assert(cb && "null event callback");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  insert_entry(idx, t, seq);
  return encode(s.gen, idx);
}

void Scheduler::restore_clock(Time now, std::uint64_t next_seq, std::uint64_t dispatched) {
  assert(now_ == Time::zero() && dispatched_ == 0 && pending() == 0 &&
         "restore_clock needs a virgin scheduler");
  now_ = now;
  cursor_ = tick_of(now.ns());
  // Every checkpointed event is keyed after the last one dispatched, so
  // "everything before now" is a frontier no restored key has passed.
  pass_before(now);
  next_seq_ = next_seq;
  dispatched_ = dispatched;
}

void Scheduler::remove(std::uint32_t idx) {
  if (pos_[idx] == kInRing) {
    ring_unlink(idx);
  } else {
    heap_erase(pos_[idx]);
  }
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t idx = pending_slot_of(id);
  if (idx == kNullPos) return;
  remove(idx);
  release_slot(idx);
}

bool Scheduler::reschedule(EventId id, Time t) {
  const std::uint32_t idx = pending_slot_of(id);
  if (idx == kNullPos) return false;
  assert(t >= now_ && "cannot reschedule into the past");
  // Re-enter the FIFO order as if freshly scheduled.
  remove(idx);
  insert_entry(idx, t, next_seq_++);
  return true;
}

bool Scheduler::pop_next(std::int64_t bound_ns, Time& t, EventCallback& cb) {
  // Every ring entry is earlier than every far entry, so the far heap is
  // consulted only when the ring is empty.
  HeapEntry e;
  if (ring_live_ != 0) {
    e = ent_[head_[first_bucket()]];
    if (e.t_ns > bound_ns) return false;
    ring_unlink(e.slot());
  } else if (!heap_.empty()) {
    e = heap_.front();
    if (e.t_ns > bound_ns) return false;
    heap_pop();
  } else {
    return false;
  }
  const std::uint32_t idx = e.slot();
  t = Time::nanoseconds(e.t_ns);
  frontier_ = PendingKey{e.t_ns, e.key >> kSlotBits};
  cb = std::move(slots_[idx].cb);
  release_slot(idx);
  const std::int64_t tick = tick_of(e.t_ns);
  if (tick != cursor_) {
    assert(tick > cursor_ && "the window never moves past a pending event");
    cursor_ = tick;
    migrate();
  }
  return true;
}

void Scheduler::dispatch(Time t, EventCallback& cb) {
  assert(t >= now_);
  now_ = t;
  ++dispatched_;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    if ((dispatched_ & tr->sched_sample_mask()) == 0) {
      tr->sched_sample(now_, pending(), dispatched_);
    }
  }
  cb();
}

void Scheduler::run() {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time t;
  EventCallback cb;
  while (!stopped_ && !external_stop() && pop_next(std::numeric_limits<std::int64_t>::max(), t, cb)) {
    dispatch(t, cb);
  }
}

void Scheduler::run_until(Time t) {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time et;
  EventCallback cb;
  while (!stopped_ && !external_stop() && pop_next(t.ns(), et, cb)) {
    dispatch(et, cb);
  }
  // Advance the clock to the horizon only on a quiet completion; a stop()
  // (or an external stop request) freezes time at the last dispatched event
  // (so measurement windows stay tight, and an emergency checkpoint lands
  // at a well-defined quiescent point).
  if (!stopped_ && !external_stop()) {
    if (now_ < t) now_ = t;
    pass_through(t.ns());
  }
}

void Scheduler::run_before(Time bound) {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time et;
  EventCallback cb;
  // pop_next's bound is inclusive; the epoch boundary itself is excluded.
  while (!stopped_ && !external_stop() && pop_next(bound.ns() - 1, et, cb)) {
    dispatch(et, cb);
  }
  if (!stopped_ && !external_stop()) pass_before(bound);
}

bool Scheduler::step_one() {
  TlsSchedulerScope scope{this};
  Time t;
  EventCallback cb;
  if (!pop_next(std::numeric_limits<std::int64_t>::max(), t, cb)) return false;
  dispatch(t, cb);
  return true;
}

Time Scheduler::next_time() const {
  if (ring_live_ != 0) return Time::nanoseconds(ent_[head_[first_bucket()]].t_ns);
  if (!heap_.empty()) return Time::nanoseconds(heap_.front().t_ns);
  return Time::infinity();
}

const char* Scheduler::check_invariants() const {
  std::size_t in_ring = 0;
  for (std::size_t b = 0; b < head_.size(); ++b) {
    if ((occ_[b >> 6] >> (b & 63) & 1) == 0) continue;
    std::uint32_t prev = kNullPos;
    for (std::uint32_t cur = head_[b]; cur != kNullPos; cur = next_[cur]) {
      if (cur >= pos_.size() || pos_[cur] != kInRing) return "ring entry not marked as in the ring";
      if (ent_[cur].slot() != cur) return "ring entry names another slot";
      const std::int64_t tick = tick_of(ent_[cur].t_ns);
      if (tick < cursor_ || tick >= cursor_ + kRingSize) return "ring entry outside the near window";
      if (bucket_of(ent_[cur].t_ns) != b) return "ring entry in the wrong bucket";
      if (prev != kNullPos && !earlier(ent_[prev], ent_[cur])) return "bucket out of (t, seq) order";
      if (++in_ring > ring_live_) return "ring holds more entries than ring_live_";
      prev = cur;
    }
    if (prev == kNullPos) return "occupancy bit set on an empty bucket";
    if (last_[b] != prev) return "bucket tail pointer is stale";
  }
  if (in_ring != ring_live_) return "ring_live_ does not match the buckets";
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& e = heap_[i];
    if (pos_[e.slot()] != i) return "heap position index is stale";
    if (tick_of(e.t_ns) < cursor_ + kRingSize) return "far entry inside the near window";
    if (i > 0 && earlier(e, heap_[(i - 1) / kArity])) return "heap order violated";
  }
  std::size_t live = 0;
  for (const std::uint32_t p : pos_) live += p != kNullPos ? 1 : 0;
  if (live != pending()) return "pending() does not match the live slots";
  if (live + free_.size() != slots_.size()) return "free list does not cover the idle slots";
  return nullptr;
}

}  // namespace xmp::sim
