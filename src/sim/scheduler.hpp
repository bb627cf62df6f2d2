#pragma once

#include <array>
#include <atomic>
#include <compare>
#include <cstdint>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/time.hpp"

namespace xmp::sim {

/// Identifier of a scheduled event; used for cancellation.
///
/// Encodes a slab slot plus a per-slot generation, so an id for an event
/// that already fired (or was cancelled) stays invalid even after its slot
/// is reused by a later event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Discrete-event scheduler with a virtual clock.
///
/// Events scheduled for the same instant fire in FIFO order, which together
/// with the deterministic Rng makes every simulation run reproducible.
///
/// The hot path is allocation-free in steady state and built from three
/// pieces:
///  - a slab of callback slots (EventCallback small-buffer storage, no
///    heap allocation per event) recycled through a free list;
///  - a near tier: a ring of 2^kRingBits buckets, each one tick
///    (2^kTickBits ns) wide, covering the window [cursor, cursor + span).
///    A bucket is an intrusive singly linked list of slot indices kept in
///    (time, sequence) order, so an insert appends at its tail in the
///    common case; an occupancy bitmap finds the first non-empty bucket
///    without visiting empty ones. Packet serialization, propagation and re-armed
///    wire heads (sub-µs to tens of µs ahead) all land here;
///  - a far tier: an indexed 4-ary min-heap of 16-byte (time,
///    sequence|slot) keys for events at or beyond the window (delayed-ACK
///    and retransmission timers). Per-slot positions live in a dense side
///    array, so cancel() and reschedule() work in place on either tier —
///    no tombstones, and pending() is an exact count.
///
/// Popping an event moves the cursor to its tick; far events that then fall
/// inside the window migrate into the ring, so every ring entry is earlier
/// than every far entry. While the ring is empty, an insert beyond the
/// window slides the window up to it instead of going far (a lone timer
/// re-armed over and over stays O(1)); a later insert below the cursor
/// spills the ring into the heap and restarts the window at the clock.
/// Dispatch order is defined purely by the unique (time, sequence) key, so
/// the split is invisible to results: any run dispatches identically to a
/// single priority queue.
class Scheduler {
 public:
  using Callback = EventCallback;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);

  /// Schedule `cb` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a no-op.
  void cancel(EventId id);

  /// Move a pending event to a new deadline, keeping its callback and id.
  /// Equivalent to cancel + schedule_at (the event re-enters the FIFO order
  /// at its new timestamp as if freshly scheduled). Returns false — and
  /// does nothing — if the id is no longer pending.
  bool reschedule(EventId id, Time t);

  /// Run until no events remain or stop() is called.
  void run();

  /// Run all events with timestamp <= `t`; the clock is advanced to `t`
  /// afterwards if the queue drained early. If stop() was called, the clock
  /// stays at the stopping event's time.
  void run_until(Time t);

  /// Run all events with timestamp strictly < `bound` and leave the clock at
  /// the last dispatched event. The conservative-sync epoch loop uses this:
  /// an event landing exactly on the epoch boundary belongs to the *next*
  /// epoch (it may be affected by cross-shard arrivals at `bound`), so the
  /// boundary itself is excluded. The caller advances the clock to the
  /// barrier time afterwards via advance_clock_to().
  void run_before(Time bound);

  /// Dispatch exactly one event (the earliest pending), advancing the clock
  /// to its timestamp. Returns false if no event is pending. Serial
  /// micro-stepping across shards is built from this.
  bool step_one();

  /// Timestamp of the earliest pending event, or Time::infinity() if none.
  [[nodiscard]] Time next_time() const;

  /// Move the clock forward to `t` (no-op if already past). Barriers use
  /// this to align every shard's clock on the epoch boundary so that
  /// relative delays stay correct after the handoff drain. No event before
  /// `t` may be pending, so the dispatch frontier (passed()) moves up to
  /// the instant before `t` as well.
  void advance_clock_to(Time t) {
    if (now_ < t) now_ = t;
    pass_before(t);
  }

  /// Request the run loop to return after the current event.
  void stop() { stopped_ = true; }

  /// Whether the last run loop exited via stop() (as opposed to draining or
  /// reaching its horizon). run()/run_until()/run_before() clear this flag
  /// on entry. The segmented checkpoint loop uses it to distinguish "the
  /// workload stopped the run" from "the checkpoint boundary was reached".
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Install an external stop flag (e.g. set by a SIGTERM handler) checked
  /// between events; when it becomes true the run loop returns after the
  /// current event, leaving the clock at that event's time. Unlike stop(),
  /// this does NOT set stopped(), so callers can tell the two apart. The
  /// flag object must outlive the scheduler; nullptr detaches.
  void set_external_stop(const std::atomic<bool>* flag) { stop_flag_ = flag; }

  // --- checkpoint/restore support (core/checkpoint) -----------------------
  //
  // Dispatch order is a pure function of each event's (time, sequence) key,
  // so checkpointing the pending set means saving every event's key next to
  // the owning module's state and re-arming it on restore with the same key.
  // restore_at() accepts the historical sequence explicitly, which makes the
  // re-arm order during restore irrelevant.

  /// The portion of an event's identity that must survive a checkpoint.
  struct PendingKey {
    std::int64_t t_ns = 0;
    std::uint64_t seq = 0;
    /// Lexicographic (t, seq): exactly the dispatch order.
    friend auto operator<=>(const PendingKey&, const PendingKey&) = default;
  };

  /// Fetch the (time, sequence) key of a pending event. Returns false if
  /// `id` no longer names a pending event.
  [[nodiscard]] bool key_of(EventId id, PendingKey& out) const;

  /// Insert an event under an explicit sequence number: either a
  /// checkpointed one (key_of() on the saving side; restore_clock() must
  /// already have advanced next_seq_ past it) or one taken earlier from
  /// reserve_seq(). The event dispatches exactly where an eager
  /// schedule_at() made at reservation time would have.
  EventId restore_at(Time t, std::uint64_t seq, Callback cb);

  /// Take the sequence number the next schedule_at() would have used,
  /// without inserting anything. Lets a module keep a FIFO of future
  /// events off the heap and arm only its head, each under the key it
  /// would have had (net::Link's wire FIFO), or keep a key unarmed until
  /// something needs the event (net::Link's transmit completion).
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Whether `k` is at or below the dispatch frontier: the key of the last
  /// dispatched event, raised to (T, max) when run_until(T) completes
  /// quietly and to just below (t, 0) when run_before(t) completes quietly
  /// or advance_clock_to(t) aligns the clock. Every event keyed at or below
  /// it has run, so a reserved key that was never armed has "happened"
  /// exactly when this turns true — the moment an eagerly scheduled event
  /// under that key would have fired.
  [[nodiscard]] bool passed(const PendingKey& k) const { return k <= frontier_; }

  /// Restore the clock, sequence counter and dispatch count saved by a
  /// checkpoint. Must be called on a virgin scheduler before any
  /// restore_at().
  void restore_clock(Time now, std::uint64_t next_seq, std::uint64_t dispatched);

  /// Checkpointed counters (paired with restore_clock on the loading side).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Number of live (not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t pending() const { return heap_.size() + ring_live_; }

  /// Total events dispatched so far (for micro-benchmarks and tests).
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Width of one near-tier bucket (256 ns) and of the whole near window
  /// (512 buckets, 131 µs). The window holds every serialization and
  /// propagation delay of a 1 Gbps fat-tree and leaves delayed-ACK (1 ms)
  /// and retransmission timers to the heap; narrow buckets keep a busy
  /// fabric's sorted inserts short.
  static constexpr int kTickBits = 8;
  static constexpr int kRingBits = 9;
  static constexpr Time kTick = Time::nanoseconds(std::int64_t{1} << kTickBits);
  static constexpr Time kSpan = Time::nanoseconds(std::int64_t{1} << (kTickBits + kRingBits));

  /// Full structural check of both tiers (bitmap matches buckets, buckets
  /// sorted, ring_live_ exact, every entry's tick inside its tier's range,
  /// heap order and positions). Returns nullptr when everything holds, or a
  /// description of the first violation. O(pending + buckets): for tests
  /// and debugging, never called on the hot path.
  [[nodiscard]] const char* check_invariants() const;

 private:
  static constexpr std::uint32_t kNullPos = 0xffffffffu;
  /// pos_ value of an event in the near ring (its bucket follows from its time).
  static constexpr std::uint32_t kInRing = 0xfffffffeu;
  static constexpr std::size_t kArity = 4;
  /// Heap keys pack (sequence << kSlotBits) | slot into one word: the
  /// monotone sequence makes FIFO ties exact, the slot rides along for
  /// free. 2^24 concurrent events and 2^40 total schedules are orders of
  /// magnitude beyond any run we do; both are asserted.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::int64_t kRingSize = std::int64_t{1} << kRingBits;
  static constexpr std::size_t kRingMask = static_cast<std::size_t>(kRingSize) - 1;
  static_assert(kRingBits >= 6, "the occupancy bitmap is made of whole 64-bit words");

  /// Slab slot: callback storage plus the generation that validates ids.
  struct Slot {
    EventCallback cb;
    std::uint32_t gen = 0;
  };

  struct HeapEntry {
    std::int64_t t_ns;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] std::uint32_t slot() const { return static_cast<std::uint32_t>(key & kSlotMask); }
  };

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.key < b.key;  // seq occupies the high bits: FIFO among equal times
  }

  [[nodiscard]] static std::int64_t tick_of(std::int64_t t_ns) { return t_ns >> kTickBits; }
  [[nodiscard]] static std::size_t bucket_of(std::int64_t t_ns) {
    return static_cast<std::size_t>(tick_of(t_ns)) & kRingMask;
  }

  /// Decode an EventId; returns the slot index if it names a pending event,
  /// kNullPos otherwise.
  [[nodiscard]] std::uint32_t pending_slot_of(EventId id) const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void place(const HeapEntry& e, std::size_t pos) {
    heap_[pos] = e;
    pos_[e.slot()] = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void restore(std::size_t pos);
  void heap_erase(std::size_t pos);
  /// Remove the heap root (the earliest far event).
  void heap_pop();

  /// Link `e` into its bucket at its (time, sequence) place.
  void ring_insert(const HeapEntry& e);
  /// Unlink a ring event from its bucket.
  void ring_unlink(std::uint32_t idx);
  /// Bucket holding the earliest ring event; the ring must not be empty.
  [[nodiscard]] std::size_t first_bucket() const;
  /// Move the far events the window now covers into the ring.
  void migrate();
  /// For an insert below a cursor that slid ahead of the clock: spill the
  /// ring into the heap and restart the window at the clock, which no
  /// later insert can precede.
  void restart_window();
  void heap_push(const HeapEntry& e);
  /// Take a pending event out of whichever tier holds it.
  void remove(std::uint32_t idx);

  /// Route an entry for `idx` at time `t` under sequence `seq` to the ring
  /// or the far heap. schedule_at passes next_seq_++; restore_at passes a
  /// checkpointed or reserved sequence.
  void insert_entry(std::uint32_t idx, Time t, std::uint64_t seq);

  [[nodiscard]] bool external_stop() const {
    return stop_flag_ != nullptr && stop_flag_->load(std::memory_order_relaxed);
  }

  /// Remove the earliest event with time <= `bound_ns`, moving its deadline
  /// and callback out and its key into the frontier. Returns false when no
  /// such event exists.
  bool pop_next(std::int64_t bound_ns, Time& t, EventCallback& cb);

  /// Raise the frontier past every key at or before `t_ns`.
  void pass_through(std::int64_t t_ns) {
    const PendingKey k{t_ns, ~std::uint64_t{0}};
    if (frontier_ < k) frontier_ = k;
  }
  /// Raise the frontier past every key before instant `t`.
  void pass_before(Time t) { pass_through(t.ns() - 1); }

  void dispatch(Time t, EventCallback& cb);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> pos_;  ///< per-slot location: heap index, kInRing or kNullPos
  std::vector<HeapEntry> ent_;      ///< per-slot key while the event is in the ring
  std::vector<std::uint32_t> next_;  ///< per-slot successor within its bucket
  std::vector<HeapEntry> heap_;     ///< far tier
  /// First and last slot of each bucket; meaningful only while the
  /// bucket's occ_ bit is set.
  std::array<std::uint32_t, kRingSize> head_{};
  std::array<std::uint32_t, kRingSize> last_{};
  std::array<std::uint64_t, kRingSize / 64> occ_{};  ///< bit b set iff bucket b is non-empty
  std::int64_t cursor_ = 0;  ///< first tick of the near window
  std::size_t ring_live_ = 0;
  std::vector<std::uint32_t> free_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  /// Key of the last dispatched event, or higher (see passed()). Below
  /// every real key at first: sequence numbers start at 1.
  PendingKey frontier_{0, 0};
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  const std::atomic<bool>* stop_flag_ = nullptr;
};

namespace detail {
/// Scheduler whose run loop is executing on this thread (nullptr outside a
/// run loop). Lets code that may run on behalf of a *remote* shard — e.g. a
/// flow finishing on its receiver's shard — read the clock of the engine
/// actually dispatching it instead of the one it was built with.
inline thread_local Scheduler* tls_scheduler = nullptr;
}  // namespace detail

/// The scheduler currently dispatching events on this thread, if any.
[[nodiscard]] inline Scheduler* current_scheduler() { return detail::tls_scheduler; }

}  // namespace xmp::sim
