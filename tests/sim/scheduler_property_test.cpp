// Differential property test for the two-tier event scheduler: random
// operation sequences run against a naive ordered-set model of the pending
// (time, sequence) keys, with delays chosen to straddle the near ring's
// bucket and window edges, plus directed cases for tier migration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace xmp::sim {
namespace {

using Key = Scheduler::PendingKey;

constexpr std::int64_t kTickNs = Scheduler::kTick.ns();
constexpr std::int64_t kSpanNs = Scheduler::kSpan.ns();

/// The delays that sit on the near tier's edges, plus the timer horizons
/// the simulator actually uses (delayed ACK and RTO).
constexpr std::int64_t kEdgeDelays[] = {
    0, kTickNs - 1, kTickNs, kSpanNs - 1, kSpanNs, kSpanNs + 1, 1'000'000, 200'000'000,
};

/// Drives one Scheduler and the model in lock step and checks them against
/// each other after every operation.
class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_{seed} {}

  void run_random_ops(int n_ops) {
    for (int i = 0; i < n_ops; ++i) {
      random_op();
      check_agreement();
      if (::testing::Test::HasFailure()) return;
    }
    s_.run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(s_.pending(), 0u);
    EXPECT_EQ(s_.dispatched(), fired_);
  }

 private:
  struct Handle {
    EventId id = kInvalidEventId;
    Key key;
    bool live = false;
  };

  std::int64_t random_delay() {
    // Mostly the edge delays; the rest spread over twice the window so
    // buckets hold several distinct instants.
    if (rng_.uniform01() < 0.6) {
      return kEdgeDelays[rng_.uniform_int(0, static_cast<std::int64_t>(std::size(kEdgeDelays)) - 1)];
    }
    return rng_.uniform_int(0, 2 * kSpanNs);
  }

  /// A bound on a bucket edge near the clock: 0, 1, N-1, N or N+1 ticks
  /// past the start of the current tick, or exactly the next event time.
  Time random_bound() {
    constexpr std::int64_t kRing = kSpanNs / kTickNs;
    constexpr std::int64_t kEdges[] = {0, 1, kRing - 1, kRing, kRing + 1};
    if (rng_.uniform01() < 0.2 && !model_.empty()) return Time::nanoseconds(model_.begin()->t_ns);
    const std::int64_t k = kEdges[rng_.uniform_int(0, static_cast<std::int64_t>(std::size(kEdges)) - 1)];
    return Time::nanoseconds(((s_.now().ns() / kTickNs) + k) * kTickNs);
  }

  Scheduler::Callback make_callback(std::size_t h) {
    return [this, h] { on_fire(h); };
  }

  void on_fire(std::size_t h) {
    Handle& hd = handles_[h];
    ASSERT_TRUE(hd.live) << "a cancelled or fired event dispatched";
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(model_.begin()->t_ns, hd.key.t_ns);
    EXPECT_EQ(model_.begin()->seq, hd.key.seq);
    EXPECT_EQ(s_.now().ns(), hd.key.t_ns);
    model_.erase(model_.begin());
    forget(h);
    ++fired_;
  }

  std::size_t add_handle(EventId id, Key key) {
    handles_.push_back(Handle{id, key, true});
    const std::size_t h = handles_.size() - 1;
    live_pos_.push_back(live_.size());
    live_.push_back(h);
    model_.insert(key);
    return h;
  }

  void forget(std::size_t h) {
    handles_[h].live = false;
    const std::size_t at = live_pos_[h];
    live_[at] = live_.back();
    live_pos_[live_[at]] = at;
    live_.pop_back();
  }

  void schedule() {
    const Time t = s_.now() + Time::nanoseconds(random_delay());
    const Key key{t.ns(), s_.next_seq()};
    const std::size_t h = handles_.size();
    const EventId id = s_.schedule_at(t, make_callback(h));
    EXPECT_EQ(add_handle(id, key), h);
  }

  void restore_reserved() {
    // restore_at under a key taken earlier from reserve_seq(), at any time
    // not in the past.
    const std::size_t r = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(reserved_.size()) - 1));
    const std::uint64_t seq = reserved_[r];
    reserved_[r] = reserved_.back();
    reserved_.pop_back();
    const Time t = s_.now() + Time::nanoseconds(random_delay());
    const std::size_t h = handles_.size();
    const EventId id = s_.restore_at(t, seq, make_callback(h));
    EXPECT_EQ(add_handle(id, Key{t.ns(), seq}), h);
  }

  std::size_t random_live() {
    return live_[static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(live_.size()) - 1))];
  }

  void cancel() {
    const std::size_t h = random_live();
    s_.cancel(handles_[h].id);
    model_.erase(handles_[h].key);
    forget(h);
  }

  void reschedule() {
    const std::size_t h = random_live();
    Handle& hd = handles_[h];
    const Time t = s_.now() + Time::nanoseconds(random_delay());
    const Key key{t.ns(), s_.next_seq()};
    ASSERT_TRUE(s_.reschedule(hd.id, t));
    model_.erase(hd.key);
    model_.insert(key);
    hd.key = key;
  }

  void poke_dead() {
    // Stale ids (fired or cancelled) must be ignored everywhere.
    const std::size_t h = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(handles_.size()) - 1));
    if (handles_[h].live) return;
    Key k;
    EXPECT_FALSE(s_.key_of(handles_[h].id, k));
    EXPECT_FALSE(s_.reschedule(handles_[h].id, s_.now()));
    s_.cancel(handles_[h].id);
  }

  void run_before() {
    const Time bound = random_bound();
    const Time before = s_.now();
    s_.run_before(bound);
    if (!model_.empty()) {
      EXPECT_GE(model_.begin()->t_ns, bound.ns());
    }
    EXPECT_LT(s_.now(), std::max(bound, before + Time::nanoseconds(1)));
  }

  void run_until() {
    const Time bound = random_bound();
    s_.run_until(bound);
    if (!model_.empty()) {
      EXPECT_GT(model_.begin()->t_ns, bound.ns());
    }
    EXPECT_GE(s_.now(), bound);
  }

  void advance_clock() {
    // Move the clock without dispatching (a barrier), never past the
    // earliest pending event.
    Time t = s_.now() + Time::nanoseconds(random_delay());
    if (!model_.empty()) t = std::min(t, Time::nanoseconds(model_.begin()->t_ns));
    s_.advance_clock_to(t);
  }

  void random_op() {
    const double u = rng_.uniform01();
    // Alternate between a few hundred events pending and a handful, so the
    // ring is often empty too: schedule more while the set is below the
    // phase's target, drain more above it.
    const std::size_t target = (++ops_ / 2000) % 2 == 0 ? 300 : 4;
    const double schedule_p = model_.size() < target ? 0.55 : 0.30;
    if (u < schedule_p || live_.empty()) {
      schedule();
    } else if (u < schedule_p + 0.05) {
      reserved_.push_back(s_.reserve_seq());
    } else if (u < schedule_p + 0.10 && !reserved_.empty()) {
      restore_reserved();
    } else if (u < schedule_p + 0.20) {
      cancel();
    } else if (u < schedule_p + 0.30) {
      reschedule();
    } else if (u < schedule_p + 0.33) {
      poke_dead();
    } else if (u < schedule_p + 0.36) {
      run_before();
    } else if (u < schedule_p + 0.39) {
      run_until();
    } else if (u < schedule_p + 0.41) {
      advance_clock();
    } else {
      const bool had = !model_.empty();
      EXPECT_EQ(s_.step_one(), had);
    }
  }

  void check_agreement() {
    EXPECT_EQ(s_.pending(), model_.size());
    EXPECT_EQ(s_.next_time(), model_.empty() ? Time::infinity() : Time::nanoseconds(model_.begin()->t_ns));
    for (int i = 0; i < 4 && !live_.empty(); ++i) {
      const Handle& hd = handles_[random_live()];
      Key k;
      ASSERT_TRUE(s_.key_of(hd.id, k));
      EXPECT_EQ(k, hd.key);
    }
    const char* broken = s_.check_invariants();
    EXPECT_EQ(broken, nullptr) << broken;
  }

  Scheduler s_;
  Rng rng_;
  std::set<Key> model_;
  std::vector<Handle> handles_;
  std::vector<std::size_t> live_;      ///< handles still pending
  std::vector<std::size_t> live_pos_;  ///< per handle: index into live_ while live
  std::vector<std::uint64_t> reserved_;
  std::uint64_t fired_ = 0;
  std::uint64_t ops_ = 0;
};

TEST(SchedulerProperty, MatchesOrderedSetModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Harness h{seed};
    h.run_random_ops(100'000);
    if (HasFailure()) return;
  }
}

// A far event and events that join it at the same instant after it
// migrated into the ring dispatch in sequence order, whichever tier and
// whichever insert path (schedule_at, restore_at under a reserved key)
// they came from.
TEST(SchedulerProperty, EqualTimesAcrossMigrationDispatchInSeqOrder) {
  Scheduler s;
  std::vector<int> order;
  const auto mark = [&order](int v) { return [&order, v] { order.push_back(v); }; };
  const Time t = Time::nanoseconds(3 * kSpanNs + 17);
  const std::uint64_t r1 = s.reserve_seq();
  s.schedule_at(t, mark(2));  // far
  const std::uint64_t r2 = s.reserve_seq();
  // Popping the trigger moves the window over `t`, so the far event is in
  // the ring by the time the trigger's callback runs.
  s.schedule_at(t - Time::nanoseconds(kSpanNs / 2), [&] {
    EXPECT_EQ(s.check_invariants(), nullptr);
    s.schedule_at(t, mark(4));
    s.restore_at(t, r2, mark(3));
    s.restore_at(t, r1, mark(1));
    EXPECT_EQ(s.check_invariants(), nullptr);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// Restoring a checkpoint taken at an instant that is not tick-aligned: the
// window starts at the clock's tick and every restored key dispatches in
// (t, seq) order on top of the restored counters.
TEST(SchedulerProperty, RestoreClockAtLargeUnalignedNow) {
  Scheduler s;
  const Time now = Time::nanoseconds(7'000'000'000'123 + kTickNs / 3);
  s.restore_clock(now, 1000, 55);
  EXPECT_EQ(s.next_time(), Time::infinity());
  std::vector<std::uint64_t> order;
  const auto mark = [&order](std::uint64_t seq) { return [&order, seq] { order.push_back(seq); }; };
  std::set<Key> expected;
  const std::int64_t delays[] = {0, kTickNs - 1, kTickNs, kSpanNs - 1, kSpanNs, 200'000'000, 0, kTickNs};
  std::uint64_t seq = 990;
  for (const std::int64_t d : delays) {
    // Restore in descending sequence order to exercise the sorted insert.
    s.restore_at(now + Time::nanoseconds(d), seq, mark(seq));
    expected.insert(Key{now.ns() + d, seq});
    --seq;
  }
  const EventId fresh = s.schedule_at(now, mark(1000));
  expected.insert(Key{now.ns(), 1000});
  Key k;
  ASSERT_TRUE(s.key_of(fresh, k));
  EXPECT_EQ(k, (Key{now.ns(), 1000}));
  EXPECT_EQ(s.check_invariants(), nullptr);
  EXPECT_EQ(s.pending(), expected.size());
  s.run();
  std::vector<std::uint64_t> want;
  for (const Key& key : expected) want.push_back(key.seq);
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.dispatched(), 55 + expected.size());
  EXPECT_EQ(s.next_seq(), 1001u);
}

// The callback of the event whose pop migrated the far heap's top cancels
// (or moves) that top: the ring entry goes away in place and pending()
// stays exact.
TEST(SchedulerProperty, CancelFarTopWhileItMigrates) {
  for (const bool move_instead : {false, true}) {
    SCOPED_TRACE(move_instead);
    Scheduler s;
    const Time trigger_at = Time::nanoseconds(kSpanNs / 2);
    const Time victim_at = trigger_at + Time::nanoseconds(kSpanNs - 1);
    bool victim_fired = false;
    EventId victim = kInvalidEventId;
    s.schedule_at(trigger_at, [&] {
      Key k;
      ASSERT_TRUE(s.key_of(victim, k));
      EXPECT_EQ(k.t_ns, victim_at.ns());
      EXPECT_EQ(s.pending(), 1u);
      if (move_instead) {
        EXPECT_TRUE(s.reschedule(victim, s.now() + Time::milliseconds(200)));
        EXPECT_EQ(s.pending(), 1u);
      } else {
        s.cancel(victim);
        EXPECT_EQ(s.pending(), 0u);
        EXPECT_EQ(s.next_time(), Time::infinity());
      }
      EXPECT_EQ(s.check_invariants(), nullptr);
    });
    victim = s.schedule_at(victim_at, [&] { victim_fired = true; });
    EXPECT_EQ(s.check_invariants(), nullptr);
    s.run_until(victim_at);
    EXPECT_FALSE(victim_fired);
    EXPECT_EQ(s.pending(), move_instead ? 1u : 0u);
    s.run();
    EXPECT_EQ(victim_fired, move_instead);
  }
}

}  // namespace
}  // namespace xmp::sim
