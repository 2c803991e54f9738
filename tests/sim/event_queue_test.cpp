#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(7.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { fired += 10; });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, CancelReturnsFalseTwice) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueueTest, CancelledHeadIsSkipped) {
  EventQueue q;
  const EventId first = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(first);
  EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
  EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.schedule(4.5, [] {});
  const auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 4.5);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueueTest, ThrowsOnNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(
      q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(
      q.schedule(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
}

TEST(EventQueueTest, ThrowsOnEmptyAction) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, std::function<void()>{}),
               std::invalid_argument);
}

TEST(EventQueueTest, ThrowsOnPopWhenEmpty) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.nextTime(), std::logic_error);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(static_cast<double>(state % 1000), [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

// ---- Typed-event lane -----------------------------------------------------

/// Records every event it receives, for dispatch assertions.
class RecordingSink final : public EventSink {
 public:
  void onEvent(const EventRecord& event) override { events.push_back(event); }
  std::vector<EventRecord> events;
};

TEST(EventQueueTypedTest, DispatchesToSinkWithPayload) {
  EventQueue q;
  RecordingSink sink;
  EventRecord record{EventKind::kTimer, {}};
  record.data.timer = TimerEvent{7, 11, 22, 33};
  const EventId id = q.scheduleEvent(3.0, &sink, record);
  EXPECT_NE(id, 0u);
  auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 3.0);
  EXPECT_EQ(fired.id, id);
  fired.fire();
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kTimer);
  EXPECT_EQ(sink.events[0].data.timer.kind, 7u);
  EXPECT_EQ(sink.events[0].data.timer.a, 11u);
  EXPECT_EQ(sink.events[0].data.timer.b, 22u);
  EXPECT_EQ(sink.events[0].data.timer.c, 33u);
}

TEST(EventQueueTypedTest, RejectsNullSinkAndClosureKind) {
  EventQueue q;
  RecordingSink sink;
  EventRecord record{EventKind::kTimer, {}};
  EXPECT_THROW(q.scheduleEvent(1.0, nullptr, record), std::invalid_argument);
  record.kind = EventKind::kClosure;
  EXPECT_THROW(q.scheduleEvent(1.0, &sink, record), std::invalid_argument);
}

TEST(EventQueueTypedTest, EqualTimestampOrderingAcrossLanes) {
  // Typed and closure events at the same time fire in exact insertion order:
  // both lanes share one global sequence counter.
  EventQueue q;
  std::vector<int> order;
  class PushSink final : public EventSink {
   public:
    explicit PushSink(std::vector<int>& out) : out_(out) {}
    void onEvent(const EventRecord& event) override {
      out_.push_back(static_cast<int>(event.data.timer.a));
    }

   private:
    std::vector<int>& out_;
  } sink(order);
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      EventRecord record{EventKind::kTimer, {}};
      record.data.timer = TimerEvent{0, static_cast<std::uint64_t>(i), 0, 0};
      q.scheduleEvent(5.0, &sink, record);
    } else {
      q.schedule(5.0, [&order, i] { order.push_back(i); });
    }
  }
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---- Handle safety --------------------------------------------------------

TEST(EventQueueHandleTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().fire();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueHandleTest, StaleHandleNeverCancelsSlotReuser) {
  // Fire an event, then keep rescheduling; the first handle's slot is
  // recycled with a bumped generation, so cancelling the stale handle must
  // never revoke the slot's newer tenants.
  EventQueue q;
  const EventId stale = q.schedule(1.0, [] {});
  q.pop().fire();
  for (int i = 0; i < 50; ++i) {
    int fired = 0;
    const EventId fresh = q.schedule(1.0 + i, [&fired] { ++fired; });
    EXPECT_NE(fresh, stale);
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_EQ(q.pendingCount(), 1u);
    q.pop().fire();
    EXPECT_EQ(fired, 1);
  }
}

TEST(EventQueueHandleTest, CancelledSlotReusedWithoutCrossCancel) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  int fired = 0;
  q.schedule(2.0, [&fired] { ++fired; });  // reuses a's slot
  EXPECT_FALSE(q.cancel(a));               // stale generation
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, 1);
}

// ---- Dead-entry compaction ------------------------------------------------

TEST(EventQueueCompactionTest, HeapStaysBoundedUnderScheduleCancelChurn) {
  // The protocols' timer pattern: schedule a timeout, cancel it when the
  // repair lands, repeat.  100k rounds against a small live set must keep
  // the heap index bounded (compaction rebuilds once dead entries outnumber
  // live 2:1) instead of growing by one dead entry per round.
  EventQueue q;
  constexpr std::size_t kLive = 32;
  std::vector<EventId> live;
  double t = 1.0;
  for (std::size_t i = 0; i < kLive; ++i) {
    live.push_back(q.schedule(t, [] {}));
    t += 1.0;
  }
  std::size_t max_heap = 0;
  for (int round = 0; round < 100000; ++round) {
    const EventId id = q.schedule(t, [] {});
    t += 1.0;
    ASSERT_TRUE(q.cancel(id));
    max_heap = std::max(max_heap, q.heapSize());
  }
  EXPECT_EQ(q.pendingCount(), kLive);
  // Bound: live + 2x live dead before a rebuild triggers, plus the
  // compaction floor below which tiny heaps are left alone.
  const std::size_t bound = 3 * kLive + 64 + 1;
  EXPECT_LE(max_heap, bound);
  EXPECT_LE(q.heapSize(), bound);
  // The live set is intact and still fires in order.
  std::size_t popped = 0;
  double last = 0.0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GT(fired.time, last);
    last = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, kLive);
}

TEST(EventQueueCompactionTest, CompactionWithZeroSurvivorsLeavesEmptyHeap) {
  // Regression: when every heap entry is dead at compaction time, the rebuild
  // must handle the zero-survivor case — the Floyd loop used to siftDown(0)
  // into an empty vector.  Scheduling exactly the compaction-floor count (64)
  // and cancelling all of it makes the first compaction run with live == 0.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.schedule(1.0 + i, [] {}));
  }
  for (const EventId id : ids) {
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heapSize(), 0u);
  // The queue stays usable after the empty rebuild.
  const EventId later = q.schedule(5.0, [] {});
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_EQ(q.pop().id, later);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCompactionTest, SlotSlabReusedUnderChurn) {
  // Cancel-heavy churn must also recycle payload slots: pendingCount stays
  // exact and every handle from a recycled slot still cancels correctly.
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    const EventId a = q.schedule(1.0, [] {});
    const EventId b = q.schedule(2.0, [] {});
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pendingCount(), 0u);
  }
  EXPECT_TRUE(q.empty());
}

// ---- Differential order check ---------------------------------------------

/// Seeded differential test of the heap's total order: >= 100k random
/// schedule / cancel / fire operations on both lanes, checked against a
/// reference ordered by (time, insertion index) — exactly what a stable sort
/// of the pending set by time yields.  The time mix forces exact ties,
/// negative times before the first pop, -0.0 vs +0.0 ties (which must
/// resolve in insertion order) and cancel bursts that trigger compaction.
TEST(EventQueueOrderTest, MatchesStableReferenceOrderUnderRandomChurn) {
  EventQueue q;
  util::Rng rng(0x5eed);
  // Reference: pending events keyed by (time, insertion index).  -0.0 and
  // +0.0 compare equal, so the index breaks their tie like any other.
  std::set<std::pair<double, std::uint64_t>> reference;
  struct Pending {
    EventId id;
    double time;
    std::uint64_t index;
  };
  std::vector<Pending> pending;  // for picking cancel victims
  std::vector<std::uint64_t> fired;

  class IndexSink final : public EventSink {
   public:
    explicit IndexSink(std::vector<std::uint64_t>& out) : out_(out) {}
    void onEvent(const EventRecord& event) override {
      out_.push_back(event.data.timer.a);
    }

   private:
    std::vector<std::uint64_t>& out_;
  } sink(fired);

  std::uint64_t next_index = 0;
  bool popped = false;
  double clock = 0.0;  // last fired time (meaningful once popped)
  std::uint64_t ops = 0;
  std::size_t compactions = 0;
  std::size_t zero_time_fires = 0;  // both signed zeros fire as one tie run

  const auto pick_time = [&]() -> double {
    const std::uint64_t kind = rng.uniformInt(10);
    if (!popped) {
      // Before the first pop any finite time is legal: negative times, both
      // zeros and a coarse grid that produces exact ties.
      if (kind == 0) return -0.0;
      if (kind == 1) return 0.0;
      if (kind <= 5) return 0.5 * static_cast<double>(rng.uniformInt(41)) - 10.0;
      return rng.uniformReal(-50.0, 50.0);
    }
    // Afterwards times stay at or after the clock; ties with the clock
    // itself and on a coarse grid above it.
    if (kind == 0) return clock;
    if (kind <= 5) {
      return std::ceil(clock) + 0.25 * static_cast<double>(rng.uniformInt(17));
    }
    return clock + rng.uniformReal(0.0, 20.0);
  };
  const auto schedule = [&](double time) {
    const std::uint64_t index = next_index++;
    EventId id;
    if (index % 2 == 0) {
      EventRecord record{EventKind::kTimer, {}};
      record.data.timer = TimerEvent{0, index, 0, 0};
      id = q.scheduleEvent(time, &sink, record);
    } else {
      id = q.schedule(time, [&fired, index] { fired.push_back(index); });
    }
    reference.emplace(time, index);
    pending.push_back(Pending{id, time, index});
  };
  const auto cancel_random = [&] {
    const std::size_t victim = static_cast<std::size_t>(
        rng.uniformInt(pending.size()));
    const std::size_t heap_before = q.heapSize();
    ASSERT_TRUE(q.cancel(pending[victim].id));
    if (q.heapSize() < heap_before) ++compactions;
    reference.erase({pending[victim].time, pending[victim].index});
    pending[victim] = pending.back();
    pending.pop_back();
  };
  const auto fire_one = [&] {
    ASSERT_FALSE(reference.empty());
    const auto expected = *reference.begin();
    reference.erase(reference.begin());
    const std::size_t before = fired.size();
    double time = 0.0;
    switch (ops % 3) {
      case 0: {
        auto event = q.pop();
        time = event.time;
        event.fire();
        break;
      }
      case 1:
        ASSERT_TRUE(q.fireNext(std::numeric_limits<double>::infinity(), &time));
        break;
      default:
        time = q.popAndFire();
    }
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), expected.second) << "op " << ops;
    ASSERT_EQ(time, expected.first) << "op " << ops;
    if (time == 0.0) ++zero_time_fires;
    popped = true;
    clock = time;
    const auto it = std::find_if(pending.begin(), pending.end(),
                                 [&](const Pending& p) {
                                   return p.index == expected.second;
                                 });
    ASSERT_NE(it, pending.end());
    *it = pending.back();
    pending.pop_back();
  };

  // Phase 1: a pre-pop burst with negative times and both zeros.
  for (int i = 0; i < 3000; ++i, ++ops) schedule(pick_time());
  // ...fired mostly in order, so the negative and zero-time ties all fire.
  for (int i = 0; i < 2000; ++i, ++ops) {
    fire_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Phase 2: random churn.  Cancel bursts let dead entries outnumber live
  // ones 2:1, which triggers compaction.
  while (ops < 120000) {
    const std::uint64_t roll = rng.uniformInt(100);
    if (roll < 45 || pending.empty()) {
      schedule(pick_time());
    } else if (roll < 70) {
      cancel_random();
    } else if (roll < 72) {
      const std::size_t burst = pending.size() * 3 / 4;
      for (std::size_t i = 0; i < burst; ++i) cancel_random();
    } else {
      fire_one();
    }
    ++ops;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain.
  while (!reference.empty()) {
    fire_one();
    ++ops;
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GE(ops, 100000u);
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(zero_time_fires, 1u);
}

TEST(EventQueueOrderTest, SignedZeroTiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.0, [&] { order.push_back(0); });
  q.schedule(-0.0, [&] { order.push_back(1); });
  q.schedule(-1.0, [&] { order.push_back(2); });
  q.schedule(0.0, [&] { order.push_back(3); });
  q.schedule(-0.0, [&] { order.push_back(4); });
  q.schedule(-std::numeric_limits<double>::denorm_min(),
             [&] { order.push_back(5); });
  q.schedule(std::numeric_limits<double>::denorm_min(),
             [&] { order.push_back(6); });
  EXPECT_DOUBLE_EQ(q.nextTime(), -1.0);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 0, 1, 3, 4, 6}));
}

}  // namespace
}  // namespace rmrn::sim
