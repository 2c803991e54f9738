// Cancellable discrete-event queue: slab-backed typed events plus a
// type-erased fallback lane.
//
// Events are (time, insertion-sequence) ordered; ties in time resolve in
// insertion order so runs are fully deterministic.  Storage is a slab of
// POD-sized slots recycled through a free list; handles carry a generation
// counter so cancel() is O(1), can never revoke a slot's later tenant, and
// frees the payload immediately (no dead-entry accumulation — the protocols'
// cancel-heavy timer pattern reuses a bounded working set of slots).  The
// ordering index is a flat 4-ary heap of 16-byte keys; entries whose slot was
// cancelled are skipped lazily on pop and compacted away wholesale when they
// outnumber live entries 2:1, so the heap footprint stays proportional to
// the live event count.
//
// Typed events (sim/event.hpp) are stored inline — scheduling one performs
// no heap allocation at steady state.  `std::function` callers use the
// closure lane, which stores the function in a separate recycled slab.
//
// Heap keys are 16 bytes: an order-preserving 64-bit image of the event
// time plus a single word packing (insertion seq << 20) | slot.  Read as one
// 128-bit unsigned integer (time image high, packed word low), a key orders
// exactly by (time, insertion seq), so every heap comparison is one
// branch-free wide compare and two keys fit per cache line — sift traffic
// dominates the engine's cost (DESIGN.md §10.1).  The packed widths bound the
// queue at 2^20 simultaneously-pending events and 2^44 total scheduled events
// per queue — both enforced, both far past anything a simulation here
// reaches.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/check.hpp"

namespace rmrn::sim {

class EventQueue {
 public:
  /// Closure lane: schedules `action` at absolute time `at`.  Returns a
  /// handle usable with cancel().  Throws std::invalid_argument for
  /// non-finite times or an empty action.
  // rmrn-lint: allow(HOT-1) compat closure lane; the typed lane (scheduleEvent) is the allocation-free hot path
  EventId schedule(TimeMs at, std::function<void()> action);

  /// Typed lane: schedules `record` for dispatch to `sink->onEvent()`.
  /// Allocation-free once the slab and heap have warmed up.
  EventId scheduleEvent(TimeMs at, EventSink* sink, const EventRecord& record);

  /// Cancels a pending event.  Returns true if the event was pending (not
  /// yet fired and not already cancelled).  A stale handle — one whose slot
  /// has been recycled for a newer event — never cancels that newer event.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Time of the next live event.  Requires !empty().
  [[nodiscard]] TimeMs nextTime() const;

  /// Pops and returns the next live event.  Requires !empty().
  struct Fired {
    TimeMs time = 0.0;
    EventId id = 0;
    EventRecord record;
    EventSink* sink = nullptr;
    // rmrn-lint: allow(HOT-1) compat closure lane; empty (no allocation) for typed-lane events
    std::function<void()> action;  // closure lane only

    /// Runs the event: invokes the closure or dispatches to the sink.
    void fire() {
      if (record.kind == EventKind::kClosure) {
        action();
      } else {
        sink->onEvent(record);
      }
    }
  };
  Fired pop();

  /// Pops and runs the next live event in one step, returning its time.
  /// Equivalent to pop().fire() without marshalling a Fired.
  /// Requires !empty().
  TimeMs popAndFire();

  /// Fires the next live event if there is one and it is due at or before
  /// `until`: stores its time in *clock (before running the handler, so
  /// handlers observe the advanced clock) and returns true.  Returns false —
  /// leaving *clock untouched — when the queue is empty or the next event is
  /// later than `until`.  The hot path for Simulator::run(): one dead-entry
  /// sweep and one root read serve the bound check, clock advance, and fire.
  bool fireNext(TimeMs until, TimeMs* clock);

  /// Live (scheduled, not cancelled, not fired) event count.
  [[nodiscard]] std::size_t pendingCount() const { return live_; }

  /// Heap index entries, including lazily-skipped cancelled ones.  Bounded
  /// at ~3x pendingCount() by compaction; exposed so tests can assert that.
  [[nodiscard]] std::size_t heapSize() const { return heap_.size(); }

  /// Time of the most recently popped event; -infinity before the first
  /// pop.  Simulation time never runs backwards: pop() enforces
  /// fired.time >= lastFiredTime(), and schedule() rejects events in the
  /// past (both via the RMRN contract layer).
  [[nodiscard]] TimeMs lastFiredTime() const { return last_fired_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Compaction floor: below this many dead entries the heap is left alone
  /// (rebuilding tiny heaps buys nothing).
  static constexpr std::size_t kCompactMinDead = 64;
  /// Packed-key widths: low 20 bits slot, high 44 bits insertion seq.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  /// Tenant seq of a free slot; never equals a real (bounded) seq.
  static constexpr std::uint64_t kNoSeq = ~0ull;

  struct Slot {
    std::uint64_t seq = kNoSeq;  // current tenant's insertion seq
    std::uint32_t gen = 1;       // bumped on free; 0 is never a live gen
    std::uint32_t next_free = kNil;
    EventKind kind = EventKind::kClosure;
    EventSink* sink = nullptr;
    EventData data;
  };
  /// 128-bit heap order key; `__extension__` keeps -Wpedantic quiet about
  /// the GCC/Clang builtin type.
  __extension__ using OrderKey = unsigned __int128;
  static constexpr std::uint64_t kSignBit = 1ull << 63;

  /// Order-preserving image of a finite time: flip the sign bit of a
  /// non-negative time, every bit of a negative one, so unsigned image order
  /// is numeric time order.  -0.0 is first canonicalised to +0.0 (IEEE:
  /// -0.0 + 0.0 == +0.0), keeping the two zeros an exact tie that falls back
  /// to insertion order, as a floating-point compare would.
  [[nodiscard]] static std::uint64_t timeImage(TimeMs time) {
    const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);
    const auto negative = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(bits) >> 63);  // all ones when negative
    return bits ^ (negative | kSignBit);
  }
  /// Inverse of timeImage() (up to the -0.0 canonicalisation).
  [[nodiscard]] static TimeMs imageTime(std::uint64_t image) {
    // Top bit set: the time was non-negative, only its sign bit flipped.
    const std::uint64_t mask = ((image >> 63) - 1) | kSignBit;
    return std::bit_cast<TimeMs>(image ^ mask);
  }

  /// 4-ary heap entry.  Slots never repeat within the pending set and seqs
  /// never repeat at all, so keys are unique and key order is (time, seq).
  struct HeapEntry {
    std::uint64_t time_image;  // timeImage(time)
    std::uint64_t key;         // (seq << kSlotBits) | slot

    [[nodiscard]] OrderKey order() const {
      return (static_cast<OrderKey>(time_image) << 64) | key;
    }
    [[nodiscard]] TimeMs timeMs() const { return imageTime(time_image); }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
    [[nodiscard]] std::uint64_t seq() const { return key >> kSlotBits; }
  };

  [[nodiscard]] static EventId makeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // The slab and heap primitives live in the header so the schedule/fire hot
  // path inlines into callers; per-event call overhead is measurable at the
  // engine's event rates.

  [[nodiscard]] std::uint32_t acquireSlot() {
    if (free_slots_ != kNil) {
      const std::uint32_t slot = free_slots_;
      free_slots_ = slots_[slot].next_free;
      slots_[slot].next_free = kNil;
      return slot;
    }
    return acquireSlotSlow();
  }
  [[nodiscard]] std::uint32_t acquireSlotSlow();
  void freeSlot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (s.kind == EventKind::kClosure) {
      // Release the captured state now; the std::function shell is recycled.
      closures_[s.data.closure] = nullptr;
      // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
      free_closures_.push_back(s.data.closure);
    }
    s.sink = nullptr;
    s.seq = kNoSeq;  // marks the slot's heap entry dead
    ++s.gen;         // invalidates every outstanding handle to this slot
    s.next_free = free_slots_;
    free_slots_ = slot;
  }
  EventId push(TimeMs at, std::uint32_t slot) {
    if (!std::isfinite(at)) {
      freeSlot(slot);
      throw std::invalid_argument("EventQueue: non-finite event time");
    }
    RMRN_REQUIRE(at >= last_fired_,
                 "event scheduled in the simulated past (time monotonicity)");
    if (next_seq_ >= kMaxSeq) {
      freeSlot(slot);
      throw std::length_error("EventQueue: insertion sequence exhausted");
    }
    const std::uint64_t seq = next_seq_++;
    slots_[slot].seq = seq;
    // rmrn-lint: allow(HOT-1) heap grows to the pending-event high-water mark, then reuses capacity (alloc_tests)
    heap_.push_back(HeapEntry{timeImage(at), (seq << kSlotBits) | slot});
    siftUp(heap_.size() - 1);
    ++live_;
    return makeId(slot, slots_[slot].gen);
  }

  void siftUp(std::size_t i) const {
    const HeapEntry entry = heap_[i];
    const OrderKey key = entry.order();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (key >= heap_[parent].order()) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }
  /// Index of the minimum child among heap[first, min(first + 4, n)),
  /// with first < n.
  [[nodiscard]] static std::size_t minChild(const HeapEntry* heap,
                                            std::size_t n, std::size_t first);
  /// Top-down sift (heap construction in maybeCompact()).
  void siftDown(std::size_t i) const;
  void popRoot() const;
  [[nodiscard]] bool entryDead(const HeapEntry& e) const {
    return slots_[e.slot()].seq != e.seq();
  }
  /// Drops cancelled entries off the heap top so the root is live.
  void skipDead() const {
    while (!heap_.empty() && entryDead(heap_[0])) {
      popRoot();
      --dead_in_heap_;
    }
  }
  /// Rebuilds the heap without dead entries once they outnumber live 2:1.
  void maybeCompact();

  std::vector<Slot> slots_;
  std::uint32_t free_slots_ = kNil;  // intrusive free list through next_free
  // The heap is an ordering index only; lazily dropping dead entries from
  // the top mutates no observable state, hence mutable for const queries.
  mutable std::vector<HeapEntry> heap_;
  mutable std::size_t dead_in_heap_ = 0;
  // rmrn-lint: allow(HOT-1) compat closure lane shells, recycled via free_closures_
  std::vector<std::function<void()>> closures_;
  std::vector<std::uint32_t> free_closures_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  TimeMs last_fired_ = -std::numeric_limits<TimeMs>::infinity();
};

// Inline hot path: scheduling, the sift, and the pop-fire step.  These run
// once per simulated event, so keeping them visible to callers (for inlining)
// is worth the header weight; cold and rare paths stay in event_queue.cpp.

inline std::size_t EventQueue::minChild(const HeapEntry* heap, std::size_t n,
                                        std::size_t first) {
  std::size_t best = first;
  OrderKey best_key = heap[first].order();
  if (first + 4 <= n) {
    // Full node: a two-round tournament of selects, no data-dependent
    // branches (the compiler lowers each ternary to conditional moves).
    const OrderKey k1 = heap[first + 1].order();
    const OrderKey k2 = heap[first + 2].order();
    const OrderKey k3 = heap[first + 3].order();
    const bool right01 = k1 < best_key;
    best_key = right01 ? k1 : best_key;
    const bool right23 = k3 < k2;
    const OrderKey min23 = right23 ? k3 : k2;
    const bool right = min23 < best_key;
    best_key = right ? min23 : best_key;
    best = right ? first + 2 + static_cast<std::size_t>(right23)
                 : first + static_cast<std::size_t>(right01);
  } else {
    for (std::size_t c = first + 1; c < n; ++c) {
      const OrderKey key = heap[c].order();
      const bool lower = key < best_key;
      best_key = lower ? key : best_key;
      best = lower ? c : best;
    }
  }
  return best;
}

inline void EventQueue::popRoot() const {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  // Bottom-up removal: the hole at the root descends along minimum children
  // to a leaf without comparing against `last`, which then sifts up from
  // there.  The former last entry nearly always belongs near the bottom, so
  // this saves the per-level compare of a top-down sift.
  HeapEntry* const heap = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t first = 1; first < n; first = 4 * hole + 1) {
    const std::size_t best = minChild(heap, n, first);
    heap[hole] = heap[best];
    hole = best;
  }
  heap[hole] = last;
  siftUp(hole);
}

inline EventId EventQueue::scheduleEvent(TimeMs at, EventSink* sink,
                                         const EventRecord& record) {
  if (sink == nullptr || record.kind == EventKind::kClosure) {
    throw std::invalid_argument("EventQueue: typed event needs a sink");
  }
  const std::uint32_t slot = acquireSlot();
  Slot& s = slots_[slot];
  s.kind = record.kind;
  s.sink = sink;
  s.data = record.data;
  return push(at, slot);
}

inline bool EventQueue::fireNext(TimeMs until, TimeMs* clock) {
  if (empty()) return false;
  skipDead();
  const HeapEntry top = heap_[0];
  const TimeMs time = top.timeMs();
  if (time > until) return false;
  popRoot();
  const std::uint32_t slot = top.slot();
  Slot& s = slots_[slot];
  RMRN_ENSURE(time >= last_fired_,
              "event queue popped an event earlier than the previous one");
  last_fired_ = time;
  --live_;
  // The clock advances before the handler runs: handlers schedule relative
  // to the owning simulator's now().
  *clock = time;
  if (s.kind == EventKind::kClosure) {
    auto action = std::move(closures_[s.data.closure]);
    freeSlot(slot);
    action();
  } else {
    // Copy out before freeing: the handler may schedule, growing slots_.
    EventSink* const sink = s.sink;
    const EventRecord record{s.kind, s.data};
    freeSlot(slot);
    sink->onEvent(record);
  }
  return true;
}

}  // namespace rmrn::sim
