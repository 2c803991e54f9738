#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace rmrn::sim {

std::uint32_t EventQueue::acquireSlotSlow() {
  if (slots_.size() >= kMaxSlots) {
    throw std::length_error("EventQueue: more than 2^20 pending events");
  }
  // rmrn-lint: allow(HOT-1) slab warm-up: grows once per high-water mark, then slots recycle (alloc_tests)
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

// rmrn-lint: allow(HOT-1) compat closure lane; the typed lane (scheduleEvent) is the allocation-free hot path
EventId EventQueue::schedule(TimeMs at, std::function<void()> action) {
  if (!std::isfinite(at)) {
    throw std::invalid_argument("EventQueue: non-finite event time");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue: empty action");
  }
  const std::uint32_t slot = acquireSlot();
  std::uint32_t closure;
  if (!free_closures_.empty()) {
    closure = free_closures_.back();
    free_closures_.pop_back();
    closures_[closure] = std::move(action);
  } else {
    closure = static_cast<std::uint32_t>(closures_.size());
    // rmrn-lint: allow(HOT-1) closure-shell arena warm-up; shells recycle via free_closures_
    closures_.push_back(std::move(action));
  }
  Slot& s = slots_[slot];
  s.kind = EventKind::kClosure;
  s.sink = nullptr;
  s.data.closure = closure;
  return push(at, slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  freeSlot(slot);  // the heap entry goes stale and is skipped/compacted
  --live_;
  ++dead_in_heap_;
  maybeCompact();
  return true;
}

void EventQueue::siftDown(std::size_t i) const {
  HeapEntry* const heap = heap_.data();
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap[i];
  const OrderKey key = entry.order();
  for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
    const std::size_t best = minChild(heap, n, first);
    if (heap[best].order() >= key) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = entry;
}

void EventQueue::maybeCompact() {
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ <= 2 * live_) return;
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (!entryDead(entry)) heap_[kept++] = entry;
  }
  // rmrn-lint: allow(HOT-1) shrinking resize: kept <= size(), so capacity is retained, never reallocated
  heap_.resize(kept);
  dead_in_heap_ = 0;
  // Floyd heap construction over the surviving entries.  The start index
  // covers every parent and is zero on an empty heap (all entries dead),
  // so siftDown is never asked to read a nonexistent root.
  for (std::size_t i = (heap_.size() + 3) / 4; i-- > 0;) siftDown(i);
}

TimeMs EventQueue::nextTime() const {
  if (empty()) throw std::logic_error("EventQueue::nextTime on empty");
  skipDead();
  return heap_[0].timeMs();
}

EventQueue::Fired EventQueue::pop() {
  if (empty()) throw std::logic_error("EventQueue::pop on empty");
  skipDead();
  const HeapEntry top = heap_[0];
  popRoot();
  const std::uint32_t slot = top.slot();
  Slot& s = slots_[slot];
  Fired fired;
  fired.time = top.timeMs();
  fired.id = makeId(slot, s.gen);
  fired.record.kind = s.kind;
  fired.record.data = s.data;
  fired.sink = s.sink;
  if (s.kind == EventKind::kClosure) {
    fired.action = std::move(closures_[s.data.closure]);
  }
  freeSlot(slot);
  --live_;
  RMRN_ENSURE(fired.time >= last_fired_,
              "event queue popped an event earlier than the previous one");
  last_fired_ = fired.time;
  return fired;
}

TimeMs EventQueue::popAndFire() {
  TimeMs fired;
  if (!fireNext(std::numeric_limits<TimeMs>::infinity(), &fired)) {
    throw std::logic_error("EventQueue::popAndFire on empty");
  }
  return fired;
}

}  // namespace rmrn::sim
