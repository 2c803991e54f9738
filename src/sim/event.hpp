// Typed, POD-sized event records for the data-plane engine.
//
// The simulator's hot path — link traversals, tree floods, agent deliveries
// and protocol timers — used to be type-erased `std::function` closures, each
// costing a heap allocation per scheduled event.  These records replace them:
// every event the data plane schedules is one of five small trivially
// copyable payloads stored inline in the EventQueue's slab (event_queue.hpp),
// dispatched through a single `EventSink` virtual call on fire.  A fallback
// closure lane remains for cold-path callers (harness drivers, fault
// injection, tests), so `std::function` scheduling keeps working unchanged.
#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

/// Simulated time in milliseconds.
using TimeMs = double;

/// Generation-counted event handle: (generation << 32) | slab slot.  Zero is
/// never a valid handle (generations start at 1), so value-initialized ids in
/// protocol session structs stay inert.
using EventId = std::uint64_t;

enum class EventKind : std::uint8_t {
  kClosure,     // fallback lane: type-erased std::function<void()>
  kDeliver,     // hand `packet` to the agent at `at`
  kForwardHop,  // a unicast packet finished traversing one routed link
  kFloodStep,   // a tree flood crossed one link and continues from `next`
  kTimer,       // protocol timer (loss detection, retries, suppression, ...)
  kArrival,     // next agent arrival of a flood resolved at send time
};

/// Packet arrival at an agent.  `direct` skips the fault triage (used by the
/// kSlowed re-delivery, which re-checks only the crash state on fire).
struct DeliverEvent {
  net::NodeId at;
  bool direct;
  Packet packet;
};

/// A unicast packet arrived at hop `hop + 1` of path-arena entry `path`
/// (SimNetwork owns the arena; the slot is released when the chain ends).
struct ForwardHopEvent {
  std::uint32_t path;
  std::uint32_t hop;
  Packet packet;
};

/// Sentinel pattern-arena id: flood draws random per-link losses.
inline constexpr std::uint32_t kNoPattern = 0xffffffffu;

/// A flooded packet crossed the tree link into `next` and keeps flooding
/// away from `came_from`.  `pattern` references SimNetwork's loss-pattern
/// arena (kNoPattern = sample Bernoulli losses).
struct FloodStepEvent {
  net::NodeId next;
  net::NodeId came_from;
  net::NodeId boundary;  // kInvalidNode = none
  std::uint32_t pattern;
  bool down_only;
  Packet packet;
};

/// Cursor of a flood resolved at send time: `flood` indexes SimNetwork's
/// flood pool, whose arrival list holds the agent arrivals in firing order.
/// One cursor is pending per flood; each firing delivers the next arrival
/// and re-arms for the one after it.
struct ArrivalEvent {
  std::uint32_t flood;
};

/// Protocol timer: an opaque kind tag plus three payload words, dispatched
/// back to the scheduling protocol (see RecoveryProtocol::onTimer).
struct TimerEvent {
  std::uint32_t kind;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
};

/// Tagged payload union.  All members are trivially copyable, so slab slots
/// can be reused without destructor bookkeeping; closures live in a separate
/// properly-managed slab and are referenced here by index.
union EventData {
  DeliverEvent deliver;
  ForwardHopEvent forward;
  FloodStepEvent flood;
  ArrivalEvent arrival;
  TimerEvent timer;
  std::uint32_t closure;  // index into EventQueue's closure slab

  EventData() : closure(0) {}
};

struct EventRecord {
  EventKind kind = EventKind::kClosure;
  EventData data;
};

/// Receiver of typed events.  SimNetwork implements it for the packet kinds,
/// RecoveryProtocol for timers.  The sink outlives every event it scheduled
/// (both are torn down with the Simulator at end of run).
class EventSink {
 public:
  virtual void onEvent(const EventRecord& event) = 0;

 protected:
  ~EventSink() = default;
};

}  // namespace rmrn::sim
