// Packet-level tracing, in the spirit of ns-2 trace files.
//
// SimNetwork emits one TraceEvent per hop transmission, per-link drop and
// agent delivery when a sink is installed (zero overhead otherwise).  Each
// record carries its own simulated time.  A network that resolves sends at
// send time (sim/network.hpp) emits a packet's hop records when it is sent,
// so records arrive in emission order, not time order.
// TraceRecorder collects events, answers simple queries and dumps an
// ns-2-style ASCII trace ("+" send, "d" drop, "r" receive) in time order.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "net/types.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kHopSend,  // packet put on the link from -> to
    kHopDrop,  // the link dropped it
    kDeliver,  // an agent (client/source) received it
  };

  double time_ms = 0.0;
  Kind kind = Kind::kHopSend;
  net::NodeId from = net::kInvalidNode;  // kInvalidNode for deliveries
  net::NodeId to = net::kInvalidNode;    // the receiving node/agent
  Packet packet;
};

[[nodiscard]] constexpr char toChar(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kHopSend:
      return '+';
    case TraceEvent::Kind::kHopDrop:
      return 'd';
    case TraceEvent::Kind::kDeliver:
      return 'r';
  }
  return '?';
}

using TraceSink = std::function<void(const TraceEvent&)>;

class TraceRecorder {
 public:
  /// Sink to install on a SimNetwork; holds a reference to this recorder.
  [[nodiscard]] TraceSink sink();

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  [[nodiscard]] std::size_t count(TraceEvent::Kind kind) const;
  [[nodiscard]] std::size_t countType(Packet::Type type) const;

  /// Events concerning one data sequence number, in emission order.
  [[nodiscard]] std::vector<TraceEvent> forSequence(std::uint64_t seq) const;

  /// ns-2-style dump: "<+|d|r> <time> <from> <to> <type> <seq>", one line
  /// per record, stably sorted by time (emission order within an instant).
  void dump(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace rmrn::sim
