#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace rmrn::sim {

TraceSink TraceRecorder::sink() {
  return [this](const TraceEvent& event) { events_.push_back(event); };
}

std::size_t TraceRecorder::count(TraceEvent::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::size_t TraceRecorder::countType(Packet::Type type) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(),
      [type](const TraceEvent& e) { return e.packet.type == type; }));
}

std::vector<TraceEvent> TraceRecorder::forSequence(std::uint64_t seq) const {
  std::vector<TraceEvent> result;
  std::copy_if(events_.begin(), events_.end(), std::back_inserter(result),
               [seq](const TraceEvent& e) { return e.packet.seq == seq; });
  return result;
}

void TraceRecorder::dump(std::ostream& out) const {
  // A network that resolves sends at send time records each hop when the
  // packet is sent, stamped with the hop's own time, so emission order is
  // not time order.  ns-2 trace readers expect time order; the stable sort
  // keeps emission order among records of one instant.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->time_ms < b->time_ms;
                   });
  for (const TraceEvent* event : ordered) {
    const TraceEvent& e = *event;
    out << toChar(e.kind) << ' ' << std::fixed << std::setprecision(3)
        << e.time_ms << ' ';
    if (e.from == net::kInvalidNode) {
      out << '-';
    } else {
      out << e.from;
    }
    out << ' ' << e.to << ' ' << toString(e.packet.type) << ' '
        << e.packet.seq << '\n';
  }
}

}  // namespace rmrn::sim
