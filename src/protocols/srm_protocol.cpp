#include "protocols/srm_protocol.hpp"

#include <algorithm>
#include <stdexcept>

namespace rmrn::protocols {

SrmProtocol::SrmProtocol(sim::SimNetwork& network,
                         metrics::RecoveryMetrics& metrics,
                         const ProtocolConfig& config,
                         const SrmConfig& srm_config, util::Rng rng)
    : RecoveryProtocol(network, metrics, config), srm_(srm_config), rng_(rng) {
  if (srm_.c1 < 0.0 || srm_.c2 <= 0.0 || srm_.d1 < 0.0 || srm_.d2 <= 0.0 ||
      srm_.hold_factor < 0.0) {
    throw std::invalid_argument("SrmProtocol: bad SRM config");
  }
}

void SrmProtocol::onLossDetected(net::NodeId client, std::uint64_t seq) {
  coverSequence(seq);
  // A duplicate detection must not reset a live want-state's timer/backoff.
  Cell& state = cell(client, seq);
  if (state.wanting) {
    recordDuplicateSessionAttempt();
    return;
  }
  state.wanting = true;
  ++open_wants_;
  armRequestTimer(client, seq);
}

void SrmProtocol::armRequestTimer(net::NodeId client, std::uint64_t seq) {
  Cell& state = cell(client, seq);
  if (state.request_timer != 0) simulator().cancel(state.request_timer);

  const double d = routing().distance(client, source());
  const double scale =
      static_cast<double>(1u << std::min(state.backoff, srm_.max_backoff));
  const double delay =
      std::max(config().min_timeout_ms,
               scale * rng_.uniformReal(srm_.c1, srm_.c1 + srm_.c2) * d);

  state.request_timer = scheduleTimerAfter(delay, kTimerRequest, client, seq);
}

void SrmProtocol::closeWant(Cell& state) {
  if (state.request_timer != 0) simulator().cancel(state.request_timer);
  state.request_timer = 0;
  state.backoff = 0;
  state.wanting = false;
  --open_wants_;
}

void SrmProtocol::onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  switch (kind) {
    case kTimerRequest:
      fireRequestTimer(static_cast<net::NodeId>(a), b);
      return;
    case kTimerRepair:
      fireRepairTimer(static_cast<net::NodeId>(a), b);
      return;
    default:
      RecoveryProtocol::onTimer(kind, a, b, c);  // throws
  }
}

void SrmProtocol::fireRequestTimer(net::NodeId client, std::uint64_t seq) {
  Cell& state = cell(client, seq);
  if (!state.wanting) return;  // recovered meanwhile
  state.request_timer = 0;
  ++requests_multicast_;
  // Re-multicasts (backoff already raised) count as retries; SRM's
  // requests are group-wide, so RTT samples are attributed to the source
  // as a group-level estimate and any repair origin matches.
  const bool repeat = state.backoff > 0;
  if (repeat) recoveryMetrics().recordRetry();
  network().multicastGroup(client,
                           sim::Packet{sim::Packet::Type::kRequest, seq,
                                       client, client, nextRequestTag()});
  noteRequestSent(client, seq, source(), /*retransmit=*/repeat,
                  /*any_origin=*/true);
  // Re-arm with backoff in case the request or every repair is lost.
  state.backoff = std::min(state.backoff + 1, srm_.max_backoff);
  armRequestTimer(client, seq);
}

void SrmProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  if (at == packet.origin) return;  // own flooded request looped around
  // Chaos dedup: each flooded request attempt is processed once per member —
  // a link-duplicated copy must neither double-bump a loser's backoff nor
  // re-trigger a holder's repair timer.
  if (!shouldServeRequest(at, packet)) return;

  Cell& state = cell(at, packet.seq);
  if (hasPacket(at, packet.seq)) {
    // Holder: schedule a repair unless one is pending or recently seen.
    if (simulator().now() < state.hold_until) return;
    if (state.repair_timer != 0) return;  // repair timer already runs

    const double d = routing().distance(at, packet.requester);
    const double delay =
        std::max(config().min_timeout_ms,
                 rng_.uniformReal(srm_.d1, srm_.d1 + srm_.d2) * d);
    state.repair_timer =
        scheduleTimerAfter(delay, kTimerRepair, at, packet.seq);
  } else if (state.wanting && state.request_timer != 0) {
    // Fellow loser: suppress own request via exponential backoff.
    state.backoff = std::min(state.backoff + 1, srm_.max_backoff);
    armRequestTimer(at, packet.seq);
  }
}

void SrmProtocol::fireRepairTimer(net::NodeId at, std::uint64_t seq) {
  Cell& state = cell(at, seq);
  if (state.repair_timer == 0) return;
  state.repair_timer = 0;
  if (simulator().now() < state.hold_until) return;
  ++repairs_multicast_;
  network().multicastGroup(at,
                           sim::Packet{sim::Packet::Type::kRepair, seq, at,
                                       net::kInvalidNode, /*tag=*/0});
  state.hold_until =
      simulator().now() + srm_.hold_factor * routing().distance(at, source());
}

void SrmProtocol::onRepair(net::NodeId at, const sim::Packet& packet) {
  // Suppress a pending repair of our own and hold further ones.
  Cell& state = cell(at, packet.seq);
  if (state.repair_timer != 0) {
    simulator().cancel(state.repair_timer);
    state.repair_timer = 0;
  }
  state.hold_until =
      simulator().now() + srm_.hold_factor * routing().distance(at, source());
}

void SrmProtocol::onPacketObtained(net::NodeId client, std::uint64_t seq) {
  Cell& state = cell(client, seq);
  if (state.wanting) closeWant(state);
}

void SrmProtocol::onSessionAbandoned(net::NodeId client, std::uint64_t seq) {
  // Only the loser role is a session; holder-side suppression state keeps
  // serving other members.
  Cell& state = cell(client, seq);
  if (state.wanting) closeWant(state);
}

void SrmProtocol::onClientCrashed(net::NodeId client) {
  // Silence both roles of the crashed member: its pending requests and any
  // repair it was about to multicast.
  const std::uint32_t row = agentRow(client);
  if (row == kNoRow) return;
  for (Cell& state : cells_.row(row)) {
    if (state.wanting) closeWant(state);
    if (state.repair_timer != 0) {
      simulator().cancel(state.repair_timer);
      state.repair_timer = 0;
    }
  }
}

}  // namespace rmrn::protocols
