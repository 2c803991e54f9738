#include "protocols/rp_protocol.hpp"

#include "util/check.hpp"

namespace rmrn::protocols {

RpProtocol::RpProtocol(sim::SimNetwork& network,
                       metrics::RecoveryMetrics& metrics,
                       const ProtocolConfig& config,
                       const core::RpPlanner& planner,
                       SourceRecoveryMode source_mode)
    : RecoveryProtocol(network, metrics, config),
      planner_(planner),
      source_mode_(source_mode) {}

const core::Strategy& RpProtocol::activeStrategy(net::NodeId client) const {
  const auto it = failover_.find(client);
  return it != failover_.end() ? it->second : planner_.strategyFor(client);
}

void RpProtocol::onLossDetected(net::NodeId client, std::uint64_t seq) {
  coverSequence(seq);
  // A duplicate detection must not restart a live session: overwriting it
  // would orphan the armed timer, which then fires against the fresh
  // session and double-advances the list (double-counting requests_sent_).
  Session& fresh = session(client, seq);
  if (fresh.open) {
    recordDuplicateSessionAttempt();
    return;
  }
  fresh.open = true;
  ++open_sessions_;
  advanceSession(client, seq);
}

void RpProtocol::closeSession(Session& closing) {
  if (closing.timer != 0) simulator().cancel(closing.timer);
  closing = Session{};
  --open_sessions_;
}

void RpProtocol::advanceSession(net::NodeId client, std::uint64_t seq) {
  Session& current = session(client, seq);
  // Re-fetched every step: a failover replan may swap the list mid-session.
  // Indexes into the new list stay safe — every entry is blacklist-checked
  // before use and the walk still ends at the source.
  const auto& peers = activeStrategy(client).peers;

  // Skip peers the health tracker has written off.
  while (current.next_index < peers.size() &&
         peerBlacklisted(client, peers[current.next_index].peer)) {
    ++current.next_index;
  }

  if (adaptiveTimeouts() && current.attempts >= config().health.retry_budget) {
    // Retry budget exhausted: give up rather than hammer a dead path.  With
    // the watchdog on, the loss is explicitly abandoned so the run still
    // terminates clean; legacy mode leaves it in the residual metric.
    closeSession(current);
    if (watchdogEnabled()) abandonSession(client, seq);
    return;
  }

  // Next target: the prioritized list, then the source (where the session
  // index stays so retries keep hitting the source until a repair lands).
  const bool at_source = current.next_index >= peers.size();
  const net::NodeId target =
      at_source ? source() : peers[current.next_index].peer;
  if (!at_source) ++current.next_index;

  const bool retransmit = at_source && current.source_attempts > 0;
  if (at_source) {
    if (current.source_attempts == 0) {
      recoveryMetrics().recordSourceFallback(client);
    }
    ++current.source_attempts;
  }
  // A retry is a re-send to the SAME target (only the source is ever
  // re-asked); advancing down the peer list issues fresh requests, not
  // retries — that distinction keeps `retries` and `timeouts` decoupled.
  if (retransmit) recoveryMetrics().recordRetry();
  ++current.attempts;

  ++requests_sent_;
  network().unicast(client, target,
                    sim::Packet{sim::Packet::Type::kRequest, seq, client,
                                client, nextRequestTag()});
  noteRequestSent(client, seq, target, retransmit);

  current.timer = scheduleTimerAfter(requestTimeout(client, target),
                                     kTimerRequest, client, seq, target);
}

void RpProtocol::onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  if (kind != kTimerRequest) {
    RecoveryProtocol::onTimer(kind, a, b, c);  // throws
    return;
  }
  const auto client = static_cast<net::NodeId>(a);
  const std::uint64_t seq = b;
  const auto target = static_cast<net::NodeId>(c);
  Session& expired = session(client, seq);
  if (!expired.open) return;  // already recovered
  expired.timer = 0;
  if (noteRequestTimeout(client, target)) adoptFailover(client);
  advanceSession(client, seq);
}

void RpProtocol::adoptFailover(net::NodeId client) {
  failover_[client] =
      planner_.replanExcluding(client, peerHealth().blacklistedTargets(client));
  recoveryMetrics().recordFailover(client);
}

void RpProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  // Chaos dedup: a network-duplicated request must not spawn a second
  // repair (and in subgroup mode, a second branch multicast).
  if (!shouldServeRequest(at, packet)) return;
  if (!hasPacket(at, packet.seq)) return;  // requester's timeout handles it
  const sim::Packet repair{sim::Packet::Type::kRepair, packet.seq, at,
                           packet.requester, /*tag=*/0};
  const auto& tree = topology().tree;
  if (at == source() &&
      source_mode_ == SourceRecoveryMode::kSubgroupMulticast) {
    // Repair the whole branch the request came from (paper ref [4]): the
    // subgroup is the subtree under the source's child that is the
    // requester's depth-1 ancestor.  The root-walk below is only defined
    // for an on-tree, non-source requester — for the source itself or an
    // off-tree node it would walk past the root into undefined territory.
    // A depth-1 requester is its own branch root (zero walk iterations).
    const bool walkable =
        packet.requester != source() && tree.contains(packet.requester);
    RMRN_REQUIRE(walkable,
                 "subgroup repair needs an on-tree, non-source requester");
    if (walkable) {
      net::NodeId branch = packet.requester;
      while (tree.parent(branch) != source()) branch = tree.parent(branch);
      network().multicastDownInto(branch, repair);
      return;
    }
    // Checks compiled out: degrade to a unicast repair instead of the walk.
  }
  network().unicast(at, packet.requester, repair);
}

void RpProtocol::onPacketObtained(net::NodeId client, std::uint64_t seq) {
  Session& recovered = session(client, seq);
  if (recovered.open) closeSession(recovered);
}

void RpProtocol::onSessionAbandoned(net::NodeId client, std::uint64_t seq) {
  Session& abandoned = session(client, seq);
  if (abandoned.open) closeSession(abandoned);
}

void RpProtocol::onClientCrashed(net::NodeId client) {
  const std::uint32_t row = agentRow(client);
  if (row == kNoRow) return;
  for (Session& crashed : sessions_.row(row)) {
    if (crashed.open) closeSession(crashed);
  }
}

}  // namespace rmrn::protocols
