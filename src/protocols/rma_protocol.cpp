#include "protocols/rma_protocol.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace rmrn::protocols {

// rmrn-lint: init-phase
RmaProtocol::RmaProtocol(sim::SimNetwork& network,
                         metrics::RecoveryMetrics& metrics,
                         const ProtocolConfig& config)
    : RecoveryProtocol(network, metrics, config) {
  // Precompute each client's nearest-upstream search order: one receiver
  // per competitive class, descending DS = nearest level first.
  for (const net::NodeId u : topology().clients) {
    order_.emplace(u, core::selectCandidates(u, topology().tree, routing(),
                                             topology().clients));
  }
}

const std::vector<core::Candidate>& RmaProtocol::searchOrder(
    net::NodeId client) const {
  const auto it = order_.find(client);
  if (it == order_.end()) {
    throw std::out_of_range("RmaProtocol: unknown client");
  }
  return it->second;
}

void RmaProtocol::onLossDetected(net::NodeId client, std::uint64_t seq) {
  coverSequence(seq);
  // Same hazard as RP: a duplicate detection must not restart a live search
  // and orphan its armed timer.
  Search& fresh = search(client, seq);
  if (fresh.open) {
    recordDuplicateSessionAttempt();
    return;
  }
  fresh.open = true;
  ++open_searches_;
  ++searches_started_;
  advanceSearch(client, seq);
}

void RmaProtocol::closeSearch(Search& closing) {
  if (closing.timer != 0) simulator().cancel(closing.timer);
  closing = Search{};
  --open_searches_;
}

void RmaProtocol::advanceSearch(net::NodeId client, std::uint64_t seq) {
  Search& current = search(client, seq);
  const auto& order = order_.at(client);

  // Skip upstream levels the health tracker has written off.
  while (current.next_level < order.size() &&
         peerBlacklisted(client, order[current.next_level].peer)) {
    ++current.next_level;
  }

  if (adaptiveTimeouts() && current.attempts >= config().health.retry_budget) {
    // Give up: explicit abandon under the watchdog, residual otherwise.
    closeSearch(current);
    if (watchdogEnabled()) abandonSession(client, seq);
    return;
  }

  const bool at_source = current.next_level >= order.size();
  const net::NodeId target =
      at_source ? source() : order[current.next_level].peer;
  if (!at_source) ++current.next_level;  // retries stay at the source

  const bool retransmit = at_source && current.source_attempts > 0;
  if (at_source) {
    if (current.source_attempts == 0) {
      recoveryMetrics().recordSourceFallback(client);
    }
    ++current.source_attempts;
  }
  // Only same-target re-sends count as retries (the one-by-one search walk
  // issues fresh requests); see the matching comment in RpProtocol.
  if (retransmit) recoveryMetrics().recordRetry();
  ++current.attempts;

  ++requests_sent_;
  network().unicast(client, target,
                    sim::Packet{sim::Packet::Type::kRequest, seq, client,
                                client, nextRequestTag()});
  // RMA repairs are subtree multicasts whose origin is the repairer, which
  // may differ from the unicast target we probed; accept any origin so
  // flooded repairs still feed the estimator.
  noteRequestSent(client, seq, target, retransmit, /*any_origin=*/true);

  current.timer = scheduleTimerAfter(requestTimeout(client, target),
                                     kTimerSearch, client, seq, target);
}

void RmaProtocol::onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  if (kind != kTimerSearch) {
    RecoveryProtocol::onTimer(kind, a, b, c);  // throws
    return;
  }
  const auto client = static_cast<net::NodeId>(a);
  const std::uint64_t seq = b;
  const auto target = static_cast<net::NodeId>(c);
  Search& expired = search(client, seq);
  if (!expired.open) return;  // recovered meanwhile
  expired.timer = 0;
  noteRequestTimeout(client, target);
  advanceSearch(client, seq);
}

void RmaProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  // Chaos dedup: a duplicated request must not trigger a second subtree
  // repair multicast.
  if (!shouldServeRequest(at, packet)) return;
  if (!hasPacket(at, packet.seq)) return;  // requester's timeout moves on

  // Repair the subtree covering the requester and every receiver the search
  // visited: the subtree rooted at the first common router of repairer and
  // requester (the source repairs the requester's whole source-side branch).
  const auto& tree = topology().tree;
  const net::NodeId client = packet.requester;
  const sim::Packet repair{sim::Packet::Type::kRepair, packet.seq, at, client,
                           /*tag=*/0};
  ++repairs_multicast_;
  if (at == source()) {
    // Same root-walk hazard as RpProtocol::onRequest: only defined for an
    // on-tree, non-source requester.
    const bool walkable = client != source() && tree.contains(client);
    RMRN_REQUIRE(walkable,
                 "subgroup repair needs an on-tree, non-source requester");
    if (!walkable) {
      network().unicast(at, client, repair);
      return;
    }
    net::NodeId branch = client;
    while (tree.parent(branch) != source()) branch = tree.parent(branch);
    network().multicastDownInto(branch, repair);
  } else {
    network().multicastSubtree(tree.firstCommonRouter(at, client), at, repair);
  }
}

void RmaProtocol::onPacketObtained(net::NodeId client, std::uint64_t seq) {
  Search& recovered = search(client, seq);
  if (recovered.open) closeSearch(recovered);
}

void RmaProtocol::onSessionAbandoned(net::NodeId client, std::uint64_t seq) {
  Search& abandoned = search(client, seq);
  if (abandoned.open) closeSearch(abandoned);
}

void RmaProtocol::onClientCrashed(net::NodeId client) {
  const std::uint32_t row = agentRow(client);
  if (row == kNoRow) return;
  for (Search& crashed : searches_.row(row)) {
    if (crashed.open) closeSearch(crashed);
  }
}

}  // namespace rmrn::protocols
