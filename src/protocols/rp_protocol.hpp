// RP — Recovery strategy with Prioritized list (the paper's scheme, §2.2).
//
// Each client u holds the optimal prioritized list L_u = {v_1, ..., v_k}
// computed by core::RpPlanner.  On loss detection u unicasts a REQUEST to
// v_1; a peer holding the packet unicasts a REPAIR back, otherwise u's
// timeout fires and it proceeds to v_2, and so on; after the list is
// exhausted u requests from the source, retrying until success (requests
// and repairs themselves traverse lossy links).
//
// Source recovery supports the two modes of §2.2: plain unicast repair, or
// the subgroup multicast of the paper's ref [4], where the source repairs
// down the whole source-side branch the request came from.
//
// Fault tolerance (DESIGN.md §9): with ProtocolConfig::health enabled,
// request timeouts adapt per peer (Jacobson/Karn), sessions skip
// blacklisted peers, each newly blacklisted peer triggers a failover replan
// (RpPlanner::replanExcluding) adopted for subsequent losses, and a bounded
// retry budget stops a session from hammering a dead path forever.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/planner.hpp"
#include "protocols/protocol.hpp"

namespace rmrn::protocols {

enum class SourceRecoveryMode {
  kUnicast,            // source unicasts the repair to the requester
  kSubgroupMulticast,  // source multicasts into the requester's branch
};

class RpProtocol : public RecoveryProtocol {
 public:
  /// `planner` supplies each client's prioritized list and must outlive the
  /// protocol.
  RpProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
             const ProtocolConfig& config, const core::RpPlanner& planner,
             SourceRecoveryMode source_mode = SourceRecoveryMode::kUnicast);

  [[nodiscard]] SourceRecoveryMode sourceMode() const { return source_mode_; }

  /// Total REQUEST packets issued (first attempts + retries); exposed for
  /// tests and the ablation benches.
  [[nodiscard]] std::uint64_t requestsSent() const { return requests_sent_; }

  /// The strategy new sessions of `client` use: the failover replan once
  /// one was adopted, the planner's original list otherwise.
  [[nodiscard]] const core::Strategy& activeStrategy(net::NodeId client) const;
  /// Whether `client` has failed over to a replanned list.
  [[nodiscard]] bool hasFailedOver(net::NodeId client) const {
    return failover_.contains(client);
  }

 protected:
  // Overridable entry points are protected (not private) so fault-injection
  // tests can drive them directly, e.g. double loss detections.
  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onRequest(net::NodeId at, const sim::Packet& packet) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override;
  void onClientCrashed(net::NodeId client) override;
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override;
  [[nodiscard]] std::size_t openSessions() const override {
    return open_sessions_;
  }
  void growSeqTables(std::size_t rows, std::size_t columns) override {
    sessions_.grow(rows, columns);
  }
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

 private:
  /// Session request timeout: a = client, b = seq, c = target.
  static constexpr std::uint32_t kTimerRequest = kTimerSubclass;

  /// Issues the next request of the session (peer list first, then the
  /// source) and arms the timeout that advances the session on silence.
  void advanceSession(net::NodeId client, std::uint64_t seq);
  /// Replans `client`'s list around its blacklisted peers and adopts the
  /// result for subsequent sessions.
  void adoptFailover(net::NodeId client);

  /// One (client, seq) recovery session.  A timer handle of 0 means "not
  /// armed" (EventQueue never issues id 0).
  struct Session {
    sim::EventId timer = 0;
    std::uint32_t next_index = 0;  // into the peer list; beyond it -> source
    std::uint32_t attempts = 0;         // requests issued by this session
    std::uint32_t source_attempts = 0;  // of which addressed to the source
    bool open = false;
  };
  [[nodiscard]] Session& session(net::NodeId client, std::uint64_t seq) {
    return sessions_.at(agentRow(client), seq);
  }
  /// Closes the session, cancelling its timer.
  void closeSession(Session& closing);

  const core::RpPlanner& planner_;
  SourceRecoveryMode source_mode_;
  util::SeqTable<Session> sessions_;
  std::size_t open_sessions_ = 0;
  /// Adopted failover strategies by client (blacklist-pruned replans).
  std::unordered_map<net::NodeId, core::Strategy> failover_;
  std::uint64_t requests_sent_ = 0;
};

}  // namespace rmrn::protocols
