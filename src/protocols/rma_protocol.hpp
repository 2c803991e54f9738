// RMA — Reliable Multicast Architecture (Levine & Garcia-Luna-Aceves,
// ICNP 1997), reconstructed as the paper describes it (§1):
//
//   "each receiver that lost some packet attempts to achieve the shortest
//    delay from the nearest upstream receiver that has received the packet.
//    Once the request approaches an upstream receiver that has the packet,
//    this receiver will multicast the repair to the subtree that contains
//    all the receivers that have been requested. ... This scheme is not
//    efficient in that one-by-one searching is just best-effort, not
//    strategic."
//
// The nearest-upstream search order is one receiver per competitive class
// of u in descending DS (geographically nearest level first) — exactly RP's
// candidates, but RMA ALWAYS walks them one by one with a timeout per step
// instead of choosing a strategic subset.  The source is the final
// fallback (retried until success).  A receiver holding the packet
// multicasts the repair into the subtree rooted at its first common router
// with the requester, which covers every receiver visited so far (under
// tree-correlated loss they all lost the packet).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/candidates.hpp"
#include "protocols/protocol.hpp"

namespace rmrn::protocols {

class RmaProtocol final : public RecoveryProtocol {
 public:
  RmaProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
              const ProtocolConfig& config);

  /// Upstream search order for a client (nearest level first); exposed for
  /// tests.
  [[nodiscard]] const std::vector<core::Candidate>& searchOrder(
      net::NodeId client) const;

  /// Recovery sessions opened (one per detected loss).
  [[nodiscard]] std::uint64_t searchesStarted() const {
    return searches_started_;
  }
  /// Total REQUEST packets issued (every level visited + source retries).
  [[nodiscard]] std::uint64_t requestsSent() const { return requests_sent_; }
  /// Subtree repair multicasts issued.
  [[nodiscard]] std::uint64_t repairsMulticast() const {
    return repairs_multicast_;
  }

 private:
  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onRequest(net::NodeId at, const sim::Packet& packet) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override;
  void onClientCrashed(net::NodeId client) override;
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override;
  [[nodiscard]] std::size_t openSessions() const override {
    return open_searches_;
  }
  void growSeqTables(std::size_t rows, std::size_t columns) override {
    searches_.grow(rows, columns);
  }
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

  /// Per-step search timeout: a = client, b = seq, c = target.
  static constexpr std::uint32_t kTimerSearch = kTimerSubclass;

  /// Requests the next upstream level (or the source, where retries stay)
  /// and arms the per-step timeout.
  void advanceSearch(net::NodeId client, std::uint64_t seq);

  /// One (client, seq) upstream search.  A timer handle of 0 means "not
  /// armed" (EventQueue never issues id 0).
  struct Search {
    sim::EventId timer = 0;
    std::uint32_t next_level = 0;  // into the search order; beyond -> source
    std::uint32_t attempts = 0;         // requests issued by this search
    std::uint32_t source_attempts = 0;  // of which addressed to the source
    bool open = false;
  };
  [[nodiscard]] Search& search(net::NodeId client, std::uint64_t seq) {
    return searches_.at(agentRow(client), seq);
  }
  /// Closes the search, cancelling its timer.
  void closeSearch(Search& closing);

  std::unordered_map<net::NodeId, std::vector<core::Candidate>> order_;
  util::SeqTable<Search> searches_;
  std::size_t open_searches_ = 0;
  std::uint64_t searches_started_ = 0;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t repairs_multicast_ = 0;
};

}  // namespace rmrn::protocols
