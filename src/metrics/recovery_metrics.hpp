// Recovery bookkeeping producing the paper's two headline metrics:
//   * average delay per packet recovered (ms)            — Figs. 5 and 7
//   * average bandwidth usage per packet recovered (hops) — Figs. 6 and 8
//
// A "recovery" is one (client, sequence) pair that lost the original
// transmission and later obtained the packet.  Bandwidth is the total hop
// count of all recovery traffic (requests, NACKs, repairs) divided by the
// number of recoveries.
//
// Per-loss state lives in a dense (agent row, seq) table (util/seq_table.hpp,
// DESIGN.md §10.4).  This class owns the NodeId -> row index: the protocol
// registers its agents at attach() (and uses the same rows for its own
// tables) and sizes a column for each new sequence in sourceMulticast(), so
// recording during the simulation is a table lookup that never allocates.
// Used standalone, the caller sizes the tables the same way first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "metrics/stats.hpp"
#include "net/types.hpp"
#include "util/seq_table.hpp"

namespace rmrn::metrics {

class RecoveryMetrics {
 public:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  /// Sizes the per-node tables for NodeIds [0, nodes) and gives each of
  /// `agents` the next row of the per-loss tables, in order (agents that
  /// already have one keep it).  An agent id >= nodes throws
  /// std::invalid_argument.
  void addAgents(std::size_t nodes, std::span<const net::NodeId> agents);
  /// Sizes the per-loss tables for sequences [0, sequences).
  void reserveSequences(std::uint64_t sequences);

  /// Dense row of `node` in the per-loss tables; kNoRow when it has none.
  [[nodiscard]] std::uint32_t agentRow(net::NodeId node) const {
    return node < row_of_.size() ? row_of_[node] : kNoRow;
  }
  [[nodiscard]] std::size_t agentRows() const { return totals_.size(); }

  /// Registers that `client` lost data packet `seq`, detected at
  /// `detect_time_ms`.  Duplicate registration throws std::logic_error; a
  /// (client, seq) the tables were not sized for throws std::out_of_range.
  void recordLoss(net::NodeId client, std::uint64_t seq,
                  double detect_time_ms);

  /// Registers the recovery of a previously recorded loss at `now_ms`.
  /// Returns false (and records nothing) when the pair was never lost or was
  /// already recovered — duplicate repairs are normal under multicast repair.
  bool recordRecovery(net::NodeId client, std::uint64_t seq, double now_ms);

  /// Crash handling: writes off every pending (unrecovered) loss of
  /// `client`, returning how many were abandoned.  Abandoned losses leave
  /// outstanding() — a crashed receiver carries no reliability obligation —
  /// and can no longer be recovered.
  std::size_t abandonClient(net::NodeId client);

  /// Explicit single-loss abandonment (liveness watchdog, retry-budget
  /// exhaustion): writes off one pending unrecovered loss so the session
  /// terminates as *abandoned* rather than silently stuck.  Returns false
  /// (and records nothing) when the pair is unknown or already recovered.
  bool abandonLoss(net::NodeId client, std::uint64_t seq);

  [[nodiscard]] bool wasLost(net::NodeId client, std::uint64_t seq) const;
  [[nodiscard]] bool isRecovered(net::NodeId client, std::uint64_t seq) const;

  [[nodiscard]] std::size_t losses() const { return losses_; }
  [[nodiscard]] std::size_t recoveries() const {
    return latency_.count();
  }
  [[nodiscard]] std::size_t abandoned() const { return abandoned_; }
  /// Of abandoned(): losses given up one session at a time via abandonLoss()
  /// (the rest came from whole-client crash write-offs).
  [[nodiscard]] std::size_t abandonedSessions() const {
    return abandoned_sessions_;
  }
  /// Losses of live clients still unrecovered (the residual a resilience run
  /// must drive to zero).
  [[nodiscard]] std::size_t outstanding() const {
    return losses_ - latency_.count() - abandoned_;
  }

  /// Per-client terminal accounting, for reachability-aware reporting (a
  /// partitioned client's abandoned losses are expected; a reachable one's
  /// are a protocol bug).
  [[nodiscard]] std::uint64_t lossesFor(net::NodeId client) const;
  [[nodiscard]] std::uint64_t recoveriesFor(net::NodeId client) const;
  [[nodiscard]] std::uint64_t abandonedFor(net::NodeId client) const;
  /// Unrecovered, unabandoned losses of `client` (cold scan).
  [[nodiscard]] std::size_t outstandingFor(net::NodeId client) const;

  /// Resilience counters (DESIGN.md §9), recorded by the protocol layer.
  void recordRetry() { ++retries_; }
  /// A `target` outside the addAgents() node range throws
  /// std::out_of_range.
  void recordTimeout(net::NodeId target);
  void recordBlacklist(net::NodeId /*peer*/) { ++blacklist_events_; }
  void recordFailover(net::NodeId /*client*/) { ++failovers_; }
  void recordSourceFallback(net::NodeId /*client*/) { ++source_fallbacks_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t timeoutsFor(net::NodeId target) const {
    return target < timeouts_by_target_.size() ? timeouts_by_target_[target]
                                               : 0;
  }
  [[nodiscard]] std::uint64_t blacklistEvents() const {
    return blacklist_events_;
  }
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t sourceFallbacks() const {
    return source_fallbacks_;
  }

  /// Latency samples (ms) of completed recoveries.
  [[nodiscard]] const Accumulator& latency() const { return latency_; }

  /// Average recovery bandwidth per recovery given the total recovery hop
  /// count observed by the network.  Returns 0 when no recoveries happened.
  [[nodiscard]] double avgBandwidthHops(std::uint64_t recovery_hops) const;

  /// Time of `client`'s most recent completed recovery (0 when it never
  /// recovered anything) — used for per-client completion times.
  [[nodiscard]] double lastRecoveryTime(net::NodeId client) const;

 private:
  enum class LossState : std::uint8_t { kNone, kPending, kRecovered };
  struct Loss {
    double detect_time_ms = 0.0;
    LossState state = LossState::kNone;  // abandoning resets to kNone
  };
  /// Terminal accounting of one client row.
  struct ClientTotals {
    std::uint64_t losses = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t abandoned = 0;
    double last_recovery_ms = 0.0;
  };

  /// The loss cell of (client, seq), or nullptr when it has none.
  [[nodiscard]] const Loss* find(net::NodeId client, std::uint64_t seq) const;
  [[nodiscard]] Loss* find(net::NodeId client, std::uint64_t seq);

  std::vector<std::uint32_t> row_of_;  // NodeId -> table row, or kNoRow
  util::SeqTable<Loss> losses_table_;
  std::vector<ClientTotals> totals_;   // by row
  Accumulator latency_;
  std::size_t losses_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t abandoned_sessions_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t blacklist_events_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t source_fallbacks_ = 0;
  std::vector<std::uint64_t> timeouts_by_target_;  // by NodeId
};

}  // namespace rmrn::metrics
