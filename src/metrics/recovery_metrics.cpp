#include "metrics/recovery_metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace rmrn::metrics {

// rmrn-lint: init-phase
void RecoveryMetrics::addAgents(std::size_t nodes,
                                std::span<const net::NodeId> agents) {
  if (nodes > row_of_.size()) {
    row_of_.resize(nodes, kNoRow);
    timeouts_by_target_.resize(nodes, 0);
  }
  for (const net::NodeId agent : agents) {
    if (agent >= row_of_.size()) {
      throw std::invalid_argument("RecoveryMetrics: agent outside node range");
    }
    if (row_of_[agent] != kNoRow) continue;
    row_of_[agent] = static_cast<std::uint32_t>(totals_.size());
    totals_.emplace_back();
  }
  losses_table_.grow(totals_.size(), losses_table_.columns());
}

void RecoveryMetrics::reserveSequences(std::uint64_t sequences) {
  losses_table_.grow(totals_.size(), sequences);
}

const RecoveryMetrics::Loss* RecoveryMetrics::find(net::NodeId client,
                                                   std::uint64_t seq) const {
  const std::uint32_t row = agentRow(client);
  if (!losses_table_.contains(row, seq)) return nullptr;
  return &losses_table_.at(row, seq);
}

RecoveryMetrics::Loss* RecoveryMetrics::find(net::NodeId client,
                                             std::uint64_t seq) {
  const std::uint32_t row = agentRow(client);
  if (!losses_table_.contains(row, seq)) return nullptr;
  return &losses_table_.at(row, seq);
}

void RecoveryMetrics::recordLoss(net::NodeId client, std::uint64_t seq,
                                 double detect_time_ms) {
  if (seq > 0xffffffffULL) {
    throw std::invalid_argument("RecoveryMetrics: seq exceeds 32 bits");
  }
  const std::uint32_t row = agentRow(client);
  if (!losses_table_.contains(row, seq)) {
    throw std::out_of_range("RecoveryMetrics: loss outside the sized tables");
  }
  Loss& loss = losses_table_.at(row, seq);
  if (loss.state != LossState::kNone) {
    throw std::logic_error("RecoveryMetrics: duplicate loss record");
  }
  loss = Loss{detect_time_ms, LossState::kPending};
  ++losses_;
  ++totals_[row].losses;
  // Room for every registered loss's latency sample, so recordRecovery()
  // never grows the store (amortised doubling; losses are registered from
  // sourceMulticast outside chaos mode).
  // rmrn-lint: allow(HOT-1) amortised growth at loss registration, never at recovery
  latency_.reserve(losses_);
}

bool RecoveryMetrics::recordRecovery(net::NodeId client, std::uint64_t seq,
                                     double now_ms) {
  Loss* const loss = find(client, seq);
  if (loss == nullptr || loss->state != LossState::kPending) return false;
  loss->state = LossState::kRecovered;
  ClientTotals& totals = totals_[agentRow(client)];
  totals.last_recovery_ms = std::max(totals.last_recovery_ms, now_ms);
  const double latency = now_ms - loss->detect_time_ms;
  // A repair can arrive before the client even notices the loss (e.g. an
  // SRM repair triggered by somebody else); the effective wait is zero.
  latency_.add(latency > 0.0 ? latency : 0.0);
  ++totals.recoveries;
  return true;
}

bool RecoveryMetrics::abandonLoss(net::NodeId client, std::uint64_t seq) {
  Loss* const loss = find(client, seq);
  if (loss == nullptr || loss->state != LossState::kPending) return false;
  *loss = Loss{};
  ++abandoned_;
  ++abandoned_sessions_;
  ++totals_[agentRow(client)].abandoned;
  return true;
}

std::size_t RecoveryMetrics::abandonClient(net::NodeId client) {
  const std::uint32_t row = agentRow(client);
  if (row == kNoRow) return 0;
  std::size_t count = 0;
  for (Loss& loss : losses_table_.row(row)) {
    if (loss.state != LossState::kPending) continue;
    loss = Loss{};
    ++count;
  }
  abandoned_ += count;
  totals_[row].abandoned += count;
  return count;
}

std::uint64_t RecoveryMetrics::lossesFor(net::NodeId client) const {
  const std::uint32_t row = agentRow(client);
  return row == kNoRow ? 0 : totals_[row].losses;
}

std::uint64_t RecoveryMetrics::recoveriesFor(net::NodeId client) const {
  const std::uint32_t row = agentRow(client);
  return row == kNoRow ? 0 : totals_[row].recoveries;
}

std::uint64_t RecoveryMetrics::abandonedFor(net::NodeId client) const {
  const std::uint32_t row = agentRow(client);
  return row == kNoRow ? 0 : totals_[row].abandoned;
}

std::size_t RecoveryMetrics::outstandingFor(net::NodeId client) const {
  const std::uint32_t row = agentRow(client);
  if (row == kNoRow) return 0;
  const auto cells = losses_table_.row(row);
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [](const Loss& loss) {
        return loss.state == LossState::kPending;
      }));
}

void RecoveryMetrics::recordTimeout(net::NodeId target) {
  if (target >= timeouts_by_target_.size()) {
    throw std::out_of_range("RecoveryMetrics: timeout target outside nodes");
  }
  ++timeouts_;
  ++timeouts_by_target_[target];
}

bool RecoveryMetrics::wasLost(net::NodeId client, std::uint64_t seq) const {
  const Loss* const loss = find(client, seq);
  return loss != nullptr && loss->state != LossState::kNone;
}

bool RecoveryMetrics::isRecovered(net::NodeId client,
                                  std::uint64_t seq) const {
  const Loss* const loss = find(client, seq);
  return loss != nullptr && loss->state == LossState::kRecovered;
}

double RecoveryMetrics::lastRecoveryTime(net::NodeId client) const {
  const std::uint32_t row = agentRow(client);
  return row == kNoRow ? 0.0 : totals_[row].last_recovery_ms;
}

double RecoveryMetrics::avgBandwidthHops(std::uint64_t recovery_hops) const {
  const std::size_t n = recoveries();
  if (n == 0) return 0.0;
  return static_cast<double>(recovery_hops) / static_cast<double>(n);
}

}  // namespace rmrn::metrics
