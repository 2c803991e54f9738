#include "metrics/recovery_metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rmrn::metrics {
namespace {

/// Tables sized the way RecoveryProtocol::attach() and sourceMulticast()
/// size them: nodes 0..9, agent rows for 1..8, sequences 0..15.
RecoveryMetrics sizedMetrics() {
  RecoveryMetrics m;
  const net::NodeId agents[] = {1, 2, 3, 4, 5, 6, 7, 8};
  m.addAgents(10, agents);
  m.reserveSequences(16);
  return m;
}

TEST(RecoveryMetricsTest, InitiallyEmpty) {
  const RecoveryMetrics m;
  EXPECT_EQ(m.losses(), 0u);
  EXPECT_EQ(m.recoveries(), 0u);
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(m.avgBandwidthHops(100), 0.0);
}

TEST(RecoveryMetricsTest, LossThenRecovery) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.wasLost(5, 0));
  EXPECT_FALSE(m.isRecovered(5, 0));
  EXPECT_EQ(m.outstanding(), 1u);

  EXPECT_TRUE(m.recordRecovery(5, 0, 130.0));
  EXPECT_TRUE(m.isRecovered(5, 0));
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 30.0);
}

TEST(RecoveryMetricsTest, DuplicateRecoveryIgnored) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 130.0));
  EXPECT_FALSE(m.recordRecovery(5, 0, 140.0));
  EXPECT_EQ(m.recoveries(), 1u);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 30.0);
}

TEST(RecoveryMetricsTest, RecoveryWithoutLossIgnored) {
  RecoveryMetrics m = sizedMetrics();
  EXPECT_FALSE(m.recordRecovery(5, 0, 130.0));
  EXPECT_EQ(m.recoveries(), 0u);
}

TEST(RecoveryMetricsTest, DuplicateLossThrows) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(5, 0, 100.0);
  EXPECT_THROW(m.recordLoss(5, 0, 200.0), std::logic_error);
}

TEST(RecoveryMetricsTest, EarlyRepairClampsToZero) {
  // Repair arriving before the scheduled detection => latency 0, not
  // negative.
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 80.0));
  EXPECT_DOUBLE_EQ(m.latency().mean(), 0.0);
}

TEST(RecoveryMetricsTest, DistinguishesClientsAndSequences) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(1, 7, 0.0);
  m.recordLoss(2, 7, 0.0);
  m.recordLoss(1, 8, 0.0);
  EXPECT_EQ(m.losses(), 3u);
  EXPECT_TRUE(m.recordRecovery(1, 7, 10.0));
  EXPECT_FALSE(m.isRecovered(2, 7));
  EXPECT_FALSE(m.isRecovered(1, 8));
  EXPECT_EQ(m.outstanding(), 2u);
}

TEST(RecoveryMetricsTest, AvgBandwidth) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  m.recordRecovery(1, 0, 5.0);
  m.recordRecovery(2, 0, 9.0);
  EXPECT_DOUBLE_EQ(m.avgBandwidthHops(50), 25.0);
}

TEST(RecoveryMetricsTest, RecordingOutsideSizedTablesThrows) {
  RecoveryMetrics m = sizedMetrics();
  EXPECT_THROW(m.recordLoss(9, 0, 0.0), std::out_of_range);   // no row
  EXPECT_THROW(m.recordLoss(1, 16, 0.0), std::out_of_range);  // no column
  EXPECT_THROW(m.recordTimeout(10), std::out_of_range);       // no node
  EXPECT_EQ(m.losses(), 0u);
  EXPECT_EQ(m.timeouts(), 0u);
  const net::NodeId outside[] = {10};
  EXPECT_THROW(m.addAgents(10, outside), std::invalid_argument);
}

TEST(RecoveryMetricsTest, AgentRowsFollowRegistrationOrder) {
  RecoveryMetrics m;
  const net::NodeId first[] = {7, 3};
  const net::NodeId second[] = {3, 5};
  m.addAgents(8, first);
  m.addAgents(8, second);  // 3 keeps its row
  EXPECT_EQ(m.agentRows(), 3u);
  EXPECT_EQ(m.agentRow(7), 0u);
  EXPECT_EQ(m.agentRow(3), 1u);
  EXPECT_EQ(m.agentRow(5), 2u);
  EXPECT_EQ(m.agentRow(0), RecoveryMetrics::kNoRow);
  EXPECT_EQ(m.agentRow(100), RecoveryMetrics::kNoRow);
}

TEST(RecoveryMetricsTest, RejectsHugeSequence) {
  RecoveryMetrics m = sizedMetrics();
  EXPECT_THROW(m.recordLoss(1, 1ULL << 40, 0.0), std::invalid_argument);
}

TEST(RecoveryMetricsTest, AbandonWritesOffPendingLossesOnly) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(5, 0, 100.0);
  m.recordLoss(5, 1, 110.0);
  m.recordLoss(6, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 120.0));  // already recovered: kept

  EXPECT_EQ(m.abandonClient(5), 1u);  // only the pending seq 1
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.recoveries(), 1u);
  EXPECT_EQ(m.outstanding(), 1u);  // client 6's loss is untouched
  EXPECT_TRUE(m.isRecovered(5, 0));

  // A repair arriving after the crash is void.
  EXPECT_FALSE(m.recordRecovery(5, 1, 200.0));
  EXPECT_EQ(m.recoveries(), 1u);

  // Abandoning again is a no-op.
  EXPECT_EQ(m.abandonClient(5), 0u);
  EXPECT_EQ(m.abandoned(), 1u);
}

TEST(RecoveryMetricsTest, OutstandingExcludesAbandoned) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  EXPECT_EQ(m.outstanding(), 2u);
  m.abandonClient(1);
  EXPECT_EQ(m.outstanding(), 1u);
  m.recordRecovery(2, 0, 5.0);
  EXPECT_EQ(m.outstanding(), 0u);  // all losses accounted: recovered or dead
}

TEST(RecoveryMetricsTest, ResilienceCountersAccumulate) {
  RecoveryMetrics m = sizedMetrics();
  EXPECT_EQ(m.retries(), 0u);
  EXPECT_EQ(m.timeouts(), 0u);
  m.recordRetry();
  m.recordRetry();
  m.recordTimeout(7);
  m.recordTimeout(7);
  m.recordTimeout(9);
  m.recordBlacklist(7);
  m.recordFailover(3);
  m.recordSourceFallback(3);
  EXPECT_EQ(m.retries(), 2u);
  EXPECT_EQ(m.timeouts(), 3u);
  EXPECT_EQ(m.timeoutsFor(7), 2u);
  EXPECT_EQ(m.timeoutsFor(9), 1u);
  EXPECT_EQ(m.timeoutsFor(8), 0u);  // never timed out
  EXPECT_EQ(m.blacklistEvents(), 1u);
  EXPECT_EQ(m.failovers(), 1u);
  EXPECT_EQ(m.sourceFallbacks(), 1u);
}

TEST(RecoveryMetricsTest, AbandonLossWritesOffOneSessionExplicitly) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(3, 7, 100.0);
  m.recordLoss(3, 8, 100.0);

  EXPECT_TRUE(m.abandonLoss(3, 7));
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.abandonedSessions(), 1u);  // watchdog-style, not a crash sweep
  EXPECT_EQ(m.outstanding(), 1u);

  // Abandoning again, an unknown pair, or a recovered pair: all refused.
  EXPECT_FALSE(m.abandonLoss(3, 7));
  EXPECT_FALSE(m.abandonLoss(9, 0));
  EXPECT_TRUE(m.recordRecovery(3, 8, 150.0));
  EXPECT_FALSE(m.abandonLoss(3, 8));
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.outstanding(), 0u);

  // A repair arriving after the watchdog gave up is void.
  EXPECT_FALSE(m.recordRecovery(3, 7, 200.0));
  EXPECT_EQ(m.recoveries(), 1u);

  // Per-client terminal accounting matches.
  EXPECT_EQ(m.lossesFor(3), 2u);
  EXPECT_EQ(m.recoveriesFor(3), 1u);
  EXPECT_EQ(m.abandonedFor(3), 1u);
  EXPECT_EQ(m.outstandingFor(3), 0u);
}

TEST(RecoveryMetricsTest, AbandonedSessionsExcludesCrashWriteOffs) {
  RecoveryMetrics m = sizedMetrics();
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  EXPECT_TRUE(m.abandonLoss(1, 0));
  EXPECT_EQ(m.abandonClient(2), 1u);
  EXPECT_EQ(m.abandoned(), 2u);
  EXPECT_EQ(m.abandonedSessions(), 1u);  // only the explicit one
}

TEST(RecoveryMetricsTest, LatencyDistribution) {
  RecoveryMetrics m = sizedMetrics();
  for (std::uint64_t i = 0; i < 10; ++i) {
    m.recordLoss(1, i, 0.0);
    m.recordRecovery(1, i, static_cast<double>(i * 10));
  }
  const Summary s = m.latency().summarize();
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 45.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 90.0);
}

}  // namespace
}  // namespace rmrn::metrics
