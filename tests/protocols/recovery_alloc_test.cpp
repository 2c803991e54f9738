// Steady-state allocation-freedom of the recovery layer (DESIGN.md §10.4):
// once the dense (member, seq) tables cover a campaign — they grow only in
// RecoveryProtocol::sourceMulticast — the handlers that recover its losses
// (deliveries, loss detection, request/repair timers, session bookkeeping
// and metrics recording) perform zero heap allocations.  Links the counting
// allocator via the alloc_tests binary.
//
// Each test runs warm-up campaigns of the same seeded loss patterns, which
// size the event-queue slab and heap, the network's pools and every
// recovery table to their peak; a measured campaign then multicasts its
// packets (outside the measured window: that is where columns are added)
// and counts allocations across the simulation run alone.  The SRM pin
// measures a replay of the warm-up patterns.  The RP pin measures campaigns
// on a fresh loss stream: its lossless network resolves every unicast at
// send time, without a per-send path slot, so new loss patterns reach no
// pool beyond its warm-up peak.  Neither replay nor a fresh stream shows a
// first touch of state keyed by peer, so the per-target timeout counters
// have a pin of their own.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/planner.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "protocols/protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "sim/loss_process.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace rmrn::protocols {
namespace {

constexpr std::uint64_t kPacketsPerCampaign = 40;
constexpr int kWarmupCampaigns = 20;

class RecoveryAllocTest : public ::testing::Test {
 protected:
  RecoveryAllocTest() {
    util::Rng rng(2024);
    net::TopologyConfig config;
    config.num_nodes = 60;
    topo_ = net::generateTopology(config, rng);
    routing_ = std::make_unique<net::Routing>(topo_.graph);
    network_ = std::make_unique<sim::SimNetwork>(simulator_, topo_, *routing_,
                                                 0.0, util::Rng(5));
    network_->enableLinkAccounting(true);
    losses_ = std::make_unique<sim::BernoulliLossProcess>(
        topo_.tree.numMembers(), 0.1, util::Rng(77));
    patterns_ = drawCampaign();
  }

  /// The next campaign's loss patterns from the seeded loss stream.
  std::vector<sim::LinkLossPattern> drawCampaign() {
    std::vector<sim::LinkLossPattern> patterns;
    for (std::uint64_t i = 0; i < kPacketsPerCampaign; ++i) {
      patterns.push_back(losses_->nextPattern());
    }
    return patterns;
  }

  /// Multicasts one campaign (growing the tables), then runs it to
  /// completion; returns the allocations made by the run alone.
  std::uint64_t runCampaign(RecoveryProtocol& protocol,
                            const std::vector<sim::LinkLossPattern>& patterns) {
    for (const sim::LinkLossPattern& pattern : patterns) {
      protocol.sourceMulticast(next_seq_++, pattern);
    }
    const std::uint64_t before = util::allocCounts().allocations;
    simulator_.run();
    return util::allocCounts().allocations - before;
  }

  /// Attaches `protocol` and runs the warm-up campaigns (replays).
  void warmUp(RecoveryProtocol& protocol) {
    protocol.attach();
    for (int i = 0; i < kWarmupCampaigns; ++i) runCampaign(protocol, patterns_);
  }

  sim::Simulator simulator_;
  net::Topology topo_;
  std::unique_ptr<net::Routing> routing_;
  std::unique_ptr<sim::SimNetwork> network_;
  metrics::RecoveryMetrics metrics_;
  std::unique_ptr<sim::BernoulliLossProcess> losses_;
  std::vector<sim::LinkLossPattern> patterns_;  // the replayed campaign
  std::uint64_t next_seq_ = 0;
};

TEST_F(RecoveryAllocTest, SrmRecoveryHandlersAreAllocationFree) {
  SrmProtocol protocol(*network_, metrics_, ProtocolConfig{}, SrmConfig{},
                       util::Rng(9));
  warmUp(protocol);
  EXPECT_EQ(runCampaign(protocol, patterns_), 0u);
  EXPECT_GT(metrics_.losses(), 0u);
  EXPECT_TRUE(protocol.allRecovered());
  EXPECT_GT(protocol.repairsMulticast(), 0u);
}

TEST_F(RecoveryAllocTest, RpRecoveryHandlersAreAllocationFree) {
  const core::RpPlanner planner(topo_, *routing_, core::PlannerOptions{});
  RpProtocol protocol(*network_, metrics_, ProtocolConfig{}, planner);
  warmUp(protocol);
  for (int campaign = 0; campaign < 5; ++campaign) {
    SCOPED_TRACE(campaign);
    const std::size_t losses_before = metrics_.losses();
    EXPECT_EQ(runCampaign(protocol, drawCampaign()), 0u);
    EXPECT_GT(metrics_.losses(), losses_before);  // new losses recovered
  }
  EXPECT_TRUE(protocol.allRecovered());
  EXPECT_GT(protocol.requestsSent(), 0u);
}

// The first request timeout against each target, which the replayed
// campaigns above never reach.
TEST(RecoveryMetricsAllocTest, FirstTimeoutPerTargetIsAllocationFree) {
  metrics::RecoveryMetrics metrics;
  const net::NodeId agents[] = {0, 1, 2};
  metrics.addAgents(64, agents);
  const std::uint64_t before = util::allocCounts().allocations;
  for (net::NodeId target = 0; target < 64; ++target) {
    metrics.recordTimeout(target);
  }
  EXPECT_EQ(util::allocCounts().allocations - before, 0u);
  EXPECT_EQ(metrics.timeouts(), 64u);
  EXPECT_EQ(metrics.timeoutsFor(63), 1u);
}

}  // namespace
}  // namespace rmrn::protocols
