// Determinism and equivalence contracts of the parallel transfer harness
// (DESIGN.md §14): worker-count invariance (always, including under link
// chaos) and agreement with the serial harness for RP, SRC and RMA when
// recovery links are lossless.
#include "harness/parsim.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "harness/transfer.hpp"
#include "net/topology.hpp"
#include "report_hash.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

net::Topology makeTopology(std::uint64_t seed = 1, std::uint32_t n = 80) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

ParsimConfig parallelConfig(unsigned workers, std::uint32_t regions = 4) {
  ParsimConfig config;
  config.target_regions = regions;
  config.workers = workers;
  return config;
}

/// Full bit-level comparison: every reported value must be identical across
/// worker counts (pool lanes excluded — the host clamps those).
void expectIdentical(const ParsimReport& a, const ParsimReport& b) {
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.lookahead_ms, b.lookahead_ms);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.abandoned_sessions, b.abandoned_sessions);
  EXPECT_EQ(a.chaos_link_drops, b.chaos_link_drops);
  EXPECT_EQ(a.duplicates_created, b.duplicates_created);
  EXPECT_EQ(a.transfer.complete, b.transfer.complete);
  EXPECT_EQ(a.transfer.losses, b.transfer.losses);
  EXPECT_EQ(a.transfer.recoveries, b.transfer.recoveries);
  EXPECT_EQ(a.transfer.data_hops, b.transfer.data_hops);
  EXPECT_EQ(a.transfer.recovery_hops, b.transfer.recovery_hops);
  EXPECT_EQ(a.transfer.duration_ms, b.transfer.duration_ms);
  EXPECT_EQ(a.transfer.avg_recovery_latency_ms,
            b.transfer.avg_recovery_latency_ms);
  EXPECT_EQ(a.transfer.recovery_latency.p95, b.transfer.recovery_latency.p95);
  ASSERT_EQ(a.transfer.completions.size(), b.transfer.completions.size());
  for (std::size_t i = 0; i < a.transfer.completions.size(); ++i) {
    EXPECT_EQ(a.transfer.completions[i].client,
              b.transfer.completions[i].client);
    EXPECT_EQ(a.transfer.completions[i].completed_at_ms,
              b.transfer.completions[i].completed_at_ms);
    EXPECT_EQ(a.transfer.completions[i].losses,
              b.transfer.completions[i].losses);
  }
}

TEST(ParsimTest, WorkerCountInvarianceRp) {
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const ParsimReport one = runParallelTransfer(topo, config, parallelConfig(1));
  const ParsimReport two = runParallelTransfer(topo, config, parallelConfig(2));
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4));
  expectIdentical(one, two);
  expectIdentical(one, four);
  EXPECT_TRUE(one.transfer.complete);
  EXPECT_GT(one.transfer.losses, 0u);
  EXPECT_GE(one.regions, 2u);
  EXPECT_GT(one.handoffs, 0u);
  EXPECT_GT(one.epochs, 0u);
}

TEST(ParsimTest, WorkerCountInvarianceSrm) {
  const net::Topology topo = makeTopology(4, 60);
  TransferConfig config;
  config.protocol = ProtocolKind::kSrm;
  config.num_packets = 30;
  config.loss_prob = 0.15;
  config.lossy_recovery = true;
  config.seed = 5;
  const ParsimReport one = runParallelTransfer(topo, config, parallelConfig(1));
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4));
  expectIdentical(one, four);
  EXPECT_TRUE(one.transfer.complete);
  EXPECT_GT(one.handoffs, 0u);
}

TEST(ParsimTest, SingleRegionRunsUnbounded) {
  const net::Topology topo = makeTopology(6, 50);
  TransferConfig config;
  config.num_packets = 20;
  config.loss_prob = 0.1;
  config.seed = 2;
  const ParsimReport report =
      runParallelTransfer(topo, config, parallelConfig(1, /*regions=*/1));
  EXPECT_TRUE(report.transfer.complete);
  EXPECT_EQ(report.regions, 1u);
  EXPECT_EQ(report.handoffs, 0u);
  // Infinite lookahead: the whole run is one horizon-free epoch.
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.lookahead_ms, 0.0);
}

TEST(ParsimTest, MatchesSerialHarnessWhenRecoveryLossless) {
  // With lossless recovery links the hot path consumes no decisive RNG
  // draws outside the pre-drawn (shared) data-loss patterns, so for these
  // schemes the parallel run agrees with the serial engine — integers
  // bitwise, latency aggregates up to float summation order.  Lossless
  // networks resolve sends at send time, so packets leaving a region are
  // handed off from inside a resolved walk; every worker count must agree.
  // FEC is left out: it can differ where a handed-off NACK ties with a
  // gather timer at the source (DESIGN.md §14).
  const net::Topology topo = makeTopology(5, 60);
  for (const ProtocolKind kind :
       {ProtocolKind::kRp, ProtocolKind::kSourceDirect, ProtocolKind::kRma}) {
    SCOPED_TRACE(toString(kind));
    TransferConfig config;
    config.protocol = kind;
    config.num_packets = 40;
    config.loss_prob = 0.15;
    config.lossy_recovery = false;
    config.seed = 11;
    const TransferReport serial = runTransfer(topo, config);
    EXPECT_TRUE(serial.complete);
    for (const unsigned workers : {1U, 2U, 4U}) {
      SCOPED_TRACE(workers);
      const ParsimReport parallel =
          runParallelTransfer(topo, config, parallelConfig(workers));
      EXPECT_GE(parallel.regions, 2u);
      EXPECT_GT(parallel.handoffs, 0u);
      EXPECT_TRUE(parallel.transfer.complete);
      EXPECT_EQ(parallel.transfer.losses, serial.losses);
      EXPECT_EQ(parallel.transfer.recoveries, serial.recoveries);
      EXPECT_EQ(parallel.transfer.data_hops, serial.data_hops);
      EXPECT_EQ(parallel.transfer.recovery_hops, serial.recovery_hops);
      EXPECT_DOUBLE_EQ(parallel.transfer.duration_ms, serial.duration_ms);
      EXPECT_NEAR(parallel.transfer.avg_recovery_latency_ms,
                  serial.avg_recovery_latency_ms, 1e-9);
      ASSERT_EQ(parallel.transfer.completions.size(),
                serial.completions.size());
      for (std::size_t i = 0; i < serial.completions.size(); ++i) {
        EXPECT_EQ(parallel.transfer.completions[i].client,
                  serial.completions[i].client);
        EXPECT_DOUBLE_EQ(parallel.transfer.completions[i].completed_at_ms,
                         serial.completions[i].completed_at_ms);
        EXPECT_EQ(parallel.transfer.completions[i].losses,
                  serial.completions[i].losses);
      }
    }
  }
}

/// Golden pins of the parallel transfer: the transfer substream layout
/// forked per region (root.fork(0x7000 + r)), 4 target regions, lossy
/// recovery, at 1 and 4 workers.
struct ParsimGolden {
  ProtocolKind kind;
  std::uint64_t hash;
};

void PrintTo(const ParsimGolden& golden, std::ostream* os) {
  *os << toString(golden.kind);
}

class ParsimGoldenTest : public ::testing::TestWithParam<ParsimGolden> {};

TEST_P(ParsimGoldenTest, LossyRecoveryReportIsPinned) {
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = GetParam().kind;
  config.num_packets = 40;
  config.loss_prob = 0.1;
  config.lossy_recovery = true;
  config.seed = 19;
  for (const unsigned workers : {1U, 4U}) {
    SCOPED_TRACE(workers);
    const ParsimReport report =
        runParallelTransfer(topo, config, parallelConfig(workers));
    EXPECT_TRUE(report.transfer.complete);
    EXPECT_GT(report.handoffs, 0u);
    EXPECT_EQ(reportHash(report.transfer), GetParam().hash)
        << std::hex << reportHash(report.transfer);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ParsimGoldenTest,
    ::testing::Values(ParsimGolden{ProtocolKind::kRp, 0xb6820f02bfbed29eULL},
                      ParsimGolden{ProtocolKind::kSrm, 0x509361e679badbf4ULL}),
    [](const auto& param_info) {
      return std::string(toString(param_info.param.kind));
    });

TEST(ParsimTest, CrashPlanTurnsOnAdaptiveHealth) {
  // One fault policy for every driver: a non-empty plan runs with adaptive
  // health, exactly as if the caller had enabled it.
  const net::Topology topo = makeTopology(8);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.1;
  config.seed = 23;
  sim::FaultPlan plan;
  plan.seed = config.seed;
  plan.crash_fraction = 0.15;
  plan.at_ms = 50.0;
  plan.stagger_ms = config.packet_interval_ms;
  TransferConfig explicit_health = config;
  explicit_health.protocol_config.health.enabled = true;
  for (const unsigned workers : {1U, 4U}) {
    SCOPED_TRACE(workers);
    const ParsimReport implied =
        runParallelTransfer(topo, config, parallelConfig(workers), &plan);
    const ParsimReport stated = runParallelTransfer(
        topo, explicit_health, parallelConfig(workers), &plan);
    expectIdentical(implied, stated);
    EXPECT_GT(implied.timeouts, 0u);
  }
}

/// Chaos scenarios from the BENCH_chaos grid (flap + partition + duplication
/// + jitter), replayed at 1, 2 and 4 workers: identical RecoveryMetrics and
/// event counts — the ISSUE's cross-shard chaos determinism gate.
class ParsimChaosReplay : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParsimChaosReplay, WorkerSweepIsBitIdentical) {
  const net::Topology topo = makeTopology(9, 60);
  TransferConfig config;
  config.protocol = GetParam();
  config.num_packets = 30;
  config.packet_interval_ms = 5.0;
  config.loss_prob = 0.1;
  config.lossy_recovery = true;
  config.seed = 13;
  config.protocol_config.health.retry_budget = 256;
  const double span = config.num_packets * config.packet_interval_ms;

  sim::FaultPlan plan;  // the chaos grid's heal25 x flap15 x dup/jitter cell
  plan.seed = config.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = config.packet_interval_ms;
  plan.partition_fraction = 0.25;
  plan.partition_heal_ms = 0.2 * span;
  plan.link_flap_fraction = 0.15;
  plan.flap_down_ms = 0.1 * span;
  plan.flap_cycles = 2;
  plan.flap_period_ms = 0.25 * span;
  plan.duplicate_prob = 0.15;
  plan.reorder_jitter_ms = 2.0;

  const ParsimReport one =
      runParallelTransfer(topo, config, parallelConfig(1), &plan);
  const ParsimReport two =
      runParallelTransfer(topo, config, parallelConfig(2), &plan);
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4), &plan);
  expectIdentical(one, two);
  expectIdentical(one, four);
  // Chaos must actually have happened for the gate to mean anything.
  EXPECT_GT(one.chaos_link_drops + one.duplicates_created, 0u);
  EXPECT_GT(one.transfer.losses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ParsimChaosReplay,
                         ::testing::Values(ProtocolKind::kRp,
                                           ProtocolKind::kSrm),
                         [](const auto& param_info) {
                           return param_info.param == ProtocolKind::kRp
                                      ? "Rp"
                                      : "Srm";
                         });

}  // namespace
}  // namespace rmrn::harness
