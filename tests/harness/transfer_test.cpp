#include "harness/transfer.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "report_hash.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

net::Topology makeTopology(std::uint64_t seed = 1, std::uint32_t n = 60) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

TransferConfig smallTransfer(ProtocolKind kind = ProtocolKind::kRp) {
  TransferConfig config;
  config.protocol = kind;
  config.num_packets = 40;
  config.loss_prob = 0.05;
  config.seed = 3;
  return config;
}

TEST(TransferTest, CompletesWithFullReliability) {
  const net::Topology topo = makeTopology();
  const TransferReport report = runTransfer(topo, smallTransfer());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.losses, report.recoveries);
  EXPECT_GT(report.losses, 0u);
  EXPECT_EQ(report.completions.size(), topo.clients.size());
}

TEST(TransferTest, CompletionTimesAreConsistent) {
  const net::Topology topo = makeTopology(2);
  const TransferConfig config = smallTransfer();
  const TransferReport report = runTransfer(topo, config);
  const double last_send =
      (config.num_packets - 1) * config.packet_interval_ms;
  double max_completion = 0.0;
  for (const ClientCompletion& c : report.completions) {
    // No client completes before the last packet was even sent.
    EXPECT_GT(c.completed_at_ms, last_send);
    max_completion = std::max(max_completion, c.completed_at_ms);
  }
  EXPECT_DOUBLE_EQ(report.duration_ms, max_completion);
}

TEST(TransferTest, PerClientLossesSumToTotal) {
  const net::Topology topo = makeTopology(4);
  const TransferReport report = runTransfer(topo, smallTransfer());
  std::size_t sum = 0;
  for (const ClientCompletion& c : report.completions) sum += c.losses;
  EXPECT_EQ(sum, report.losses);
}

TEST(TransferTest, AllProtocolsComplete) {
  const net::Topology topo = makeTopology(5);
  for (const ProtocolKind kind :
       {ProtocolKind::kSrm, ProtocolKind::kRma, ProtocolKind::kRp,
        ProtocolKind::kSourceDirect, ProtocolKind::kParityFec,
        ProtocolKind::kCodedRlc}) {
    const TransferReport report = runTransfer(topo, smallTransfer(kind));
    EXPECT_TRUE(report.complete) << toString(kind);
    EXPECT_EQ(report.losses, report.recoveries) << toString(kind);
  }
}

TEST(TransferTest, ZeroLossIsInstantaneous) {
  const net::Topology topo = makeTopology(6);
  TransferConfig config = smallTransfer();
  config.loss_prob = 0.0;
  const TransferReport report = runTransfer(topo, config);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.losses, 0u);
  EXPECT_EQ(report.recovery_hops, 0u);
  EXPECT_DOUBLE_EQ(report.overhead, 0.0);
}

TEST(TransferTest, DeterministicGivenSeed) {
  const net::Topology topo = makeTopology(7);
  const TransferReport a = runTransfer(topo, smallTransfer());
  const TransferReport b = runTransfer(topo, smallTransfer());
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_DOUBLE_EQ(a.duration_ms, b.duration_ms);
  EXPECT_EQ(a.recovery_hops, b.recovery_hops);
}

TEST(TransferTest, BurstyLossStillCompletes) {
  const net::Topology topo = makeTopology(8);
  TransferConfig config = smallTransfer();
  config.mean_burst_packets = 5.0;
  const TransferReport report = runTransfer(topo, config);
  EXPECT_TRUE(report.complete);
}

TEST(TransferTest, LossyRecoveryStillCompletes) {
  const net::Topology topo = makeTopology(9, 40);
  TransferConfig config = smallTransfer();
  config.loss_prob = 0.15;
  config.lossy_recovery = true;
  const TransferReport report = runTransfer(topo, config);
  EXPECT_TRUE(report.complete);
}

TEST(TransferTest, RejectsZeroPackets) {
  const net::Topology topo = makeTopology(10, 40);
  TransferConfig config = smallTransfer();
  config.num_packets = 0;
  EXPECT_THROW((void)runTransfer(topo, config), std::invalid_argument);
}

TEST(TransferTest, OverheadReflectsLossRate) {
  const net::Topology topo = makeTopology(11);
  TransferConfig low = smallTransfer();
  low.loss_prob = 0.02;
  TransferConfig high = smallTransfer();
  high.loss_prob = 0.15;
  const TransferReport a = runTransfer(topo, low);
  const TransferReport b = runTransfer(topo, high);
  EXPECT_GT(b.overhead, a.overhead);
}

/// Golden pins of runTransfer's substream layout (network 1, SRM 2, loss 3,
/// CODED 4).  Lossy recovery makes RP, SRM and CODED together draw from
/// every one of those streams; a moved stream changes the hash.
struct TransferGolden {
  ProtocolKind kind;
  std::uint64_t hash;
};

void PrintTo(const TransferGolden& golden, std::ostream* os) {
  *os << toString(golden.kind);
}

class TransferGoldenTest : public ::testing::TestWithParam<TransferGolden> {};

TEST_P(TransferGoldenTest, LossyRecoveryReportIsPinned) {
  const net::Topology topo = makeTopology(12);
  TransferConfig config = smallTransfer(GetParam().kind);
  config.loss_prob = 0.1;
  config.lossy_recovery = true;
  config.seed = 17;
  const TransferReport report = runTransfer(topo, config);
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.losses, 0u);
  EXPECT_EQ(reportHash(report), GetParam().hash)
      << std::hex << reportHash(report);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TransferGoldenTest,
    ::testing::Values(
        TransferGolden{ProtocolKind::kRp, 0x47ecbc823c1d34fdULL},
        TransferGolden{ProtocolKind::kSrm, 0x1d96b82a264686a3ULL},
        TransferGolden{ProtocolKind::kCodedRlc, 0x28d2b9dda3b8e79eULL}),
    [](const auto& param_info) {
      return std::string(toString(param_info.param.kind));
    });

}  // namespace
}  // namespace rmrn::harness
