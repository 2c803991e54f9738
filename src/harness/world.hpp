// One run's simulated world, built the same way by all three drivers
// (runExperiment, runTransfer, runParallelTransfer), plus the pieces they
// share: RNG substream layout, pre-drawn loss patterns, planner options and
// the transfer report merged over one world or every parsim region.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness/transfer.hpp"
#include "metrics/recovery_metrics.hpp"
#include "sim/network.hpp"

namespace rmrn::harness {

/// Which driver's RNG substream layout a run draws from (DESIGN.md §6).
/// Parsim uses the transfer layout under a per-region root.
enum class StreamLayout { kExperiment, kTransfer };

struct Substreams {
  util::Rng network;   // recovery-link loss and chaos draws
  util::Rng protocol;  // SRM timers or CODED coefficients
  util::Rng loss;      // data-loss draws, shared by every protocol of a run
};

[[nodiscard]] Substreams substreams(StreamLayout layout, const util::Rng& root,
                                    ProtocolKind kind);

/// One pattern per packet: Bernoulli(loss_prob), or Gilbert-Elliott
/// calibrated to (loss_prob, mean_burst_packets) when the burst exceeds 1.
/// Throws std::invalid_argument for zero packets.
[[nodiscard]] std::vector<sim::LinkLossPattern> drawLossPatterns(
    const net::Topology& topology, double loss_prob, double mean_burst_packets,
    std::uint32_t num_packets, util::Rng rng);

/// SRC plans empty peer lists; RP plans against the protocol's RTT-scaled
/// waits unless `options` pins a timeout; other kinds get no planner.
[[nodiscard]] std::unique_ptr<core::RpPlanner> makePlanner(
    ProtocolKind kind, const net::Topology& topology,
    const net::Routing& routing, core::PlannerOptions options,
    const protocols::ProtocolConfig& protocol);

struct WorldSpec {
  ProtocolKind kind;
  protocols::ProtocolConfig protocol;
  protocols::SrmConfig srm;
  protocols::ParityConfig parity;
  protocols::CodedConfig coded;
  protocols::SourceRecoveryMode source_mode;
  double recovery_loss;
  const core::RpPlanner* planner;  // RP and SRC; read-only, so shareable
  /// A non-empty plan turns on adaptive health; link chaos without a
  /// deadline also gets the session watchdog.
  const sim::FaultPlan* faults;
  util::Rng network_rng;
  util::Rng protocol_rng;
};

[[nodiscard]] WorldSpec transferSpec(const TransferConfig& config,
                                     const core::RpPlanner* planner,
                                     const sim::FaultPlan* faults,
                                     const Substreams& streams);

/// A parsim region's place in the sharded engine.
struct WorldShard {
  const sim::RegionMap& regions;
  std::uint32_t region;
  sim::ShardOutbox& outbox;
};

/// Network (in shard mode when `shard` is given), attached protocol and
/// armed faults.  Not movable: scheduled events capture it.
struct World {
  World(const net::Topology& topology, const net::Routing& routing,
        const WorldSpec& spec, const WorldShard* shard = nullptr);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Sends packet i at i * interval_ms with loss `patterns[i]`; the
  /// patterns must outlive the run.
  void scheduleSource(std::span<const sim::LinkLossPattern> patterns,
                      double interval_ms);
  /// Serial event loop to quiescence, then the liveness sweep
  /// (RecoveryProtocol::finalizeRun).
  void run();

  sim::Simulator simulator;
  sim::SimNetwork network;
  metrics::RecoveryMetrics recovery;
  std::unique_ptr<protocols::RecoveryProtocol> protocol;
  std::unique_ptr<sim::FaultInjector> injector;  // non-empty plans only
  const bool sharded;
};

/// Serial runs pass their one world; parsim its regions in canonical order
/// and the map naming each client's region.
[[nodiscard]] TransferReport transferReport(
    std::span<const std::unique_ptr<World>> worlds,
    const net::Topology& topology, const TransferConfig& config,
    const sim::RegionMap* regions = nullptr);

}  // namespace rmrn::harness
