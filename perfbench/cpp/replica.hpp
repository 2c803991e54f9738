// Traced replica of one recovery run.
//
// harness::runExperiment and harness::runTransfer run their event loops
// internally, so the traced run rebuilds the same world from public parts
// (SimNetwork, a protocol, RecoveryMetrics) with the same RNG substream
// layout, and drives it with Simulator::step() while SimNetwork's trace sink
// reports what each step did.  The substream layout is the harness' private
// choice, so every traced run compares the replica's counts with the harness
// call on the same seed and fails the check "traced replica reproduces
// harness counts" when they differ: the per-layer figures then no longer
// describe the program.
//
// Attribution rule for one step (one fired event):
//   * The first trace record decides who ran before it.  A delivery means
//     the network dispatched the event (sim) and then called the protocol's
//     delivery handler.  A hop send whose sender is the packet's origin means
//     protocol code started the step (a timer or the source schedule).  Any
//     other hop send or drop means the network was forwarding (sim).  A step
//     with no trace record was a protocol timer that sent nothing.
//   * From a delivery on, time is the handler's until the network forwards
//     the delivered packet itself from the delivering node (a flood
//     continuing past a member), which hands the time back to sim.
//   * Sends made from protocol code stay charged to protocol code: the
//     split cannot see where the handler ends and SimNetwork::unicast begins.
// Time between steps (the loop itself) is not charged.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/planner.hpp"
#include "harness/experiment.hpp"
#include "metrics/stats.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Which harness function's RNG substream layout the replica follows.
enum class Layout { kExperiment, kTransfer };

struct ReplicaConfig {
  Layout layout = Layout::kExperiment;
  double packet_interval_ms = 50.0;
  /// Loss probability applied to recovery traffic (0 = lossless recovery).
  double recovery_loss = 0.0;
};

/// Event-loop wall time split by owner (see the rule above).
struct LoopSplit {
  double forward_s = 0.0;
  double deliver_s = 0.0;
  double timer_s = 0.0;
};

/// What one replica run of one arm produced.
struct ArmRun {
  double loop_s = 0.0;  // event-loop wall
  LoopSplit split;      // traced runs only
  std::uint64_t events = 0;
  std::uint64_t hop_sends = 0;
  std::uint64_t hop_drops = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t data_hops = 0;
  std::uint64_t recovery_hops = 0;
  std::uint64_t losses = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t residual = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t latency_samples = 0;
  metrics::Summary latency;  // of this run only; not summed by add()

  /// Accumulates another run's times and counts into this one.
  void add(const ArmRun& other);
};

/// Pre-draws the per-packet data-loss patterns from the harness function's
/// loss substream (i.i.d. Bernoulli, the default of both).
[[nodiscard]] std::vector<sim::LinkLossPattern> drawLosses(
    const net::Topology& topology, double loss_prob, std::uint32_t packets,
    const util::Rng& root, Layout layout);

/// Planner options both harness functions derive from the default protocol
/// config.
[[nodiscard]] core::PlannerOptions defaultPlannerOptions(unsigned threads);

/// Runs one arm over pre-drawn losses.  With `spans` set the loop is traced
/// and split; otherwise it runs with Simulator::run() and no sink.
ArmRun runArm(harness::ProtocolKind kind, const ReplicaConfig& config,
              const net::Topology& topology, const net::Routing& routing,
              const core::RpPlanner& planner,
              const std::vector<sim::LinkLossPattern>& losses,
              const util::Rng& root, SpanRecorder* spans);

}  // namespace perfbench
