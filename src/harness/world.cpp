#include "harness/world.hpp"

#include <algorithm>
#include <stdexcept>

#include "protocols/coded_protocol.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "sim/loss_process.hpp"

namespace rmrn::harness {
namespace {

// Link-chaos watchdog when the caller picked no deadline: rides out transient
// flaps, yet ends a permanently partitioned session well within the run.
constexpr double kChaosSessionDeadlineMs = 10000.0;

std::unique_ptr<protocols::RecoveryProtocol> makeProtocol(
    const WorldSpec& spec, sim::SimNetwork& network,
    metrics::RecoveryMetrics& recovery) {
  // The one fault policy: faulted runs need the adaptive health machinery
  // or dead peers would be retried with static timeouts forever; fault-free
  // runs keep the caller's (default: legacy, bit-identical) behavior.
  protocols::ProtocolConfig config = spec.protocol;
  if (spec.faults != nullptr && !spec.faults->empty()) {
    config.health.enabled = true;
    if (spec.faults->hasLinkChaos() && config.session_deadline_ms == 0.0) {
      config.session_deadline_ms = kChaosSessionDeadlineMs;
    }
  }
  switch (spec.kind) {
    case ProtocolKind::kRp:
    case ProtocolKind::kSourceDirect:
      return std::make_unique<protocols::RpProtocol>(
          network, recovery, config, *spec.planner, spec.source_mode);
    case ProtocolKind::kSrm:
      return std::make_unique<protocols::SrmProtocol>(
          network, recovery, config, spec.srm, spec.protocol_rng);
    case ProtocolKind::kRma:
      return std::make_unique<protocols::RmaProtocol>(network, recovery,
                                                      config);
    case ProtocolKind::kParityFec:
      return std::make_unique<protocols::ParityProtocol>(network, recovery,
                                                         config, spec.parity);
    case ProtocolKind::kCodedRlc:
      return std::make_unique<protocols::CodedProtocol>(
          network, recovery, config, spec.coded, spec.protocol_rng);
  }
  return nullptr;
}

}  // namespace

Substreams substreams(StreamLayout layout, const util::Rng& root,
                      ProtocolKind kind) {
  // Experiment: network 100+k, SRM 150+k, CODED 160+k, loss 2 (pinned by
  // the Fig. 5/7 goldens).  Transfer: network 1, SRM 2, loss 3, CODED 4
  // (pinned by the transfer and parsim goldens).
  const bool coded = kind == ProtocolKind::kCodedRlc;
  if (layout == StreamLayout::kExperiment) {
    const auto k = static_cast<std::uint64_t>(kind);
    return {root.fork(100 + k), root.fork((coded ? 160 : 150) + k),
            root.fork(2)};
  }
  return {root.fork(1), root.fork(coded ? 4 : 2), root.fork(3)};
}

std::vector<sim::LinkLossPattern> drawLossPatterns(
    const net::Topology& topology, double loss_prob, double mean_burst_packets,
    std::uint32_t num_packets, util::Rng rng) {
  if (num_packets == 0) {
    throw std::invalid_argument("drawLossPatterns: need at least one packet");
  }
  std::vector<sim::LinkLossPattern> patterns(num_packets);
  const auto draw = [&patterns](auto process) {
    for (auto& pattern : patterns) pattern = process.nextPattern();
  };
  if (mean_burst_packets > 1.0 && loss_prob > 0.0) {
    draw(sim::GilbertElliottLossProcess(
        topology.tree.numMembers(),
        sim::GilbertElliottConfig::calibrate(loss_prob, mean_burst_packets),
        rng));
  } else {
    draw(sim::BernoulliLossProcess(topology.tree.numMembers(), loss_prob, rng));
  }
  return patterns;
}

std::unique_ptr<core::RpPlanner> makePlanner(
    ProtocolKind kind, const net::Topology& topology,
    const net::Routing& routing, core::PlannerOptions options,
    const protocols::ProtocolConfig& protocol) {
  if (kind == ProtocolKind::kSourceDirect) {
    options.max_list_length = 0;  // empty peer lists: straight to the source
  } else if (kind != ProtocolKind::kRp) {
    return nullptr;
  } else if (options.timeout_ms == 0.0 &&
             options.per_peer_timeout_factor == 0.0) {
    options.per_peer_timeout_factor = protocol.timeout_factor;
    options.min_timeout_ms = protocol.min_timeout_ms;
  }
  return std::make_unique<core::RpPlanner>(topology, routing, options);
}

WorldSpec transferSpec(const TransferConfig& config,
                       const core::RpPlanner* planner,
                       const sim::FaultPlan* faults,
                       const Substreams& streams) {
  return {config.protocol, config.protocol_config, config.srm, config.parity,
          config.coded, config.rp_source_mode,
          config.lossy_recovery ? config.loss_prob : 0.0, planner, faults,
          streams.network, streams.protocol};
}

World::World(const net::Topology& topology, const net::Routing& routing,
             const WorldSpec& spec, const WorldShard* shard)
    : network(simulator, topology, routing, spec.recovery_loss,
              spec.network_rng),
      sharded(shard != nullptr) {
  if (shard != nullptr) {
    network.enableShardMode(shard->regions, shard->region, &shard->outbox);
  }
  protocol = makeProtocol(spec, network, recovery);
  protocol->attach();
  if (spec.faults == nullptr || spec.faults->empty()) return;
  injector = std::make_unique<sim::FaultInjector>(network, *spec.faults);
  // Crash = fail-stop: the victim's sessions are abandoned.  Every parsim
  // region replays the whole schedule; only the victim's own region reacts.
  injector->setFaultHandler([this](const sim::FaultEvent& event) {
    if (event.kind == sim::FaultKind::kCrash &&
        network.isShardLocal(event.node)) {
      protocol->clientCrashed(event.node);
    }
  });
  injector->arm();
}

void World::scheduleSource(std::span<const sim::LinkLossPattern> patterns,
                           double interval_ms) {
  protocols::RecoveryProtocol* proto = protocol.get();
  for (std::uint32_t seq = 0; seq < patterns.size(); ++seq) {
    // Every region stages the identical sequence, so arena ids agree.
    if (sharded) network.stageLossPattern(patterns[seq]);
    simulator.scheduleAt(
        static_cast<double>(seq) * interval_ms,
        [proto, patterns, seq] { proto->sourceMulticast(seq, patterns[seq]); });
  }
}

void World::run() {
  simulator.run();
  protocol->finalizeRun();
}

TransferReport transferReport(std::span<const std::unique_ptr<World>> worlds,
                              const net::Topology& topology,
                              const TransferConfig& config,
                              const sim::RegionMap* regions) {
  TransferReport report;
  metrics::Accumulator latency;
  for (const std::unique_ptr<World>& world : worlds) {
    report.losses += world->recovery.losses();
    report.recoveries += world->recovery.recoveries();
    latency.merge(world->recovery.latency());
    report.data_hops += world->network.stats().data_hops;
    report.recovery_hops += world->network.stats().recovery_hops;
  }
  report.avg_recovery_latency_ms = latency.mean();
  report.recovery_latency = latency.summarize();
  report.overhead = report.data_hops == 0
                        ? 0.0
                        : static_cast<double>(report.recovery_hops) /
                              static_cast<double>(report.data_hops);

  // A client completes at the later of the last packet's loss-free arrival
  // and its last recovery; topology.clients is sorted, so completions are.
  const double last_send = static_cast<double>(config.num_packets - 1) *
                           config.packet_interval_ms;
  report.complete = true;
  for (const net::NodeId c : topology.clients) {
    const World& world = *worlds[regions ? regions->regionOf(c) : 0];
    bool all_held = true;
    std::size_t client_losses = 0;
    for (std::uint32_t seq = 0; seq < config.num_packets; ++seq) {
      all_held = all_held && world.protocol->hasPacket(c, seq);
      if (world.recovery.wasLost(c, seq)) ++client_losses;
    }
    report.complete = report.complete && all_held;
    const double completed =
        std::max(last_send + world.network.treeArrivalDelay(c),
                 world.recovery.lastRecoveryTime(c));
    report.completions.push_back({c, completed, client_losses});
    report.duration_ms = std::max(report.duration_ms, completed);
  }
  return report;
}

}  // namespace rmrn::harness
