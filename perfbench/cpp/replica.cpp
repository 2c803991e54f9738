#include "replica.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "metrics/recovery_metrics.hpp"
#include "protocols/coded_protocol.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "sim/loss_process.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using harness::ProtocolKind;

// Substream keys of harness::runExperiment and harness::runTransfer
// (harness/experiment.cpp, harness/transfer.cpp).
struct Streams {
  std::uint64_t network;
  std::uint64_t loss;
  std::uint64_t srm;
  std::uint64_t coded;
};

Streams streamsFor(Layout layout, ProtocolKind kind) {
  const auto k = static_cast<std::uint64_t>(kind);
  if (layout == Layout::kExperiment) {
    return {100 + k, 2, 150 + k, 160 + k};
  }
  return {1, 3, 2, 4};
}

bool samePacket(const sim::Packet& a, const sim::Packet& b) {
  return a.type == b.type && a.seq == b.seq && a.origin == b.origin &&
         a.requester == b.requester && a.tag == b.tag;
}

/// Drives a simulator step by step and charges each step's wall time to
/// sim forwarding, protocol delivery handlers or protocol timers (rule in
/// replica.hpp).
class StepAttributor {
 public:
  explicit StepAttributor(LoopSplit& split) : split_(split) {}

  sim::TraceSink sink() {
    return [this](const sim::TraceEvent& event) { onTrace(event); };
  }

  void run(sim::Simulator& simulator) {
    for (;;) {
      first_ = true;
      owner_ = Owner::kTimer;
      mark_ = Clock::now();
      if (!simulator.step()) break;
      charge(Clock::now());
    }
  }

 private:
  enum class Owner { kSim, kDeliver, kTimer };

  void charge(Clock::time_point now) {
    const double dt = secondsBetween(mark_, now);
    switch (owner_) {
      case Owner::kSim:
        split_.forward_s += dt;
        break;
      case Owner::kDeliver:
        split_.deliver_s += dt;
        break;
      case Owner::kTimer:
        split_.timer_s += dt;
        break;
    }
    mark_ = now;
  }

  void onTrace(const sim::TraceEvent& event) {
    const auto now = Clock::now();
    const bool delivery = event.kind == sim::TraceEvent::Kind::kDeliver;
    if (first_) {
      first_ = false;
      if (delivery) {
        owner_ = Owner::kSim;
      } else {
        owner_ = event.from == event.packet.origin ? Owner::kTimer
                                                   : Owner::kSim;
      }
    }
    charge(now);
    if (delivery) {
      owner_ = Owner::kDeliver;
      delivered_at_ = event.to;
      delivered_ = event.packet;
    } else if (owner_ == Owner::kDeliver && event.from == delivered_at_ &&
               samePacket(event.packet, delivered_)) {
      owner_ = Owner::kSim;
    }
  }

  LoopSplit& split_;
  Clock::time_point mark_{};
  Owner owner_ = Owner::kTimer;
  bool first_ = true;
  net::NodeId delivered_at_ = net::kInvalidNode;
  sim::Packet delivered_{};
};

std::unique_ptr<protocols::RecoveryProtocol> makeProtocol(
    ProtocolKind kind, const Streams& streams, sim::SimNetwork& network,
    metrics::RecoveryMetrics& recovery, const core::RpPlanner& planner,
    const util::Rng& root) {
  const protocols::ProtocolConfig config;
  switch (kind) {
    case ProtocolKind::kRp:
      return std::make_unique<protocols::RpProtocol>(network, recovery, config,
                                                     planner);
    case ProtocolKind::kSrm:
      return std::make_unique<protocols::SrmProtocol>(
          network, recovery, config, protocols::SrmConfig{},
          root.fork(streams.srm));
    case ProtocolKind::kRma:
      return std::make_unique<protocols::RmaProtocol>(network, recovery,
                                                      config);
    case ProtocolKind::kParityFec:
      return std::make_unique<protocols::ParityProtocol>(
          network, recovery, config, protocols::ParityConfig{});
    case ProtocolKind::kCodedRlc:
      return std::make_unique<protocols::CodedProtocol>(
          network, recovery, config, protocols::CodedConfig{},
          root.fork(streams.coded));
    case ProtocolKind::kSourceDirect:
      break;
  }
  throw std::invalid_argument("perfbench: arm not benchmarked");
}

}  // namespace

void ArmRun::add(const ArmRun& other) {
  loop_s += other.loop_s;
  split.forward_s += other.split.forward_s;
  split.deliver_s += other.split.deliver_s;
  split.timer_s += other.split.timer_s;
  events += other.events;
  hop_sends += other.hop_sends;
  hop_drops += other.hop_drops;
  deliveries += other.deliveries;
  data_hops += other.data_hops;
  recovery_hops += other.recovery_hops;
  losses += other.losses;
  recoveries += other.recoveries;
  abandoned += other.abandoned;
  residual += other.residual;
  retries += other.retries;
  timeouts += other.timeouts;
  duplicate_deliveries += other.duplicate_deliveries;
  latency_samples += other.latency_samples;
}

std::vector<sim::LinkLossPattern> drawLosses(const net::Topology& topology,
                                             double loss_prob,
                                             std::uint32_t packets,
                                             const util::Rng& root,
                                             Layout layout) {
  sim::BernoulliLossProcess process(
      topology.tree.numMembers(), loss_prob,
      root.fork(streamsFor(layout, ProtocolKind::kRp).loss));
  std::vector<sim::LinkLossPattern> losses(packets);
  for (auto& pattern : losses) pattern = process.nextPattern();
  return losses;
}

core::PlannerOptions defaultPlannerOptions(unsigned threads) {
  const protocols::ProtocolConfig protocol;
  core::PlannerOptions options;
  options.per_peer_timeout_factor = protocol.timeout_factor;
  options.min_timeout_ms = protocol.min_timeout_ms;
  options.num_threads = threads;
  return options;
}

ArmRun runArm(ProtocolKind kind, const ReplicaConfig& config,
              const net::Topology& topology, const net::Routing& routing,
              const core::RpPlanner& planner,
              const std::vector<sim::LinkLossPattern>& losses,
              const util::Rng& root, SpanRecorder* spans) {
  const std::string arm{harness::toString(kind)};
  const int arm_span = openSpan(spans, "bench.arm." + arm);
  const Streams streams = streamsFor(config.layout, kind);

  const int build_span = openSpan(spans, "protocols.attach");
  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topology, routing, config.recovery_loss,
                          root.fork(streams.network));
  metrics::RecoveryMetrics recovery;
  if (config.layout == Layout::kExperiment) network.enableLinkAccounting(true);
  std::unique_ptr<protocols::RecoveryProtocol> protocol =
      makeProtocol(kind, streams, network, recovery, planner, root);
  protocol->attach();
  protocols::RecoveryProtocol* proto = protocol.get();
  for (std::uint32_t i = 0; i < losses.size(); ++i) {
    simulator.scheduleAt(static_cast<double>(i) * config.packet_interval_ms,
                         [proto, &losses, i] {
                           proto->sourceMulticast(i, losses[i]);
                         });
  }
  closeSpan(spans, build_span);

  ArmRun run;
  if (spans) {
    const int loop_span = spans->open("sim.event_loop");
    StepAttributor attributor(run.split);
    network.setTraceSink(attributor.sink());
    const auto start = Clock::now();
    attributor.run(simulator);
    const auto end = Clock::now();
    network.setTraceSink({});
    spans->close(loop_span);
    run.loop_s = secondsBetween(start, end);
    // The split, as three aggregate children laid end to end.
    auto at = start;
    const auto piece = [&](const char* name, double seconds) {
      const auto until =
          at + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
      spans->add(name, at, until, loop_span);
      at = until;
    };
    piece("sim.forward", run.split.forward_s);
    piece("protocols.deliver", run.split.deliver_s);
    piece("protocols.timer", run.split.timer_s);
  } else {
    run.loop_s = timeIt([&] { simulator.run(); });
  }
  if (config.layout == Layout::kExperiment) {
    const int finalize_span = openSpan(spans, "protocols.finalizeRun");
    protocol->finalizeRun();
    closeSpan(spans, finalize_span);
  }

  const int summarize_span = openSpan(spans, "metrics.summarize");
  run.latency = recovery.latency().summarize();
  closeSpan(spans, summarize_span);
  run.events = simulator.eventsProcessed();
  const sim::NetworkStats& stats = network.stats();
  run.data_hops = stats.data_hops;
  run.recovery_hops = stats.recovery_hops;
  run.hop_sends = stats.data_hops + stats.recovery_hops;
  run.hop_drops = stats.packets_lost;
  run.deliveries = stats.deliveries;
  run.losses = recovery.losses();
  run.recoveries = recovery.recoveries();
  run.abandoned = recovery.abandoned();
  run.residual = recovery.outstanding();
  run.retries = recovery.retries();
  run.timeouts = recovery.timeouts();
  run.duplicate_deliveries = protocol->duplicateDeliveries();
  run.latency_samples = recovery.latency().count();
  closeSpan(spans, arm_span);
  return run;
}

}  // namespace perfbench
