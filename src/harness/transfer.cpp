#include "harness/transfer.hpp"

#include "harness/world.hpp"

namespace rmrn::harness {

TransferReport runTransfer(const net::Topology& topology,
                           const TransferConfig& config) {
  const Substreams streams = substreams(
      StreamLayout::kTransfer, util::Rng(config.seed), config.protocol);
  const net::Routing routing(topology.graph);
  const std::unique_ptr<core::RpPlanner> planner =
      makePlanner(config.protocol, topology, routing, config.rp_planner,
                  config.protocol_config);
  const std::vector<sim::LinkLossPattern> patterns =
      drawLossPatterns(topology, config.loss_prob, config.mean_burst_packets,
                       config.num_packets, streams.loss);
  const auto world = std::make_unique<World>(
      topology, routing,
      transferSpec(config, planner.get(), nullptr, streams));
  world->scheduleSource(patterns, config.packet_interval_ms);
  world->run();
  return transferReport({&world, 1}, topology, config);
}

}  // namespace rmrn::harness
