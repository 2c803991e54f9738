#include "harness/parsim.hpp"

#include <vector>

#include "harness/world.hpp"
#include "sim/parallel_engine.hpp"

namespace rmrn::harness {

ParsimReport runParallelTransfer(const net::Topology& topology,
                                 const TransferConfig& config,
                                 const ParsimConfig& parallel,
                                 const sim::FaultPlan* faults) {
  // One planner and one pattern table, shared read-only by every region.
  // The patterns come from the serial transfer's loss stream, so all regions
  // (and the serial engine) see the exact same data-loss ground truth.
  const util::Rng root(config.seed);
  const std::vector<sim::LinkLossPattern> patterns = drawLossPatterns(
      topology, config.loss_prob, config.mean_burst_packets,
      config.num_packets,
      substreams(StreamLayout::kTransfer, root, config.protocol).loss);
  const net::Routing routing(topology.graph);
  const std::unique_ptr<core::RpPlanner> planner =
      makePlanner(config.protocol, topology, routing, config.rp_planner,
                  config.protocol_config);
  const sim::RegionMap regions(topology, parallel.target_regions);
  sim::ParallelEngine engine(regions, parallel.workers,
                             parallel.mailbox_capacity);

  std::vector<std::unique_ptr<World>> worlds;
  for (std::uint32_t r = 0; r < regions.numRegions(); ++r) {
    // Per-region substreams, keyed canonically by region id: the draws a
    // region makes depend only on (seed, region), never on worker count.
    const Substreams streams = substreams(
        StreamLayout::kTransfer, root.fork(0x7000u + r), config.protocol);
    const WorldShard shard{regions, r, engine.outboxFor(r)};
    worlds.push_back(std::make_unique<World>(
        topology, routing,
        transferSpec(config, planner.get(), faults, streams), &shard));
    worlds.back()->scheduleSource(patterns, config.packet_interval_ms);
    engine.attach(r, &worlds.back()->simulator, &worlds.back()->network);
  }

  const sim::ParallelEngine::Stats stats = engine.run();
  ParsimReport report;
  report.regions = stats.regions;
  report.lanes = stats.lanes;
  report.epochs = stats.epochs;
  report.handoffs = stats.handoffs;
  report.events = stats.events;
  report.lookahead_ms = stats.lookahead_ms;
  // Merge in canonical region order (region 0 upward) so every aggregate is
  // worker-count independent.
  for (const std::unique_ptr<World>& world : worlds) {
    world->protocol->finalizeRun();
    report.retries += world->recovery.retries();
    report.timeouts += world->recovery.timeouts();
    report.abandoned += world->recovery.abandoned();
    report.abandoned_sessions += world->recovery.abandonedSessions();
    report.chaos_link_drops += world->network.stats().chaos_link_drops;
    report.duplicates_created += world->network.stats().duplicates_created;
  }
  report.transfer = transferReport(worlds, topology, config, &regions);
  return report;
}

}  // namespace rmrn::harness
