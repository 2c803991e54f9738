// Parallel reliable-transfer harness: the runTransfer() workload on the
// conservative sharded engine (sim/parallel_engine.hpp, DESIGN.md §14).
//
// The topology is split into a canonical region set (sim/RegionMap) that
// depends only on (topology, target_regions) — never on the worker count —
// and each region gets its own harness::World, sharing one planner and one
// loss-pattern table read-only.  Workers only change which thread advances a
// region, so a seeded run is bit-identical for any worker count; that is the
// determinism contract the parsim tests and the CI parsim-smoke job pin.
// Results may differ from the serial runTransfer() when recovery traffic
// consumes RNG draws (per-region substreams).  With lossless recovery links
// RP, SRC and RMA match it, as
// ParsimTest.MatchesSerialHarnessWhenRecoveryLossless checks.  FEC may not:
// a handoff takes its queue order when the barrier injects it, so it fires
// after a same-time local timer that the serial engine fires after it.
#pragma once

#include <cstdint>

#include "harness/transfer.hpp"
#include "net/topology.hpp"
#include "sim/fault_injector.hpp"

namespace rmrn::harness {

struct ParsimConfig {
  /// Target worker regions for the RegionMap (the crown is extra);
  /// <= 1 collapses to a single region with infinite lookahead.
  std::uint32_t target_regions = 8;
  /// Requested pool lanes (clamped to host concurrency; 0 = one per core).
  unsigned workers = 1;
  /// SPSC mailbox ring capacity (overflow spills to a lock).
  std::size_t mailbox_capacity = 1024;
};

struct ParsimReport {
  /// Merged transfer results, same shape as the serial runTransfer().
  TransferReport transfer;

  // Engine accounting.
  std::uint32_t regions = 0;
  unsigned lanes = 0;          // pool lanes actually available
  std::uint64_t epochs = 0;    // conservative barrier rounds
  std::uint64_t handoffs = 0;  // cross-region packet transfers
  std::uint64_t events = 0;    // events fired across all regions
  double lookahead_ms = 0.0;   // 0 when a single region ran unbounded

  // Resilience counters merged over regions in canonical region order.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::size_t abandoned = 0;
  std::size_t abandoned_sessions = 0;
  std::uint64_t chaos_link_drops = 0;
  std::uint64_t duplicates_created = 0;
};

/// Runs one transfer over `topology` on the parallel engine.  Deterministic
/// in (topology, config, parallel.target_regions, faults) — the worker
/// count does not affect any reported value.  `faults` (optional) replays
/// the same plan in every region under the experiment driver's fault policy.
[[nodiscard]] ParsimReport runParallelTransfer(
    const net::Topology& topology, const TransferConfig& config,
    const ParsimConfig& parallel, const sim::FaultPlan* faults = nullptr);

}  // namespace rmrn::harness
