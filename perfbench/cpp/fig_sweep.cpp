// fig-sweep: the paper's Fig. 5/7 point through harness::runExperiment.
//
// n = 500 nodes (k ~ 200 clients), p = 5%, all five arms on identical loss
// draws.  Each timed round runs one random topology (seeded from --seed and
// the round) serially; topologies differ per round, so the medians cover
// dozens of topologies and do not hinge on one draw.  After the timed
// rounds, the first kTopologies of them go through
// runAveragedExperimentParallel at 2 and 4 threads, which must reproduce the
// serial counts.
#include <algorithm>
#include <string>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "replica.hpp"

namespace perfbench {
namespace {

using harness::ProtocolKind;

constexpr std::uint32_t kNodes = 500;
constexpr double kLoss = 0.05;
// The packet count of the repository's Fig. 5-8 drivers
// (bench/figure_common.hpp).
constexpr std::uint32_t kPackets = 60;
constexpr std::uint32_t kTopologies = 4;
constexpr ProtocolKind kArms[] = {ProtocolKind::kSrm, ProtocolKind::kRma,
                                  ProtocolKind::kRp, ProtocolKind::kParityFec,
                                  ProtocolKind::kCodedRlc};
constexpr std::size_t kNumArms = std::size(kArms);
constexpr std::size_t kRpArm = 2;

harness::ExperimentConfig configFor(std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.num_nodes = kNodes;
  config.loss_prob = kLoss;
  config.num_packets = kPackets;
  config.seed = seed;
  return config;
}

/// Experiment seed of a round; no two rounds share a topology.  The first
/// kTopologies rounds form the batch that the parallel sweep reruns.
std::uint64_t roundSeed(std::uint64_t seed, std::uint32_t round) {
  return seed * 1'000'003ULL + round;
}
/// Seconds left after the timed rounds for the parallel sweeps.
constexpr double kTailSeconds = 3.0;

/// Per-arm counts that must agree between serial and parallel runs of a
/// batch, and between two runs of one seed.
struct ArmCounts {
  std::uint64_t losses = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t residual = 0;
  std::uint64_t events = 0;
  std::uint64_t data_hops = 0;
  std::uint64_t recovery_hops = 0;
  std::uint64_t duplicate_deliveries = 0;
  bool operator==(const ArmCounts&) const = default;
};

void addCounts(ArmCounts& into, const harness::ProtocolResult& r) {
  into.losses += r.losses;
  into.recoveries += r.recoveries;
  into.abandoned += r.abandoned;
  into.residual += r.residual;
  into.events += r.events_processed;
  into.data_hops += r.data_hops;
  into.recovery_hops += r.recovery_hops;
  into.duplicate_deliveries += r.duplicate_deliveries;
}

std::vector<ArmCounts> countsOf(const harness::ExperimentResult& result) {
  std::vector<ArmCounts> counts(kNumArms);
  for (std::size_t a = 0; a < kNumArms; ++a) {
    addCounts(counts[a], result.protocols.at(a));
  }
  return counts;
}

/// Two runs of one seed: identical counts and simulated metrics.
bool sameRun(const harness::ExperimentResult& a,
             const harness::ExperimentResult& b) {
  if (countsOf(a) != countsOf(b)) return false;
  for (std::size_t i = 0; i < kNumArms; ++i) {
    const harness::ProtocolResult& x = a.protocols.at(i);
    const harness::ProtocolResult& y = b.protocols.at(i);
    if (x.avg_latency_ms != y.avg_latency_ms ||
        x.avg_bandwidth_hops != y.avg_bandwidth_hops ||
        x.latency.count != y.latency.count || x.latency.p50 != y.latency.p50 ||
        x.latency.p99 != y.latency.p99 || x.retries != y.retries ||
        x.timeouts != y.timeouts) {
      return false;
    }
  }
  return true;
}

/// Conservation and cross-arm checks on one experiment; counts its losses as
/// attempted and the unrecovered ones as failed.
void checkExperiment(Result& out, const harness::ExperimentResult& result) {
  const std::size_t base_losses = result.protocols.at(0).losses;
  for (const harness::ProtocolResult& r : result.protocols) {
    const std::string arm{harness::toString(r.kind)};
    out.check(r.losses == r.recoveries + r.abandoned + r.residual,
              "fig-sweep: losses = recoveries + abandoned + residual (" + arm +
                  ")");
    out.check(r.losses == base_losses,
              "fig-sweep: identical loss counts across arms (" + arm + ")");
    out.attempted += r.losses;
    out.failed += r.residual;
  }
}

void untraced(const RunOptions& options, Result& out) {
  Samples wall, us_per_recovery, setup;
  std::vector<double> rp_p50, rp_p99;
  std::uint64_t rp_hops = 0, rp_recoveries = 0;
  std::vector<ArmCounts> batch(kNumArms);  // sums over the first batch
  double batch_t1 = 0.0;
  // The run's time counts from here; the rounds stop early enough to leave
  // kTailSeconds for the parallel sweeps.
  const auto start = Clock::now();
  const double budget = options.seconds - kTailSeconds;
  // Warm-up, untimed: the reference of the determinism check on round 0.
  const harness::ExperimentResult first =
      harness::runExperiment(configFor(roundSeed(options.seed, 0)), kArms);
  std::uint32_t rounds = 0;
  for (;; ++rounds) {
    harness::ExperimentResult one;
    const Timed call = timeClean([&] {
      one = harness::runExperiment(configFor(roundSeed(options.seed, rounds)),
                                   kArms);
    });
    checkExperiment(out, one);
    wall.add(call);
    setup.add(one.setup_wall_ms / 1e3, call.clean);
    std::uint64_t recoveries = 0;
    for (const harness::ProtocolResult& r : one.protocols) {
      recoveries += r.recoveries;
    }
    us_per_recovery.add(
        one.sim_wall_ms * 1e3 / static_cast<double>(recoveries), call.clean);
    const harness::ProtocolResult& rp = one.protocols.at(kRpArm);
    rp_p50.push_back(rp.latency.p50);
    rp_p99.push_back(rp.latency.p99);
    rp_hops += rp.recovery_hops;
    rp_recoveries += rp.recoveries;
    if (rounds < kTopologies) {
      for (std::size_t a = 0; a < kNumArms; ++a) {
        addCounts(batch[a], one.protocols.at(a));
      }
      batch_t1 += call.seconds;
    }
    if (rounds == 0) {
      out.check(sameRun(one, first),
                "fig-sweep: same seed gives identical counts and simulated "
                "metrics");
    }
    const double elapsed = secondsBetween(start, Clock::now());
    if (rounds + 1 >= kTopologies && elapsed + call.seconds > budget) break;
  }
  out.setE2e("peak_rss_mb", peakRssMb());

  // The first batch again through the parallel sweep, which must reproduce
  // the serial counts.  Timed once each and reported, not bounded: on a
  // shared 4-vCPU host their wall time is set by the host's scheduler.
  const harness::ExperimentConfig batch_config =
      configFor(roundSeed(options.seed, 0));
  for (const unsigned threads : {2U, 4U}) {
    harness::ExperimentResult par;
    const double seconds = timeIt([&] {
      par = harness::runAveragedExperimentParallel(batch_config, kTopologies,
                                                   kArms, threads);
    });
    out.check(countsOf(par) == batch,
              "fig-sweep: " + std::to_string(threads) +
                  "-thread sweep reproduces the serial counts");
    out.setNamed("batch_t" + std::to_string(threads) + "_s", seconds, "s");
  }

  out.setE2e("setup_s", setup);
  out.setE2e("wall_s", wall);
  out.setE2e("us_per_op", us_per_recovery);
  out.setNamed("experiment_s", wall, "s");
  out.setNamed("batch_t1_s", batch_t1, "s");
  out.setNamed("setup_s", setup, "s");
  out.setNamed("us_per_recovery", us_per_recovery, "us");
  out.setNamed("recovery_latency_p50_ms", median(rp_p50), "ms(sim)",
               rp_p50.size());
  out.setNamed("recovery_latency_p99_ms", median(rp_p99), "ms(sim)",
               rp_p99.size());
  out.setNamed("hops_per_recovery",
               static_cast<double>(rp_hops) /
                   static_cast<double>(rp_recoveries),
               "hops", rp_p50.size());
  out.info["rounds"] = std::to_string(wall.size());
  out.info["topologies"] = std::to_string(wall.size());
}

/// What one replica pass over the first batch produced.
struct Pass {
  double wall_s = 0.0;
  std::vector<ArmRun> arms = std::vector<ArmRun>(kNumArms);  // per-arm sums
  std::uint64_t routing_rows = 0;
  std::uint64_t clients = 0;
};

/// One traced or untraced pass over the first `topologies` of the first
/// batch, rebuilt from public parts.
Pass replicaPass(const RunOptions& options, SpanRecorder* spans,
                 std::uint32_t topologies = kTopologies) {
  Pass pass;
  const auto start = Clock::now();
  for (std::uint32_t i = 0; i < topologies; ++i) {
    const harness::ExperimentConfig config =
        configFor(roundSeed(options.seed, i));
    const util::Rng root(config.seed);
    int span = openSpan(spans, "net.generateTopology");
    net::TopologyConfig topo_config = config.topology;
    topo_config.num_nodes = config.num_nodes;
    util::Rng topo_rng = root.fork(1);
    const net::Topology topology = net::generateTopology(topo_config, topo_rng);
    closeSpan(spans, span);
    span = openSpan(spans, "net.Routing");
    const net::Routing routing(topology.graph);
    closeSpan(spans, span);
    span = openSpan(spans, "sim.loss_draws");
    const std::vector<sim::LinkLossPattern> losses = drawLosses(
        topology, config.loss_prob, config.num_packets, root,
        Layout::kExperiment);
    closeSpan(spans, span);
    span = openSpan(spans, "core.RpPlanner.t1");
    const core::RpPlanner planner(topology, routing, defaultPlannerOptions(1));
    closeSpan(spans, span);
    if (spans) {
      span = openSpan(spans, "core.RpPlanner.t4");
      const core::RpPlanner wide(topology, routing, defaultPlannerOptions(4));
      closeSpan(spans, span);
    }
    pass.routing_rows += routing.numRows();
    pass.clients += topology.clients.size();
    ReplicaConfig replica;
    replica.layout = Layout::kExperiment;
    replica.packet_interval_ms = config.data_interval_ms;
    for (std::size_t a = 0; a < kNumArms; ++a) {
      pass.arms[a].add(runArm(kArms[a], replica, topology, routing, planner,
                              losses, root, spans));
    }
  }
  pass.wall_s = secondsBetween(start, Clock::now());
  return pass;
}

/// Whether the replica reproduces harness::runExperiment on the first
/// topology (spanned as harness.runExperiment).
bool replicaMatchesHarness(const RunOptions& options, SpanRecorder& spans) {
  const int span = spans.open("harness.runExperiment");
  const harness::ExperimentResult harness_result =
      harness::runExperiment(configFor(roundSeed(options.seed, 0)), kArms);
  spans.close(span);
  const Pass one = replicaPass(options, nullptr, 1);
  bool match = true;
  for (std::size_t a = 0; a < kNumArms; ++a) {
    const harness::ProtocolResult& h = harness_result.protocols.at(a);
    match = match && one.arms[a].events == h.events_processed &&
            one.arms[a].losses == h.losses &&
            one.arms[a].recoveries == h.recoveries &&
            one.arms[a].recovery_hops == h.recovery_hops &&
            one.arms[a].data_hops == h.data_hops;
  }
  return match;
}

void traced(const RunOptions& options, Result& out) {
  std::vector<double> overhead, topology_s, routing_s, plan_t1, plan_t4,
      loss_s, forward_s, deliver_s, timer_s, summarize_s;
  std::vector<std::vector<double>> arm_loop(kNumArms);
  Pass pass;
  const auto start = Clock::now();
  for (int repeat = 0;; ++repeat) {
    const auto repeat_start = Clock::now();
    const Pass plain = replicaPass(options, nullptr);
    SpanRecorder spans;
    pass = replicaPass(options, &spans);
    overhead.push_back(pass.wall_s / plain.wall_s);
    for (std::size_t a = 0; a < kNumArms; ++a) {
      arm_loop[a].push_back(plain.arms[a].loop_s);
      out.check(plain.arms[a].events == pass.arms[a].events &&
                    plain.arms[a].recoveries == pass.arms[a].recoveries,
                "fig-sweep: traced and untraced replicas agree");
    }
    topology_s.push_back(spans.total("net.generateTopology"));
    routing_s.push_back(spans.total("net.Routing"));
    plan_t1.push_back(spans.total("core.RpPlanner.t1"));
    plan_t4.push_back(spans.total("core.RpPlanner.t4"));
    loss_s.push_back(spans.total("sim.loss_draws"));
    forward_s.push_back(spans.total("sim.forward"));
    deliver_s.push_back(spans.total("protocols.deliver"));
    timer_s.push_back(spans.total("protocols.timer"));
    summarize_s.push_back(spans.total("metrics.summarize"));
    if (repeat == 0) {
      out.check(replicaMatchesHarness(options, spans),
                "fig-sweep: traced replica reproduces harness counts");
    }
    out.spans.append(spans);

    const double elapsed = secondsBetween(start, Clock::now());
    const double last = secondsBetween(repeat_start, Clock::now());
    if (elapsed + last > options.seconds) break;
  }

  const std::size_t n = overhead.size();
  std::uint64_t events = 0, hop_sends = 0, hop_drops = 0, deliveries = 0,
                retries = 0, timeouts = 0, duplicates = 0, recoveries = 0,
                samples = 0;
  double loop_s = 0.0;
  for (std::size_t a = 0; a < kNumArms; ++a) {
    const ArmRun& arm = pass.arms[a];
    const std::string prefix = "protocols." + std::string(kArmNames[a]);
    const double arm_s = median(arm_loop[a]);
    out.setLayer(prefix + ".sim_s", arm_s, n);
    out.setLayer(prefix + ".events", static_cast<double>(arm.events));
    out.setLayer(prefix + ".us_per_recovery",
                 arm_s * 1e6 / static_cast<double>(arm.recoveries), n);
    out.check(arm.losses == arm.recoveries + arm.abandoned + arm.residual,
              "fig-sweep: replica conserves losses (" +
                  std::string(kArmNames[a]) + ")");
    out.attempted += arm.losses;
    out.failed += arm.residual;
    events += arm.events;
    hop_sends += arm.hop_sends;
    hop_drops += arm.hop_drops;
    deliveries += arm.deliveries;
    retries += arm.retries;
    timeouts += arm.timeouts;
    duplicates += arm.duplicate_deliveries;
    recoveries += arm.recoveries;
    samples += arm.latency_samples;
    loop_s += arm_s;
  }
  const double t1 = median(plan_t1);
  out.setLayer("net.topology_s", median(topology_s), n);
  out.setLayer("net.routing_s", median(routing_s), n);
  out.setLayer("net.routing_rows", static_cast<double>(pass.routing_rows));
  out.setLayer("core.plan_t1_s", t1, n);
  out.setLayer("core.plan_us_per_client",
               t1 * 1e6 / static_cast<double>(pass.clients), n);
  out.setLayer("core.plan_scaling_t4", t1 / median(plan_t4), n);
  out.setLayer("sim.loss_draw_s", median(loss_s), n);
  out.setLayer("sim.events", static_cast<double>(events));
  out.setLayer("sim.events_per_s", static_cast<double>(events) / loop_s, n);
  out.setLayer("sim.ns_per_event", loop_s * 1e9 / static_cast<double>(events),
               n);
  out.setLayer("sim.hop_sends", static_cast<double>(hop_sends));
  out.setLayer("sim.hop_drops", static_cast<double>(hop_drops));
  out.setLayer("sim.deliveries", static_cast<double>(deliveries));
  out.setLayer("sim.forward_self_s", median(forward_s), n);
  out.setLayer("protocols.deliver_self_s", median(deliver_s), n);
  out.setLayer("protocols.timer_self_s", median(timer_s), n);
  out.setLayer("protocols.retries", static_cast<double>(retries));
  out.setLayer("protocols.timeouts", static_cast<double>(timeouts));
  out.setLayer("protocols.duplicate_deliveries",
               static_cast<double>(duplicates));
  out.setLayer("protocols.useful_repair_ratio",
               static_cast<double>(recoveries) /
                   static_cast<double>(recoveries + duplicates));
  out.setLayer("metrics.latency_samples", static_cast<double>(samples));
  out.setLayer("metrics.summarize_s", median(summarize_s), n);
  out.setLayer("trace.overhead", median(overhead), n);
  out.info["repeats"] = std::to_string(n);
  out.info["attribution_rule"] = "perfbench/cpp/replica.hpp";
}

}  // namespace

Result runFigSweep(const RunOptions& options) {
  Result out;
  out.info["loop"] = "batch, one caller";
  out.info["sizes"] = "n=500, p=5%, " + std::to_string(kPackets) +
                      " packets, one topology per round, arms SRM RMA RP FEC "
                      "CODED; parallel sweeps at 2 and 4 threads over the "
                      "first " +
                      std::to_string(kTopologies) + " topologies";
  out.info["wall_s"] = "runExperiment on one topology, serial";
  out.info["us_per_op"] = "sim-loop wall per recovered packet, all arms";
  out.info["setup_s"] = "runExperiment set-up per topology";
  out.info["peak_rss_mb"] = "peak resident set after the serial rounds";
  if (options.trace) {
    traced(options, out);
  } else {
    untraced(options, out);
  }
  return out;
}

}  // namespace perfbench
