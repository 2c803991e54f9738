// lossy-transfer: the full-reliability file transfer on the serial engine
// and on the sharded parallel engine.
//
// The topology is the CI parsim-smoke one (240 nodes, topology seed 1); RP
// with p = 10% on data and recovery traffic, 4 target regions.  --seed
// drives the transfer's loss draws.  Each timed round runs
// harness::runTransfer once and harness::runParallelTransfer at 1 worker;
// after the timed rounds, 2 and 4 workers run kWideRepeats times each.  The
// merged parallel reports must be identical at every worker count and across
// rounds.
#include <string>

#include "common.hpp"
#include "harness/parsim.hpp"
#include "harness/transfer.hpp"
#include "replica.hpp"
#include "sim/region_map.hpp"

namespace perfbench {
namespace {

using harness::ProtocolKind;

constexpr std::uint32_t kNodes = 240;
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::uint32_t kPackets = 600;
constexpr double kLoss = 0.10;
constexpr std::uint32_t kRegions = 4;
constexpr unsigned kWorkers[] = {1, 2, 4};
/// Worker counts run after the timed rounds, and how often each runs.
constexpr unsigned kWideWorkers[] = {2, 4};
constexpr int kWideRepeats = 2;
/// Seconds left after the timed rounds for the 2- and 4-worker runs.
constexpr double kTailSeconds = 4.0;
constexpr std::size_t kRpArm = 2;

net::Topology makeTopology() {
  util::Rng rng(kTopologySeed);
  net::TopologyConfig config;
  config.num_nodes = kNodes;
  return net::generateTopology(config, rng);
}

harness::TransferConfig transferConfig(std::uint64_t seed) {
  harness::TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = kPackets;
  config.loss_prob = kLoss;
  config.lossy_recovery = true;
  config.seed = seed;
  return config;
}

harness::ParsimReport runParsim(const net::Topology& topology,
                                const harness::TransferConfig& config,
                                unsigned workers) {
  harness::ParsimConfig parallel;
  parallel.target_regions = kRegions;
  parallel.workers = workers;
  return harness::runParallelTransfer(topology, config, parallel);
}

bool sameTransfer(const harness::TransferReport& a,
                  const harness::TransferReport& b) {
  if (a.complete != b.complete || a.duration_ms != b.duration_ms ||
      a.losses != b.losses || a.recoveries != b.recoveries ||
      a.data_hops != b.data_hops || a.recovery_hops != b.recovery_hops ||
      a.avg_recovery_latency_ms != b.avg_recovery_latency_ms ||
      a.recovery_latency.p50 != b.recovery_latency.p50 ||
      a.recovery_latency.p99 != b.recovery_latency.p99 ||
      a.completions.size() != b.completions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    if (a.completions[i].client != b.completions[i].client ||
        a.completions[i].completed_at_ms != b.completions[i].completed_at_ms ||
        a.completions[i].losses != b.completions[i].losses) {
      return false;
    }
  }
  return true;
}

bool sameParsim(const harness::ParsimReport& a,
                const harness::ParsimReport& b) {
  return sameTransfer(a.transfer, b.transfer) && a.regions == b.regions &&
         a.epochs == b.epochs && a.handoffs == b.handoffs &&
         a.events == b.events && a.lookahead_ms == b.lookahead_ms &&
         a.retries == b.retries && a.timeouts == b.timeouts &&
         a.abandoned == b.abandoned;
}

/// What runTransfer does before its first event, from public parts: the
/// routing table, the planner and the loss draws (plus the topology).
Timed setUp(std::uint64_t seed) {
  return timeClean([&] {
    const net::Topology topology = makeTopology();
    const net::Routing routing(topology.graph);
    const core::RpPlanner planner(topology, routing, defaultPlannerOptions(1));
    const auto losses = drawLosses(topology, kLoss, kPackets,
                                   util::Rng(seed), Layout::kTransfer);
    (void)planner;
    (void)losses;
  });
}

void untraced(const RunOptions& options, Result& out) {
  // The run's time counts from here; the rounds stop early enough to leave
  // kTailSeconds for the 2- and 4-worker runs.
  const auto start = Clock::now();
  const double budget = options.seconds - kTailSeconds;
  const net::Topology topology = makeTopology();
  const harness::TransferConfig config = transferConfig(options.seed);
  Samples setup, serial_s, w1_s, us_per_recovery;
  // Warm-up, untimed: the references of the determinism checks.
  const harness::TransferReport first_serial =
      harness::runTransfer(topology, config);
  const harness::ParsimReport first_parsim = runParsim(topology, config, 1);
  const auto check_parsim = [&](const harness::ParsimReport& report) {
    out.check(report.transfer.complete,
              "lossy-transfer: parallel transfer completes");
    out.check(report.transfer.losses ==
                  report.transfer.recoveries + report.abandoned,
              "lossy-transfer: parallel losses = recoveries + abandoned");
    out.check(sameParsim(report, first_parsim),
              "lossy-transfer: merged parsim report identical at 1, 2 and 4 "
              "workers and across rounds");
  };
  for (int round = 0;; ++round) {
    const auto round_start = Clock::now();
    setup.add(setUp(options.seed));
    harness::TransferReport serial;
    serial_s.add(
        timeClean([&] { serial = harness::runTransfer(topology, config); }));
    out.check(serial.complete, "lossy-transfer: serial transfer completes");
    // No faults, so nothing is abandoned: every loss must be recovered.
    out.check(serial.losses == serial.recoveries,
              "lossy-transfer: serial losses = recoveries");
    out.attempted += serial.losses;
    out.failed += serial.losses - std::min(serial.losses, serial.recoveries);
    out.check(sameTransfer(serial, first_serial),
              "lossy-transfer: same seed gives an identical serial transfer");

    harness::ParsimReport report;
    const Timed w1 =
        timeClean([&] { report = runParsim(topology, config, 1); });
    w1_s.add(w1);
    us_per_recovery.add(
        w1.seconds * 1e6 / static_cast<double>(report.transfer.recoveries),
        w1.clean);
    check_parsim(report);

    const double elapsed = secondsBetween(start, Clock::now());
    const double last = secondsBetween(round_start, Clock::now());
    if (elapsed + last > budget) break;
  }
  out.setE2e("peak_rss_mb", peakRssMb());

  // 2 and 4 workers: checked, timed and reported, not bounded (see
  // report_only in perfbench/interaction_map.json).
  Samples wide_s[2];
  for (int repeat = 0; repeat < kWideRepeats; ++repeat) {
    for (std::size_t w = 0; w < std::size(kWideWorkers); ++w) {
      harness::ParsimReport report;
      wide_s[w].add(timeClean(
          [&] { report = runParsim(topology, config, kWideWorkers[w]); }));
      check_parsim(report);
    }
  }

  out.setE2e("setup_s", setup);
  out.setE2e("wall_s", serial_s);
  out.setE2e("us_per_op", us_per_recovery);
  out.setNamed("setup_s", setup, "s");
  out.setNamed("transfer_s", serial_s, "s");
  out.setNamed("parsim_w1_s", w1_s, "s");
  out.setNamed("parsim_w2_s", wide_s[0], "s");
  out.setNamed("parsim_w4_s", wide_s[1], "s");
  out.setNamed("us_per_recovery", us_per_recovery, "us");
  out.setNamed("completion_ms", first_serial.duration_ms, "ms(sim)");
  out.setNamed("recovery_latency_p50_ms", first_serial.recovery_latency.p50,
               "ms(sim)");
  out.setNamed("recovery_latency_p99_ms", first_serial.recovery_latency.p99,
               "ms(sim)");
  out.setNamed("hops_per_recovery",
               static_cast<double>(first_serial.recovery_hops) /
                   static_cast<double>(first_serial.recoveries),
               "hops");
  out.info["rounds"] = std::to_string(serial_s.size());
}

void traced(const RunOptions& options, Result& out) {
  const harness::TransferConfig config = transferConfig(options.seed);
  ReplicaConfig replica;
  replica.layout = Layout::kTransfer;
  replica.packet_interval_ms = config.packet_interval_ms;
  replica.recovery_loss = kLoss;
  const util::Rng root(options.seed);

  std::vector<double> overhead, topology_s, routing_s, plan_t1, plan_t4,
      loss_s, forward_s, deliver_s, timer_s, summarize_s, rp_loop, region_s,
      serial_s, w_s[3];
  ArmRun arm;
  std::uint64_t routing_rows = 0, clients = 0;
  harness::ParsimReport parsim;
  harness::ParsimReport first_parsim;
  const auto start = Clock::now();
  for (int repeat = 0;; ++repeat) {
    const auto repeat_start = Clock::now();
    // One replica pass: set-up plus the serial RP transfer.
    const auto pass = [&](SpanRecorder* spans) {
      int span = openSpan(spans, "net.generateTopology");
      const net::Topology topology = makeTopology();
      closeSpan(spans, span);
      span = openSpan(spans, "net.Routing");
      const net::Routing routing(topology.graph);
      closeSpan(spans, span);
      span = openSpan(spans, "sim.loss_draws");
      const auto losses =
          drawLosses(topology, kLoss, kPackets, root, Layout::kTransfer);
      closeSpan(spans, span);
      span = openSpan(spans, "core.RpPlanner.t1");
      const core::RpPlanner planner(topology, routing,
                                    defaultPlannerOptions(1));
      closeSpan(spans, span);
      if (spans) {
        span = openSpan(spans, "core.RpPlanner.t4");
        const core::RpPlanner wide(topology, routing, defaultPlannerOptions(4));
        closeSpan(spans, span);
      }
      routing_rows = routing.numRows();
      clients = topology.clients.size();
      return runArm(ProtocolKind::kRp, replica, topology, routing, planner,
                    losses, root, spans);
    };
    ArmRun plain;
    const double untraced_s = timeIt([&] { plain = pass(nullptr); });
    SpanRecorder spans;
    const double traced_s = timeIt([&] { arm = pass(&spans); });
    overhead.push_back(traced_s / untraced_s);
    rp_loop.push_back(plain.loop_s);
    out.check(plain.events == arm.events &&
                  plain.recoveries == arm.recoveries &&
                  plain.latency.p50 == arm.latency.p50 &&
                  plain.latency.p99 == arm.latency.p99,
              "lossy-transfer: traced and untraced replicas agree");

    // The harness calls, spanned from outside.
    const net::Topology topology = makeTopology();
    harness::TransferReport serial;
    int span = spans.open("harness.runTransfer");
    serial = harness::runTransfer(topology, config);
    spans.close(span);
    span = spans.open("sim.RegionMap");
    const sim::RegionMap regions(topology, kRegions);
    spans.close(span);
    for (std::size_t w = 0; w < std::size(kWorkers); ++w) {
      const std::string name =
          "harness.runParallelTransfer.w" + std::to_string(kWorkers[w]);
      span = spans.open(name);
      parsim = runParsim(topology, config, kWorkers[w]);
      spans.close(span);
      w_s[w].push_back(spans.total(name));
      out.check(parsim.transfer.complete,
                "lossy-transfer: parallel transfer completes");
      if (repeat == 0 && w == 0) first_parsim = parsim;
      out.check(sameParsim(parsim, first_parsim),
                "lossy-transfer: merged parsim report identical at 1, 2 and 4 "
                "workers and across rounds");
    }
    out.check(plain.losses == serial.losses &&
                  plain.recoveries == serial.recoveries &&
                  plain.data_hops == serial.data_hops &&
                  plain.recovery_hops == serial.recovery_hops,
              "lossy-transfer: traced replica reproduces harness counts");

    topology_s.push_back(spans.total("net.generateTopology"));
    routing_s.push_back(spans.total("net.Routing"));
    plan_t1.push_back(spans.total("core.RpPlanner.t1"));
    plan_t4.push_back(spans.total("core.RpPlanner.t4"));
    loss_s.push_back(spans.total("sim.loss_draws"));
    forward_s.push_back(spans.total("sim.forward"));
    deliver_s.push_back(spans.total("protocols.deliver"));
    timer_s.push_back(spans.total("protocols.timer"));
    summarize_s.push_back(spans.total("metrics.summarize"));
    region_s.push_back(spans.total("sim.RegionMap"));
    serial_s.push_back(spans.total("harness.runTransfer"));
    out.spans.append(spans);

    const double elapsed = secondsBetween(start, Clock::now());
    const double last = secondsBetween(repeat_start, Clock::now());
    if (elapsed + last > options.seconds) break;
  }

  const std::size_t n = overhead.size();
  out.check(arm.losses == arm.recoveries + arm.abandoned + arm.residual,
            "lossy-transfer: replica conserves losses");
  out.attempted += arm.losses;
  out.failed += arm.residual;
  const double loop_s = median(rp_loop);
  const double t1 = median(plan_t1);
  const auto events = static_cast<double>(arm.events);
  out.setLayer("net.topology_s", median(topology_s), n);
  out.setLayer("net.routing_s", median(routing_s), n);
  out.setLayer("net.routing_rows", static_cast<double>(routing_rows));
  out.setLayer("core.plan_t1_s", t1, n);
  out.setLayer("core.plan_us_per_client",
               t1 * 1e6 / static_cast<double>(clients), n);
  out.setLayer("core.plan_scaling_t4", t1 / median(plan_t4), n);
  out.setLayer("sim.loss_draw_s", median(loss_s), n);
  out.setLayer("sim.events", events);
  out.setLayer("sim.events_per_s", events / loop_s, n);
  out.setLayer("sim.ns_per_event", loop_s * 1e9 / events, n);
  out.setLayer("sim.hop_sends", static_cast<double>(arm.hop_sends));
  out.setLayer("sim.hop_drops", static_cast<double>(arm.hop_drops));
  out.setLayer("sim.deliveries", static_cast<double>(arm.deliveries));
  out.setLayer("sim.forward_self_s", median(forward_s), n);
  const std::string rp = "protocols." + std::string(kArmNames[kRpArm]);
  out.setLayer(rp + ".sim_s", loop_s, n);
  out.setLayer(rp + ".events", events);
  out.setLayer(rp + ".us_per_recovery",
               loop_s * 1e6 / static_cast<double>(arm.recoveries), n);
  out.setLayer("protocols.deliver_self_s", median(deliver_s), n);
  out.setLayer("protocols.timer_self_s", median(timer_s), n);
  out.setLayer("protocols.retries", static_cast<double>(arm.retries));
  out.setLayer("protocols.timeouts", static_cast<double>(arm.timeouts));
  out.setLayer("protocols.duplicate_deliveries",
               static_cast<double>(arm.duplicate_deliveries));
  out.setLayer("protocols.useful_repair_ratio",
               static_cast<double>(arm.recoveries) /
                   static_cast<double>(arm.recoveries +
                                       arm.duplicate_deliveries));
  out.setLayer("metrics.latency_samples",
               static_cast<double>(arm.latency_samples));
  out.setLayer("metrics.summarize_s", median(summarize_s), n);
  const auto epochs = static_cast<double>(parsim.epochs);
  out.setLayer("parsim.region_map_s", median(region_s), n);
  out.setLayer("parsim.regions", parsim.regions);
  out.setLayer("parsim.lookahead_ms", parsim.lookahead_ms);
  out.setLayer("parsim.epochs", epochs);
  out.setLayer("parsim.handoffs", static_cast<double>(parsim.handoffs));
  out.setLayer("parsim.handoff_fraction",
               static_cast<double>(parsim.handoffs) /
                   static_cast<double>(parsim.events));
  out.setLayer("parsim.events_per_epoch",
               static_cast<double>(parsim.events) / epochs);
  out.setLayer("parsim.us_per_epoch_w1", median(w_s[0]) * 1e6 / epochs, n);
  out.setLayer("parsim.us_per_epoch_w2", median(w_s[1]) * 1e6 / epochs, n);
  out.setLayer("parsim.us_per_epoch_w4", median(w_s[2]) * 1e6 / epochs, n);
  out.setLayer("parsim.w1_overhead", median(w_s[0]) / median(serial_s), n);
  out.setLayer("trace.overhead", median(overhead), n);
  out.info["repeats"] = std::to_string(n);
  out.info["attribution_rule"] = "perfbench/cpp/replica.hpp";
}

}  // namespace

Result runLossyTransfer(const RunOptions& options) {
  Result out;
  out.info["loop"] = "batch, one caller";
  out.info["sizes"] = "n=240 (topology seed 1), RP, p=10% data and recovery, " +
                      std::to_string(kPackets) +
                      " packets at 5 ms, target_regions=4";
  out.info["wall_s"] = "runTransfer (serial engine)";
  out.info["us_per_op"] =
      "runParallelTransfer at 1 worker (sharded engine), wall per recovered "
      "packet";
  out.info["setup_s"] = "topology, routing, planner and loss draws";
  out.info["peak_rss_mb"] = "peak resident set after the timed rounds";
  if (options.trace) {
    traced(options, out);
  } else {
    untraced(options, out);
  }
  return out;
}

}  // namespace perfbench
