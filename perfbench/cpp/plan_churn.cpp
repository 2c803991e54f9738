// plan-churn: the control plane on its own (net routing and core planning;
// no simulation).
//
// Flat part: a whole-group core::RpPlanner plan on a 2,800-node
// generateTopology graph (topology seed 1, ~1,000 clients) at 1, 2 and 4
// threads; the plans must be identical.  Sharded part: a core::ShardPlanner
// (K = 64, 4 threads) on a 300k-node generateShallowTreeTopology tree
// (topology seed 1), then remove+add pairs on clients drawn from --seed,
// timed one operation at a time, with membership checked after each pair.
// Untraced runs build the world and the planner once and then repeat timed
// rounds: a fresh set-up, kFlatRepeats 4-thread flat plans and
// kPairsPerRound churn pairs that continue on the same planner.  Traced runs
// repeat one whole unit (set-up, plans, build, kChurnPairs pairs).  Once per
// run, the flat and sharded planners must agree exactly on a 3,000-node
// tree, where both run under the tree metric.
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/shard_planner.hpp"
#include "replica.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kFlatNodes = 2800;
constexpr std::uint64_t kFlatTopologySeed = 1;
constexpr std::uint32_t kTreeNodes = 300'000;
constexpr std::uint64_t kTreeTopologySeed = 1;
constexpr std::uint32_t kCheckTreeNodes = 3000;
constexpr std::uint32_t kShardClients = 64;
constexpr unsigned kShardThreads = 4;
constexpr std::uint32_t kChurnPairs = 1000;
constexpr unsigned kThreads[] = {1, 2, 4};
constexpr unsigned kRoutingThreads = 4;
/// Flat plans are short; each round times them this many times.
constexpr int kFlatRepeats = 3;
/// Churn pairs per timed round; a run makes at least kChurnPairs.
constexpr std::uint32_t kPairsPerRound = 250;
/// Seconds left after the timed rounds for the determinism replay.
constexpr double kTailSeconds = 3.0;

net::Topology flatTopology() {
  util::Rng rng(kFlatTopologySeed);
  net::TopologyConfig config;
  config.num_nodes = kFlatNodes;
  return net::generateTopology(config, rng);
}

net::Topology treeTopology(std::uint32_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  return net::generateShallowTreeTopology(nodes, rng);
}

core::ShardPlannerOptions shardOptions() {
  core::ShardPlannerOptions options;
  options.planner.num_threads = kShardThreads;
  options.max_shard_clients = kShardClients;
  return options;
}

bool samePlans(const net::Topology& topology, const core::RpPlanner& a,
               const core::RpPlanner& b) {
  for (const net::NodeId u : topology.clients) {
    const core::Strategy& x = a.strategyFor(u);
    const core::Strategy& y = b.strategyFor(u);
    if (x.peers != y.peers || x.expected_delay_ms != y.expected_delay_ms) {
      return false;
    }
  }
  return true;
}

/// Flat and sharded plans agree on a tree topology (tree metric).
void checkShardMatchesFlat(Result& out, std::uint64_t seed) {
  const net::Topology topology = treeTopology(kCheckTreeNodes, seed);
  const net::Routing routing(topology.graph, topology.tree);
  const core::ShardPlanner shard(topology, routing, shardOptions());
  core::PlannerOptions flat_options = shardOptions().planner;
  flat_options.timeout_ms = shard.timeoutMs();
  const core::RpPlanner flat(topology, routing, flat_options);
  bool equal = true;
  for (const net::NodeId u : topology.clients) {
    const core::Strategy& s = shard.strategyFor(u);
    const core::Strategy& f = flat.strategyFor(u);
    equal = equal && s.peers == f.peers &&
            s.expected_delay_ms == f.expected_delay_ms;
  }
  out.check(equal, "plan-churn: flat and sharded plans equal on a tree");
  out.attempted += topology.clients.size();
  out.failed += equal ? 0 : topology.clients.size();
}

/// Per-operation record of one churn sequence.
struct ChurnOp {
  double us = 0.0;
  std::size_t replans = 0;
  std::size_t shards_touched = 0;
  bool operator==(const ChurnOp& o) const {
    return replans == o.replans && shards_touched == o.shards_touched;
  }
};

/// Both topologies and their routing: what every plan starts from.  Built in
/// place and never moved, since a routing table refers to its graph.
struct World {
  net::Topology flat;
  std::optional<net::Routing> flat_routing;
  net::Topology tree;
  std::optional<net::Routing> tree_routing;
};

/// Builds the world, with a span around each public call.
std::unique_ptr<World> buildWorld(SpanRecorder* spans) {
  auto world = std::make_unique<World>();
  int span = openSpan(spans, "net.generateTopology");
  world->flat = flatTopology();
  closeSpan(spans, span);
  span = openSpan(spans, "net.Routing");
  world->flat_routing.emplace(world->flat.graph, kRoutingThreads);
  closeSpan(spans, span);
  span = openSpan(spans, "net.generateTopology");
  world->tree = treeTopology(kTreeNodes, kTreeTopologySeed);
  closeSpan(spans, span);
  span = openSpan(spans, "net.Routing");
  world->tree_routing.emplace(world->tree.graph, world->tree.tree);
  closeSpan(spans, span);
  return world;
}

/// Runs `pairs` remove+add pairs on clients drawn from `rng`, timing one
/// operation at a time and appending its record to `ops`.  Returns whether
/// membership was restored after every pair.
bool churn(core::ShardPlanner& planner, const net::Topology& tree,
           util::Rng& rng, std::uint32_t pairs, std::vector<ChurnOp>& ops,
           SpanRecorder* spans) {
  const std::size_t members = planner.numClients();
  bool restored = true;
  for (std::uint32_t pair = 0; pair < pairs; ++pair) {
    const net::NodeId v = tree.clients[rng.uniformInt(tree.clients.size())];
    for (const bool remove : {true, false}) {
      const int op_span =
          openSpan(spans, remove ? "core.ShardPlanner.removeClient"
                                 : "core.ShardPlanner.addClient");
      const auto start = Clock::now();
      if (remove) {
        planner.removeClient(v);
      } else {
        planner.addClient(v);
      }
      const double us = secondsBetween(start, Clock::now()) * 1e6;
      closeSpan(spans, op_span);
      ops.push_back({us, planner.lastReplans(), planner.lastShardsTouched()});
    }
    restored = restored && planner.numClients() == members &&
               planner.partition().isClient(v);
  }
  return restored;
}

/// One traced unit: set-up, flat plans at 1/2/4 threads, shard build and
/// kChurnPairs churn pairs.
struct Round {
  std::vector<ChurnOp> churn;
  std::size_t flat_clients = 0;
  std::size_t shards = 0;
  std::uint64_t routing_rows = 0;
  bool plans_equal = true;
  bool membership_restored = true;
};

Round runRound(std::uint64_t seed, SpanRecorder* spans) {
  Round round;
  const std::unique_ptr<World> world = buildWorld(spans);
  round.flat_clients = world->flat.clients.size();
  round.routing_rows =
      world->flat_routing->numRows() + world->tree_routing->numRows();

  for (int repeat = 0; repeat < kFlatRepeats; ++repeat) {
    std::vector<core::RpPlanner> plans;
    plans.reserve(std::size(kThreads));
    for (std::size_t t = 0; t < std::size(kThreads); ++t) {
      const int span =
          openSpan(spans, "core.RpPlanner.t" + std::to_string(kThreads[t]));
      plans.emplace_back(world->flat, *world->flat_routing,
                         defaultPlannerOptions(kThreads[t]));
      closeSpan(spans, span);
      if (t > 0) {
        round.plans_equal = round.plans_equal &&
                            samePlans(world->flat, plans.front(), plans[t]);
      }
    }
  }

  int span = openSpan(spans, "core.ShardPlanner.build");
  core::ShardPlanner planner(world->tree, *world->tree_routing,
                             shardOptions());
  closeSpan(spans, span);
  round.shards = planner.partition().numShards();

  util::Rng churn_rng = util::Rng(seed).fork(7);
  round.churn.reserve(2 * kChurnPairs);
  span = openSpan(spans, "core.churn");
  round.membership_restored = churn(planner, world->tree, churn_rng,
                                    kChurnPairs, round.churn, spans);
  closeSpan(spans, span);
  return round;
}

void checkRound(Result& out, const Round& round, const Round& first) {
  out.check(round.plans_equal,
            "plan-churn: flat plans identical at 1, 2 and 4 threads");
  out.check(round.membership_restored,
            "plan-churn: membership restored after each churn pair");
  out.check(round.churn == first.churn && round.shards == first.shards,
            "plan-churn: same seed gives identical churn counts");
  out.attempted += round.flat_clients + round.churn.size();
  out.failed += round.plans_equal ? 0 : round.flat_clients;
}

void untraced(const RunOptions& options, Result& out) {
  // The run's time counts from here; the rounds stop early enough to leave
  // kTailSeconds for the determinism replay.
  const auto start = Clock::now();
  const double budget = options.seconds - kTailSeconds;
  checkShardMatchesFlat(out, options.seed);
  Samples setup, plan_s, churn_p50, build_s;
  std::vector<double> churn_us;  // every churn operation of the run

  // The world and the sharded planner that serve the whole run.
  std::unique_ptr<World> world;
  setup.add(timeClean([&] { world = buildWorld(nullptr); }));
  const net::Topology& flat = world->flat;
  std::optional<core::ShardPlanner> planner;
  build_s.add(timeClean([&] {
    planner.emplace(world->tree, *world->tree_routing, shardOptions());
  }));

  // Flat plans at 1 and 2 threads, once: they must equal the 4-thread plan.
  // Timed and reported, not bounded.
  const core::RpPlanner reference(flat, *world->flat_routing,
                                  defaultPlannerOptions(kThreads[2]));
  for (const unsigned threads : {kThreads[0], kThreads[1]}) {
    std::optional<core::RpPlanner> plan;
    const double seconds = timeIt([&] {
      plan.emplace(flat, *world->flat_routing, defaultPlannerOptions(threads));
    });
    out.check(samePlans(flat, reference, *plan),
              "plan-churn: flat plans identical at 1, 2 and 4 threads");
    out.setNamed("plan_t" + std::to_string(threads) + "_s", seconds, "s");
  }
  out.attempted += flat.clients.size();

  util::Rng churn_rng = util::Rng(options.seed).fork(7);
  std::vector<ChurnOp> first_ops;
  std::uint32_t pairs = 0;
  for (int round = 0;; ++round) {
    const auto round_start = Clock::now();
    // A fresh set-up, timed and then dropped: the run's set-up samples.
    std::unique_ptr<World> fresh;
    setup.add(timeClean([&] { fresh = buildWorld(nullptr); }));
    fresh.reset();
    for (int repeat = 0; repeat < kFlatRepeats; ++repeat) {
      std::optional<core::RpPlanner> plan;
      plan_s.add(timeClean([&] {
        plan.emplace(flat, *world->flat_routing,
                     defaultPlannerOptions(kThreads[2]));
      }));
      out.check(samePlans(flat, reference, *plan),
                "plan-churn: same flat plan on every round");
      out.attempted += flat.clients.size();
    }
    std::vector<ChurnOp> ops;
    ops.reserve(2 * kPairsPerRound);
    const std::uint64_t steal = stealTicks();
    const auto churn_start = Clock::now();
    out.check(churn(*planner, world->tree, churn_rng, kPairsPerRound, ops,
                    nullptr),
              "plan-churn: membership restored after each churn pair");
    const double churn_seconds = secondsBetween(churn_start, Clock::now());
    std::vector<double> us;
    for (const ChurnOp& op : ops) us.push_back(op.us);
    churn_p50.add(quantile(us, 0.50),
                  hostLeftAlone(stealTicks() - steal, churn_seconds));
    churn_us.insert(churn_us.end(), us.begin(), us.end());
    out.attempted += ops.size();
    pairs += kPairsPerRound;
    if (round == 0) first_ops = std::move(ops);

    const double elapsed = secondsBetween(start, Clock::now());
    const double last = secondsBetween(round_start, Clock::now());
    if (pairs >= kChurnPairs && elapsed + last > budget) break;
  }
  out.setE2e("peak_rss_mb", peakRssMb());

  // Determinism: a second build replays the first round's operations and
  // must repeat their counts.
  planner.reset();
  build_s.add(timeClean([&] {
    planner.emplace(world->tree, *world->tree_routing, shardOptions());
  }));
  util::Rng replay_rng = util::Rng(options.seed).fork(7);
  std::vector<ChurnOp> replay;
  churn(*planner, world->tree, replay_rng, kPairsPerRound, replay, nullptr);
  out.check(replay == first_ops,
            "plan-churn: same seed gives identical churn counts");

  out.setE2e("setup_s", setup);
  out.setE2e("wall_s", plan_s);
  out.setE2e("us_per_op", churn_p50);
  out.setNamed("setup_s", setup, "s");
  out.setNamed("plan_s", plan_s, "s");
  out.setNamed("shard_build_s", build_s, "s");
  out.setNamed("churn_p50_us", churn_p50, "us");
  out.setNamed("churn_p99_us", quantile(churn_us, 0.99), "us",
               churn_us.size());
  out.info["rounds"] = std::to_string(plan_s.size() / kFlatRepeats);
  out.info["churn_pairs"] = std::to_string(pairs);
  out.info["flat_clients"] = std::to_string(flat.clients.size());
  out.info["tree_clients"] = std::to_string(world->tree.clients.size());
}

void traced(const RunOptions& options, Result& out) {
  checkShardMatchesFlat(out, options.seed);
  std::vector<double> overhead, topology_s, routing_s, plan_t1, plan_t4,
      multi_p99;
  Round first;
  const auto start = Clock::now();
  for (int repeat = 0;; ++repeat) {
    const auto repeat_start = Clock::now();
    Round plain;
    const double untraced_s =
        timeIt([&] { plain = runRound(options.seed, nullptr); });
    SpanRecorder spans;
    Round round;
    const double traced_s =
        timeIt([&] { round = runRound(options.seed, &spans); });
    if (repeat == 0) first = round;
    checkRound(out, plain, first);
    checkRound(out, round, first);
    overhead.push_back(traced_s / untraced_s);
    topology_s.push_back(spans.total("net.generateTopology"));
    routing_s.push_back(spans.total("net.Routing"));
    plan_t1.push_back(spans.total("core.RpPlanner.t1") / kFlatRepeats);
    plan_t4.push_back(spans.total("core.RpPlanner.t4") / kFlatRepeats);
    std::vector<double> multi;
    for (const ChurnOp& op : plain.churn) {
      if (op.shards_touched > 1) multi.push_back(op.us);
    }
    multi_p99.push_back(quantile(multi, 0.99));
    out.spans.append(spans);

    const double elapsed = secondsBetween(start, Clock::now());
    const double last = secondsBetween(repeat_start, Clock::now());
    if (elapsed + last > options.seconds) break;
  }
  const std::size_t n = overhead.size();
  double replans = 0.0, touched = 0.0, single = 0.0;
  for (const ChurnOp& op : first.churn) {
    replans += static_cast<double>(op.replans);
    touched += static_cast<double>(op.shards_touched);
    single += op.shards_touched == 1 ? 1.0 : 0.0;
  }
  const auto ops = static_cast<double>(first.churn.size());
  const double t1 = median(plan_t1);
  out.setLayer("net.topology_s", median(topology_s), n);
  out.setLayer("net.routing_s", median(routing_s), n);
  out.setLayer("net.routing_rows", static_cast<double>(first.routing_rows));
  out.setLayer("core.plan_t1_s", t1, n * kFlatRepeats);
  out.setLayer("core.plan_us_per_client",
               t1 * 1e6 / static_cast<double>(first.flat_clients),
               n * kFlatRepeats);
  out.setLayer("core.plan_scaling_t4", t1 / median(plan_t4),
               n * kFlatRepeats);
  out.setLayer("core.partition_shards", static_cast<double>(first.shards));
  out.setLayer("core.churn_replans_per_op", replans / ops);
  out.setLayer("core.churn_shards_touched_per_op", touched / ops);
  out.setLayer("core.churn_single_shard_fraction", single / ops);
  out.setLayer("core.churn_multi_shard_p99_us", median(multi_p99), n);
  out.setLayer("trace.overhead", median(overhead), n);
  out.info["repeats"] = std::to_string(n);
}

}  // namespace

Result runPlanChurn(const RunOptions& options) {
  Result out;
  out.info["loop"] = "batch plans, then closed-loop churn with one caller";
  out.info["sizes"] =
      "flat: n=2800 (topology seed 1), 4 threads, " +
      std::to_string(kFlatRepeats) +
      " plans per round, 1 and 2 threads once per run; sharded: n=300000 "
      "shallow tree (topology seed 1), K=64, 4 threads, " +
      std::to_string(kPairsPerRound) +
      " remove+add pairs per round, at least " + std::to_string(kChurnPairs) +
      " per run";
  out.info["wall_s"] = "flat RpPlanner whole-group plan, 4 threads";
  out.info["us_per_op"] = "ShardPlanner churn operation, median per round";
  out.info["setup_s"] = "both topologies and their routing";
  out.info["peak_rss_mb"] = "peak resident set after the timed rounds";
  if (options.trace) {
    traced(options, out);
  } else {
    untraced(options, out);
  }
  return out;
}

}  // namespace perfbench
