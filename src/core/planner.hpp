// RpPlanner: the RP scheme's control-plane front end.
//
// Computes the optimal prioritized recovery list (paper §4) for every client
// of a topology: candidate selection per Lemmas 4-5, strategy graph per
// Definition 1, Algorithm 1 shortest path.  O(k * depth^2) overall for k
// clients.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/candidates.hpp"
#include "core/strategy_graph.hpp"
#include "net/lca.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace rmrn::core {

struct PlannerOptions {
  double timeout_ms = 0.0;  // t_0; see RpPlanner for the default heuristic
  /// When > 0, plan against RTT-scaled per-peer timeouts (factor * rtt_j)
  /// instead of the constant t_0 — use the protocol's timeout_factor here
  /// so planned failure costs match the simulated waits.
  double per_peer_timeout_factor = 0.0;
  double min_timeout_ms = 1.0;
  CostModel cost_model = CostModel::kExpected;
  bool allow_direct_source = true;
  std::size_t max_list_length = std::numeric_limits<std::size_t>::max();
  /// Peers that must not appear on any list (§4: "many similar useful
  /// restrictions of this graph are conceivable"), e.g. known-flaky or
  /// resource-constrained receivers.  They remain protected clients
  /// themselves.  The `{}` lets designated-initializer callers omit it
  /// without -Wmissing-field-initializers.
  std::vector<net::NodeId> excluded_peers{};
  /// Worker threads for whole-group planning (0 = hardware concurrency,
  /// 1 = sequential).  Clients are planned independently into pre-sized
  /// slots, so the result is bit-identical for every thread count.  Runtime
  /// tuning only — deliberately not part of the experiment config files.
  unsigned num_threads = 1;
  /// When true, every emitted plan is refereed by core::PlanAuditor (an
  /// independent Eqs. 1-3 / Lemmas 4-5 recomputation sharing no code with
  /// the planning path) before the constructor returns; any violation
  /// throws std::logic_error carrying the full report.
  bool audit = false;
};

// Thread-safety (DESIGN.md §12): immutable-after-build.  Construction may
// plan clients in parallel (options.num_threads), but workers write disjoint
// pre-sized slots over read-only shared state and the constructor joins
// before returning; afterwards every public const method is safe to call
// concurrently.  No lock-protected members — nothing to RMRN_GUARDED_BY.
class RpPlanner {
 public:
  /// Plans strategies for all clients of `topology`.  When
  /// `options.timeout_ms` is zero a timeout is derived as twice the largest
  /// client-source RTT (a conservative network-wide t_0).  The topology and
  /// routing must outlive the planner for as long as replanExcluding() may
  /// be called (the precomputed strategyFor()/candidatesFor() maps need them
  /// only during construction).  `routing` may be sparse as long as it has
  /// rows for every client (the planner queries client->anything only,
  /// never router->router).
  RpPlanner(const net::Topology& topology, const net::Routing& routing,
            PlannerOptions options);

  /// The optimal strategy for `client`; throws std::out_of_range for
  /// non-clients.
  [[nodiscard]] const Strategy& strategyFor(net::NodeId client) const;

  /// The candidate list (one per competitive class, descending DS).
  [[nodiscard]] const std::vector<Candidate>& candidatesFor(
      net::NodeId client) const;

  [[nodiscard]] const PlannerOptions& options() const { return options_; }

  /// The t_0 actually used (after defaulting).
  [[nodiscard]] double timeoutMs() const { return options_.timeout_ms; }

  /// Failover replanning (DESIGN.md §9): recomputes `client`'s optimal
  /// strategy with the peers in `blacklist` pruned from the server set (on
  /// top of options().excluded_peers).  Reuses the construction-time
  /// candidate machinery — Lemma 4 re-selects one survivor per competitive
  /// class and Lemma 5's strictly-descending-DS ordering is preserved, so
  /// the result is exactly the plan a fresh planner excluding those peers
  /// would emit.  Does not mutate the precomputed strategies.  Throws
  /// std::out_of_range for non-clients.
  [[nodiscard]] Strategy replanExcluding(
      net::NodeId client, std::span<const net::NodeId> blacklist) const;

 private:
  PlannerOptions options_;
  const net::Topology* topology_;
  const net::Routing* routing_;
  net::LcaIndex lca_index_;
  StrategyGraphOptions graph_options_;
  /// topology.clients minus options().excluded_peers — the base server set
  /// replanExcluding() prunes further.
  std::vector<net::NodeId> servers_;
  std::unordered_map<net::NodeId, Strategy> strategies_;
  std::unordered_map<net::NodeId, std::vector<Candidate>> candidates_;
};

}  // namespace rmrn::core
