// Data-loss processes for generating per-packet tree-link loss patterns.
//
// The paper's simulator draws i.i.d. Bernoulli(p) losses per link per
// packet.  Real links lose in bursts; the classic two-state Gilbert-Elliott
// chain is provided as an extension so the benches can test whether RP's
// advantage survives temporally correlated loss (it stresses exactly RP's
// weak spot: consecutive packets failing over the same strategy prefix).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {

/// Reliable-network validity ceiling for the Lemma 1-3 loss model: the audit
/// layer flags any Bernoulli process with p^2 above this.  0.09 (p <= 0.3)
/// covers the paper's experimental range (p up to 0.2 in Figs. 7-8) plus
/// the reliability sweep's 0.3 stress point, where the single-loss
/// approximation is still defensible; anything beyond is a modelling error,
/// not a stress test.  (The old ceiling of 0.25 admitted p = 0.5 — a coin
/// flip per link — which no reading of "reliable network" supports.)
inline constexpr double kReliableNetworkMaxLossSquared = 0.09;

/// The paper's model: independent Bernoulli(p) per link per packet.  Each
/// process yields one LinkLossPattern per data packet over `num_links` tree
/// links; call nextPattern() once per packet, in order.
class BernoulliLossProcess {
 public:
  BernoulliLossProcess(std::size_t num_links, double loss_prob,
                       util::Rng rng);
  [[nodiscard]] LinkLossPattern nextPattern();

 private:
  std::size_t num_links_;
  double loss_prob_;
  util::Rng rng_;
};

/// Two-state Gilbert-Elliott chain per link: loss-free in Good, lossy with
/// probability `loss_in_bad` in Bad.  Transitions advance once per packet.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double loss_in_bad = 1.0;

  /// Calibrates the chain so the stationary loss rate equals `target_loss`
  /// and a Bad-state excursion lasts `mean_burst_packets` packets on
  /// average.  Throws std::invalid_argument for infeasible targets.
  [[nodiscard]] static GilbertElliottConfig calibrate(
      double target_loss, double mean_burst_packets);

  /// Stationary probability of being in the Bad state.
  [[nodiscard]] double stationaryBad() const;
  /// Long-run per-packet loss probability.
  [[nodiscard]] double stationaryLoss() const;
};

class GilbertElliottLossProcess {
 public:
  /// Each link starts in its stationary state distribution.
  GilbertElliottLossProcess(std::size_t num_links,
                            const GilbertElliottConfig& config, util::Rng rng);
  [[nodiscard]] LinkLossPattern nextPattern();

 private:
  GilbertElliottConfig config_;
  std::vector<bool> bad_;  // per-link state
  util::Rng rng_;
};

}  // namespace rmrn::sim
