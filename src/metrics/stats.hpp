// Streaming summary statistics for experiment metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace rmrn::metrics {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Accumulates samples; summarize() sorts a private copy, so adding after
/// summarizing is fine.
class Accumulator {
 public:
  void add(double sample);
  /// Makes room for `count` samples in total.  Capacity at least doubles
  /// when it grows, so reserving one more sample at a time is amortised
  /// O(1); add() then never allocates below `count`.
  void reserve(std::size_t count);
  void merge(const Accumulator& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double total() const { return sum_; }

  /// Full summary (empty Summary with count 0 when no samples).
  [[nodiscard]] Summary summarize() const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Linear-interpolated quantile of a sorted sample vector; q in [0, 1].
[[nodiscard]] double quantileSorted(const std::vector<double>& sorted,
                                    double q);

}  // namespace rmrn::metrics
