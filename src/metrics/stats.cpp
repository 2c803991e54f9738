#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rmrn::metrics {

void Accumulator::add(double sample) {
  if (!std::isfinite(sample)) {
    throw std::invalid_argument("Accumulator: non-finite sample");
  }
  samples_.push_back(sample);
  sum_ += sample;
}

void Accumulator::reserve(std::size_t count) {
  if (count <= samples_.capacity()) return;
  samples_.reserve(std::max(count, 2 * samples_.capacity()));
}

void Accumulator::merge(const Accumulator& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
}

double Accumulator::mean() const {
  return samples_.empty() ? 0.0
                          : sum_ / static_cast<double>(samples_.size());
}

double quantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("quantileSorted: empty sample");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantileSorted: q out of [0, 1]");
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Accumulator::summarize() const {
  Summary s;
  if (samples_.empty()) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());

  s.count = sorted.size();
  s.mean = mean();
  double sq = 0.0;
  for (const double x : samples_) sq += (x - s.mean) * (x - s.mean);
  s.stddev = samples_.size() > 1
                 ? std::sqrt(sq / static_cast<double>(samples_.size() - 1))
                 : 0.0;
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = quantileSorted(sorted, 0.50);
  s.p95 = quantileSorted(sorted, 0.95);
  s.p99 = quantileSorted(sorted, 0.99);
  return s;
}

}  // namespace rmrn::metrics
