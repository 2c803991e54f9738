// Shared plumbing of the benchmark binary: timing, order statistics, the
// per-run result record and the fixed metric catalogue.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace rmrn {
namespace core {}
namespace harness {}
namespace metrics {}
namespace net {}
namespace protocols {}
namespace sim {}
namespace util {}
}  // namespace rmrn

namespace perfbench {

namespace core = rmrn::core;
namespace harness = rmrn::harness;
namespace metrics = rmrn::metrics;
namespace net = rmrn::net;
namespace protocols = rmrn::protocols;
namespace sim = rmrn::sim;
namespace util = rmrn::util;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall seconds taken by `fn()`.
template <class Fn>
double timeIt(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return secondsBetween(start, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// CPU time the host has taken from this machine since boot (/proc/stat
/// "steal"), in clock ticks, summed over CPUs.
[[nodiscard]] std::uint64_t stealTicks();

/// A sample is clean when the host took at most this share of the machine's
/// CPU capacity while it ran.  Stolen time stalls whichever thread it hits,
/// and a barrier-synchronized run waits for the slowest thread, so such
/// samples time the host rather than the program.
inline constexpr double kMaxStealShare = 0.02;
[[nodiscard]] bool hostLeftAlone(std::uint64_t steal_ticks, double seconds);

/// One timed call.
struct Timed {
  double seconds = 0.0;
  bool clean = true;
  /// CPU time the host took from the machine while the call ran, in clock
  /// ticks summed over CPUs.
  std::uint64_t steal_ticks = 0;
};

template <class Fn>
Timed timeClean(Fn&& fn) {
  const std::uint64_t steal = stealTicks();
  const auto start = Clock::now();
  fn();
  const double seconds = secondsBetween(start, Clock::now());
  const std::uint64_t stolen = stealTicks() - steal;
  return {seconds, hostLeftAlone(stolen, seconds), stolen};
}

/// The repeats of one timing.  Its value is the median of the clean samples,
/// or of every sample when fewer than kMinClean are clean.
class Samples {
 public:
  static constexpr std::size_t kMinClean = 3;

  void add(double value, bool clean, std::uint64_t steal_ticks = 0);
  void add(const Timed& timed) {
    add(timed.seconds, timed.clean, timed.steal_ticks);
  }
  [[nodiscard]] double median() const;
  /// Samples the median covers.
  [[nodiscard]] std::size_t used() const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const std::vector<char>& cleanFlags() const { return clean_; }
  [[nodiscard]] const std::vector<double>& stealTicks() const {
    return steal_;
  }

 private:
  [[nodiscard]] std::size_t cleanCount() const;

  std::vector<double> values_;
  std::vector<char> clean_;
  std::vector<double> steal_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Repeats the value summarizes (1 for counts and single measurements).
  std::size_t samples = 1;
};

/// Workload parameters shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one workload run reports.  `end_to_end` and `per_layer` hold
/// the result metrics (every name of the catalogue below, pre-filled with
/// zero); `named` holds the named metrics of the report line.
struct Result {
  Result();

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> named;
  /// Workload description echoed in the report (sizes, loop type, rounds).
  std::map<std::string, std::string> info;
  /// Per-round samples behind the medians, echoed in the report.
  std::map<std::string, std::vector<double>> raw;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SpanRecorder spans;

  /// Records a correctness or determinism check; a false `ok` is kept by name
  /// and makes the run exit non-zero.
  void check(bool ok, std::string_view name);
  void setE2e(const std::string& name, double value, std::size_t samples = 1);
  /// Sets an end-to-end metric from its samples and records them in `raw`.
  void setE2e(const std::string& name, const Samples& samples);
  void setLayer(const std::string& name, double value,
                std::size_t samples = 1);
  void setNamed(const std::string& name, double value, std::string unit,
                std::size_t samples = 1);
  void setNamed(const std::string& name, const Samples& samples,
                std::string unit);
  /// Echoes a metric's samples and their clean flags in the report.
  void record(const std::string& name, const Samples& samples);
};

/// A metric of BENCHMARK.json (name, unit).
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};
/// The end-to-end slots; what each means on each workload is listed in
/// perfbench/interaction_map.json.
[[nodiscard]] const std::vector<MetricDef>& endToEndCatalogue();
[[nodiscard]] const std::vector<MetricDef>& perLayerCatalogue();

/// The five recovery arms of the paper sweep, in report order.
inline constexpr std::string_view kArmNames[] = {"SRM", "RMA", "RP", "FEC",
                                                 "CODED"};

Result runFigSweep(const RunOptions& options);
Result runLossyTransfer(const RunOptions& options);
Result runPlanChurn(const RunOptions& options);

}  // namespace perfbench
