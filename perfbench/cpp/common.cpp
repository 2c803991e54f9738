#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<MetricDef>& endToEndCatalogue() {
  static const std::vector<MetricDef> catalogue = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"us_per_op", "us"},
      {"peak_rss_mb", "MB"},
  };
  return catalogue;
}

const std::vector<MetricDef>& perLayerCatalogue() {
  static const std::vector<MetricDef> catalogue = [] {
    std::vector<MetricDef> c = {
        {"net.topology_s", "s"},
        {"net.routing_s", "s"},
        {"net.routing_rows", "count"},
        {"core.plan_t1_s", "s"},
        {"core.plan_us_per_client", "us"},
        {"core.plan_scaling_t4", "ratio"},
        {"core.partition_shards", "count"},
        {"core.churn_replans_per_op", "count"},
        {"core.churn_shards_touched_per_op", "count"},
        {"core.churn_single_shard_fraction", "fraction"},
        {"core.churn_multi_shard_p99_us", "us"},
        {"sim.loss_draw_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.ns_per_event", "ns"},
        {"sim.hop_sends", "count"},
        {"sim.hop_drops", "count"},
        {"sim.deliveries", "count"},
        {"sim.forward_self_s", "s"},
    };
    // Per-arm names must outlive the catalogue: keep them in static storage.
    static const std::vector<std::string> arm_names = [] {
      std::vector<std::string> names;
      for (const std::string_view arm : kArmNames) {
        const std::string prefix = "protocols." + std::string(arm);
        names.push_back(prefix + ".sim_s");
        names.push_back(prefix + ".events");
        names.push_back(prefix + ".us_per_recovery");
      }
      return names;
    }();
    for (std::size_t i = 0; i < arm_names.size(); ++i) {
      const char* unit = i % 3 == 0 ? "s" : (i % 3 == 1 ? "count" : "us");
      c.push_back({arm_names[i], unit});
    }
    const std::vector<MetricDef> rest = {
        {"protocols.deliver_self_s", "s"},
        {"protocols.timer_self_s", "s"},
        {"protocols.retries", "count"},
        {"protocols.timeouts", "count"},
        {"protocols.duplicate_deliveries", "count"},
        {"protocols.useful_repair_ratio", "ratio"},
        {"metrics.latency_samples", "count"},
        {"metrics.summarize_s", "s"},
        {"parsim.region_map_s", "s"},
        {"parsim.regions", "count"},
        {"parsim.lookahead_ms", "ms"},
        {"parsim.epochs", "count"},
        {"parsim.handoffs", "count"},
        {"parsim.handoff_fraction", "fraction"},
        {"parsim.events_per_epoch", "count"},
        {"parsim.us_per_epoch_w1", "us"},
        {"parsim.us_per_epoch_w2", "us"},
        {"parsim.us_per_epoch_w4", "us"},
        {"parsim.w1_overhead", "ratio"},
        {"trace.overhead", "ratio"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return catalogue;
}

Result::Result() {
  for (const MetricDef& def : endToEndCatalogue()) {
    end_to_end[std::string(def.name)] = {0.0, std::string(def.unit), 0};
  }
  for (const MetricDef& def : perLayerCatalogue()) {
    per_layer[std::string(def.name)] = {0.0, std::string(def.unit), 1};
  }
}

void Result::check(bool ok, std::string_view name) {
  if (!ok) failed_checks.emplace_back(name);
}

namespace {

void setIn(std::map<std::string, Metric>& map, const char* kind,
           const std::string& name, double value, std::size_t samples) {
  const auto it = map.find(name);
  if (it == map.end()) {
    throw std::logic_error(std::string("perfbench: unknown ") + kind +
                           " metric " + name);
  }
  it->second.value = value;
  it->second.samples = samples;
}

}  // namespace

void Result::setE2e(const std::string& name, double value,
                    std::size_t samples) {
  setIn(end_to_end, "end-to-end", name, value, samples);
}

void Result::setLayer(const std::string& name, double value,
                      std::size_t samples) {
  setIn(per_layer, "per-layer", name, value, samples);
}

void Result::setNamed(const std::string& name, double value, std::string unit,
                      std::size_t samples) {
  named[name] = {value, std::move(unit), samples};
}

void Result::setE2e(const std::string& name, const Samples& samples) {
  setE2e(name, samples.median(), samples.used());
  record(name, samples);
}

void Result::setNamed(const std::string& name, const Samples& samples,
                      std::string unit) {
  setNamed(name, samples.median(), std::move(unit), samples.used());
  record(name, samples);
}

void Result::record(const std::string& name, const Samples& samples) {
  raw[name] = samples.values();
  std::vector<double>& flags = raw[name + ".clean"];
  flags.assign(samples.cleanFlags().begin(), samples.cleanFlags().end());
  raw[name + ".steal_ticks"] = samples.stealTicks();
}

std::uint64_t stealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return steal;
}

bool hostLeftAlone(std::uint64_t steal_ticks, double seconds) {
  static const double ticks_per_cpu_second =
      static_cast<double>(sysconf(_SC_CLK_TCK));
  static const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const double capacity = seconds * ticks_per_cpu_second * cpus;
  return static_cast<double>(steal_ticks) <=
         std::max(1.0, kMaxStealShare * capacity);
}

void Samples::add(double value, bool clean, std::uint64_t steal_ticks) {
  values_.push_back(value);
  clean_.push_back(clean ? 1 : 0);
  steal_.push_back(static_cast<double>(steal_ticks));
}

std::size_t Samples::cleanCount() const {
  return static_cast<std::size_t>(
      std::count(clean_.begin(), clean_.end(), char{1}));
}

std::size_t Samples::used() const {
  const std::size_t clean = cleanCount();
  return clean >= kMinClean ? clean : values_.size();
}

double Samples::median() const {
  if (cleanCount() < kMinClean) return perfbench::median(values_);
  std::vector<double> clean;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (clean_[i]) clean.push_back(values_[i]);
  }
  return perfbench::median(std::move(clean));
}

}  // namespace perfbench
