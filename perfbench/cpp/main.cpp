// rmrn_perfbench: the repository's benchmark of record.
//
//   rmrn_perfbench --workload fig-sweep|lossy-transfer|plan-churn --seed N
//                  --seconds S --trace 0|1 [--spans FILE] [--commit ID]
//                  [--source-digest HEX]
//
// Prints one report line (environment, workload sizes and every named
// metric by name) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.  Exits
// 1 when a correctness or determinism check failed (each is named on
// stderr), 2 on bad arguments or a refused build.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricsJson(const std::map<std::string, Metric>& metrics,
                        bool with_samples) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
        << jsonNumber(metric.value)
        << ", \"unit\": " << jsonString(metric.unit);
    if (with_samples) out << ", \"samples\": " << metric.samples;
    out << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string rawJson(const std::map<std::string, std::vector<double>>& raw) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, values] : raw) {
    out << (first ? "" : ", ") << jsonString(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? ", " : "") << jsonNumber(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string mapJson(const std::map<std::string, std::string>& map) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    out << (first ? "" : ", ") << jsonString(key) << ": " << jsonString(value);
    first = false;
  }
  out << "}";
  return out.str();
}

int usage(const std::string& error) {
  std::cerr << "rmrn_perfbench: " << error
            << "\nusage: rmrn_perfbench --workload "
               "fig-sweep|lossy-transfer|plan-churn --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--commit ID] "
               "[--source-digest HEX]\n";
  return 2;
}

/// Refuses builds whose timings are not comparable.
std::string buildProblem() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  return "";
#endif
}

/// The contract-check setting every target was compiled with.
#if defined(RMRN_AUDIT_ENABLED)
constexpr const char* kAudit = "ON";
#else
constexpr const char* kAudit = "OFF";
#endif

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("expected --flag value pairs, got '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "spans" && key != "commit" &&
        key != "source-digest") {
      return usage("unknown flag --" + key);
    }
  }
  if (const std::string problem = buildProblem(); !problem.empty()) {
    std::cerr << "rmrn_perfbench: refusing to measure a " << problem << "\n";
    return 2;
  }
  RunOptions options;
  const std::string workload = args["workload"];
  try {
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
    const std::string trace = args.at("trace");
    if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
    options.trace = trace == "1";
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace are required numbers");
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 120.0)) {
    return usage("--seconds must be within [1, 120]");
  }

  Result result;
  const std::uint64_t steal_start = stealTicks();
  if (workload == "fig-sweep") {
    result = runFigSweep(options);
  } else if (workload == "lossy-transfer") {
    result = runLossyTransfer(options);
  } else if (workload == "plan-churn") {
    result = runPlanChurn(options);
  } else {
    return usage("unknown workload '" + workload + "'");
  }
  const std::uint64_t steal = stealTicks() - steal_start;
  // The end-to-end peak_rss_mb is set by each workload after its timed
  // rounds; this one covers the whole run.
  result.setNamed("peak_rss_mb", peakRssMb(), "MB");
  result.setNamed("failed_fraction",
                  result.attempted == 0
                      ? 0.0
                      : static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted),
                  "fraction");
  result.check(result.attempted > 0, "workload attempted no operation");
  const auto& shown = options.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, metric] : shown) {
    result.check(std::isfinite(metric.value), "finite metric " + name);
  }
  if (options.trace && args.count("spans") != 0) {
    result.check(result.spans.write(args["spans"]), "spans file written");
    result.info["spans_file"] = args["spans"];
    result.info["spans"] = std::to_string(result.spans.size());
  }

  std::map<std::string, std::string> env = {
      {"commit", args.count("commit") ? args["commit"] : "unknown"},
      {"source_digest",
       args.count("source-digest") ? args["source-digest"] : "unknown"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"rmrn_audit", kAudit},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"seed", std::to_string(options.seed)},
      {"seconds", jsonNumber(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"workload", workload},
      {"host_steal_ticks", std::to_string(steal)},
  };
  std::cout << "{\"report\": {\"env\": " << mapJson(env)
            << ", \"workload\": " << mapJson(result.info)
            << ", \"metrics\": " << metricsJson(result.named, true)
            << ", \"result_metrics\": " << metricsJson(shown, true)
            << ", \"samples\": " << rawJson(result.raw)
            << ", \"failed_checks\": [";
  for (std::size_t i = 0; i < result.failed_checks.size(); ++i) {
    std::cout << (i ? ", " : "") << jsonString(result.failed_checks[i]);
  }
  std::cout << "]}}\n";
  for (const std::string& name : result.failed_checks) {
    std::cerr << "rmrn_perfbench: FAILED CHECK: " << name << "\n";
  }
  const bool correct = result.failed_checks.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metricsJson(shown, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rmrn_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
