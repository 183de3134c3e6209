// Benchmark harness entry point.
//
//   perfbench --workload <plan-cold|dispatch-long|fleet-reuse> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--smoke]
//
// Prints an info line (machine and build facts) and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 0 only when every cell passed the correctness gate.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

bool ParseArgs(int argc, char** argv, RunConfig& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return false;
    }
  }
  return !config.workload.empty() && !config.work_dir.empty() &&
         config.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  try {
    if (!ParseArgs(argc, argv, config)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> --work-dir <dir> [--smoke]\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: bad argument: " << error.what() << "\n";
    return 2;
  }
  using Runner = void (*)(const RunConfig&, perfbench::Gate&, Report&);
  const std::map<std::string, Runner> workloads = {
      {"plan-cold", perfbench::RunPlanCold},
      {"dispatch-long", perfbench::RunDispatchLong},
      {"fleet-reuse", perfbench::RunFleetReuse},
  };
  const auto it = workloads.find(config.workload);
  if (it == workloads.end()) {
    std::cerr << "perfbench: unknown workload " << config.workload << "\n";
    return 2;
  }

  // Per-process scratch (stores, sinks) under the work dir, removed at the
  // end; span files stay beside it.
  const std::string root = config.work_dir;
  config.trace_prefix =
      root + "/" + config.workload + "-seed" + std::to_string(config.seed);
  config.work_dir = root + "/" + config.workload + "-" +
                    std::to_string(static_cast<long>(getpid()));
  perfbench::Gate gate;
  Report report;
  try {
    perfbench::FreshDir(config.work_dir);
    it->second(config, gate, report);
  } catch (const std::exception& error) {
    perfbench::RemoveDir(config.work_dir);
    std::cerr << "perfbench: " << config.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  perfbench::RemoveDir(config.work_dir);

  for (const perfbench::Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      gate.Fail("metric " + metric.name + " is not finite");
    }
  }

  std::string info = "{\"info\": {";
  report.info["workload"] = config.workload;
  report.info["seed"] = std::to_string(config.seed);
  report.info["seconds"] = Number(config.seconds);
  report.info["trace"] = config.trace ? "1" : "0";
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["simd"] =
      dvs::util::simd::LevelName(dvs::util::simd::Active());
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  bool first = true;
  for (const auto& [key, value] : report.info) {
    info += (first ? "" : ", ") + Quoted(key) + ": " + Quoted(value);
    first = false;
  }
  std::cout << info << "}}\n";

  for (const std::string& problem : gate.problems()) {
    std::cerr << "perfbench: gate: " << problem << "\n";
  }
  std::string result = "{\"correct\": ";
  result += gate.correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(gate.attempted());
  result += ", \"failed\": " + std::to_string(gate.failed());
  result += ", \"metrics\": {";
  first = true;
  for (const perfbench::Metric& metric : report.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    result += (first ? "" : ", ") + Quoted(metric.name) +
              ": {\"value\": " + Number(value) +
              ", \"unit\": " + Quoted(metric.unit) + "}";
    first = false;
  }
  result += "}}";
  std::cout << result << std::endl;
  return gate.correct() ? 0 : 1;
}
