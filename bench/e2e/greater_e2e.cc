// greater_e2e: the end-to-end benchmark program.
//
//   greater_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out DIR] [--work-dir DIR] [--scale full|smoke]
//   greater_e2e --all --scale smoke [--seed N]
//
// Prints one `workload metric value unit` line per metric (trace runs add
// the per-layer self-time tables as `#` lines), then, as the last line,
// {"correct", "attempted", "failed", "metrics"} as JSON. Runs normally go
// through run_e2e.py, which builds this binary first.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using greater::e2e::Config;
using greater::e2e::Metric;
using greater::e2e::RunResult;
using greater::e2e::TraceLog;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--workload NAME | --all) [--seed N] [--seconds S]\n"
               "          [--trace 0|1] [--trace-out DIR] [--work-dir DIR]\n"
               "          [--scale full|smoke]\n"
               "workloads:",
               argv0);
  for (const std::string& name : greater::e2e::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Shortest text that reads back as the same double.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

std::string Json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

RunResult RunOne(Config config) {
  const fs::path work = fs::path(config.work_dir) / config.workload;
  std::error_code ignored;
  fs::remove_all(work, ignored);
  fs::create_directories(work);
  config.work_dir = work.string();

  TraceLog log;
  RunResult result = greater::e2e::RunWorkload(config, &log);
  if (config.trace) {
    log.PrintTables(config.workload);
    if (!config.trace_out.empty()) {
      fs::create_directories(config.trace_out);
      const std::string path =
          (fs::path(config.trace_out) / (config.workload + ".trace.json"))
              .string();
      greater::e2e::TallyStatus(log.WriteChromeTrace(path),
                                "trace export to " + path, &result);
    }
  }
  for (const Metric& m : result.metrics) {
    std::printf("%s %s %s %s\n", config.workload.c_str(), m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("# %s attempted %llu failed %llu fail_ratio %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              Number(result.attempted > 0
                         ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 0.0)
                  .c_str());
  fs::remove_all(work, ignored);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.work_dir = ".bench_build/work";
  bool all = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto takes_value = [&] {
      if (value == nullptr) return false;
      ++i;
      return true;
    };
    if (arg == "--all") {
      all = true;
    } else if (arg == "--workload" && takes_value()) {
      config.workload = value;
    } else if (arg == "--seed" && takes_value()) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds" && takes_value()) {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace" && takes_value()) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out" && takes_value()) {
      config.trace_out = value;
      config.trace = true;
    } else if (arg == "--work-dir" && takes_value()) {
      config.work_dir = value;
    } else if (arg == "--scale" && takes_value()) {
      if (std::strcmp(value, "smoke") == 0) {
        config.smoke = true;
      } else if (std::strcmp(value, "full") != 0) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.smoke) config.seconds = 0.2;
  if (!(config.seconds > 0.0)) return Usage(argv[0]);

  if (all) {
    // Every workload in turn, untraced then traced (the smoke test).
    RunResult total;
    for (const std::string& name : greater::e2e::WorkloadNames()) {
      for (bool trace : {false, true}) {
        Config one = config;
        one.workload = name;
        one.trace = trace;
        RunResult result = RunOne(one);
        total.attempted += result.attempted;
        total.failed += result.failed;
        for (Metric& m : result.metrics) {
          m.name = name + "." + m.name;
          total.metrics.push_back(std::move(m));
        }
      }
    }
    std::printf("%s\n", Json(total).c_str());
    return total.failed == 0 ? 0 : 1;
  }

  bool known = false;
  for (const std::string& name : greater::e2e::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage(argv[0]);
  RunResult result = RunOne(config);
  std::printf("%s\n", Json(result).c_str());
  return 0;
}
