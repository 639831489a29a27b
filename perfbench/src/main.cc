// perfbench_runner: serves one named workload through SeedMinEngine and
// writes every metric it measured, the output checks and the combined
// result digest as one JSON object.
//
//   perfbench_runner --workload asti-ic --seed 1 --seconds 30 --trace 0
//                    --work-dir .bench_work/asti-ic --out result.json
//
// perfbench/run.py builds this binary, runs it, and prints the metrics that
// BENCHMARK.json lists.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "perfbench_runner: " << message << "\n"
            << "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --out FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, out_path;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown workload '" + workload + "'");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (work_dir.empty() || out_path.empty()) return Usage("--work-dir and --out are required");
  std::filesystem::create_directories(work_dir);
  options.work_dir = work_dir;

  const perfbench::RunReport report = perfbench::RunWorkload(*spec, options);

  std::ofstream out(out_path);
  out << "{\n  \"workload\": " << perfbench::JsonString(spec->name)
      << ",\n  \"seed\": " << options.seed
      << ",\n  \"seconds\": " << perfbench::JsonNumber(options.seconds)
      << ",\n  \"trace\": " << (options.trace ? 1 : 0)
      << ",\n  \"correct\": " << (report.failed == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << report.attempted << ",\n  \"failed\": " << report.failed
      << ",\n  \"failed_frac\": "
      << perfbench::JsonNumber(report.attempted > 0 ? static_cast<double>(report.failed) /
                                                          static_cast<double>(report.attempted)
                                                    : 0.0)
      << ",\n  \"result_digest\": \"" << perfbench::Hex(report.result_digest) << "\""
      << ",\n  \"spans_path\": " << perfbench::JsonString(report.spans_path)
      << ",\n  \"check_failures\": [";
  for (size_t i = 0; i < report.check_failures.size(); ++i) {
    out << (i > 0 ? ", " : "") << perfbench::JsonString(report.check_failures[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ",") << "\n    " << perfbench::JsonString(name)
        << ": {\"value\": " << perfbench::JsonNumber(metric.value)
        << ", \"unit\": " << perfbench::JsonString(metric.unit)
        << ", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  if (!out) {
    std::cerr << "perfbench_runner: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
