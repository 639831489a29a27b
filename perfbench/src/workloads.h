// Workload definitions and the serving harness of the perfbench runner.
//
// A workload is a graph (a generated surrogate written to an edge-list
// file), a request list (written to a text file, derived from the workload
// seed), and a traffic shape (closed-loop clients, optionally with a
// concurrent delta mutator). The engine only
// ever sees the generated files: it is never told which workload it runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "common.h"
#include "graph/datasets.h"
#include "spans.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  asti::DatasetId dataset = asti::DatasetId::kNetHept;
  double scale = 1.0;
  asti::DiffusionModel model = asti::DiffusionModel::kIndependentCascade;
  /// The request with seed s runs algorithms[s % size] at
  /// eta_fractions[s % size] of n.
  std::vector<std::string> algorithms;
  std::vector<double> eta_fractions;
  /// Engine driver threads (requests executing at once).
  size_t drivers = 2;
  /// Closed-loop clients.
  size_t clients = 1;
  /// Mutator cadence (0 = no mutator during the stream).
  double swap_interval_s = 0.0;
  /// Requests [0, checked_prefix) are always served, even past the window,
  /// so the exact counters and the result digest cover a fixed request set.
  size_t checked_prefix = 0;
  /// Prefix requests re-solved alone on a fresh engine after the stream;
  /// their digests must equal the concurrent results.
  size_t solo_checks = 0;
};

/// The three workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Surrogate generation seed: the graph is fixed, the workload seed drives
/// the requests and mutations.
inline constexpr uint64_t kGraphSeed = 7;
/// Pool workers of every engine the benchmark builds.
inline constexpr size_t kWorkers = 2;

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // generated inputs and trace outputs go here
};

/// Everything a run reports: metrics by name, the checks, the digest.
struct RunReport {
  MetricMap metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> check_failures;
  uint64_t result_digest = 0;
  std::string spans_path;
};

/// Generates the inputs, sets the engine up (several times, for the setup
/// median), serves the timed stream, runs the output checks and, when
/// tracing, the layer replays.
RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench
