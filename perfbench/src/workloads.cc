#include "workloads.h"

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include "api/algorithm_registry.h"
#include "api/snapshot_serving.h"
#include "delta/apply.h"
#include "delta/catalog_delta.h"
#include "delta/churn.h"
#include "graph/edge_list_io.h"
#include "replay.h"

namespace perfbench {
namespace {

using asti::DiffusionModel;
using asti::NodeId;

/// The catalog name of the served graph: the engine sees a file-derived
/// name, never the workload's.
const std::string kGraphName = "graph";
/// Set-ups per run: some before the stream and some after it, so the
/// setup_s median samples the machine at two points in time. Every set-up
/// starts with no other engine alive.
constexpr size_t kSetupsBefore = 6;
constexpr size_t kSetupsAfter = 5;
constexpr size_t kIdleSwaps = 15;
/// Every mutation batch: 16 inserts, 16 deletes, 16 reweights.
constexpr asti::ChurnSpec kChurn{16, 16, 16, true};
constexpr uint64_t kChurnSalt = 0xc2b2ae3d27d4eb4fULL;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec asti_ic;
    asti_ic.name = "asti-ic";
    asti_ic.dataset = asti::DatasetId::kYoutube;
    asti_ic.scale = 1.0;
    asti_ic.model = DiffusionModel::kIndependentCascade;
    asti_ic.algorithms = {"ASTI"};
    asti_ic.eta_fractions = {0.05};
    asti_ic.clients = 1;
    asti_ic.checked_prefix = 80;
    v.push_back(asti_ic);

    WorkloadSpec lt;
    lt.name = "lt-shared";
    lt.dataset = asti::DatasetId::kLiveJournal;
    lt.scale = 0.5;
    lt.model = DiffusionModel::kLinearThreshold;
    lt.algorithms = {"ASTI-4", "ASTI-16", "Bisection"};
    lt.eta_fractions = {0.01, 0.05};
    lt.clients = 2;
    lt.checked_prefix = 240;
    lt.solo_checks = 6;
    v.push_back(lt);

    WorkloadSpec churn;
    churn.name = "churn-ic";
    churn.dataset = asti::DatasetId::kYoutube;
    churn.scale = 0.5;
    churn.model = DiffusionModel::kIndependentCascade;
    churn.algorithms = {"ASTI"};
    churn.eta_fractions = {0.05};
    // Two clients on one driver: one request always waits in the admission
    // queue while the other executes.
    churn.drivers = 1;
    churn.clients = 2;
    churn.checked_prefix = 120;
    churn.swap_interval_s = 2.0;
    v.push_back(churn);
    return v;
  }();
  return specs;
}

// --- Inputs -------------------------------------------------------------------

struct RequestLine {
  std::string algorithm;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  NodeId eta = 1;
  uint64_t seed = 0;
};

const char* ModelName(DiffusionModel model) {
  return model == DiffusionModel::kLinearThreshold ? "LT" : "IC";
}

/// Writes the graph edge list and the request list; returns their paths.
std::pair<std::string, std::string> GenerateInputs(const WorkloadSpec& spec,
                                                   const RunOptions& options) {
  const std::string graph_path = options.work_dir + "/graph.txt";
  const std::string requests_path = options.work_dir + "/requests.txt";
  auto graph = asti::MakeSurrogateDataset(spec.dataset, spec.scale, kGraphSeed);
  ASM_CHECK(graph.ok()) << graph.status().ToString();
  const asti::Status saved = asti::SaveEdgeList(*graph, graph_path);
  ASM_CHECK(saved.ok()) << saved.ToString();
  const NodeId n = graph->NumNodes();

  std::ofstream out(requests_path);
  out << "# index algorithm model eta seed\n";
  // Request i has seed workload_seed + i, and its algorithm and threshold
  // are functions of that request seed alone: every workload seed serves a
  // window of one fixed request sequence. There are far more requests than
  // a window serves; the clients stop at its end (after the checked prefix).
  for (size_t i = 0; i < spec.checked_prefix + 20000; ++i) {
    const uint64_t seed = options.seed + i;
    const double fraction = spec.eta_fractions[seed % spec.eta_fractions.size()];
    const auto eta = std::max<NodeId>(1, static_cast<NodeId>(std::llround(fraction * n)));
    out << i << ' ' << spec.algorithms[seed % spec.algorithms.size()] << ' '
        << ModelName(spec.model) << ' ' << eta << ' ' << seed << '\n';
  }
  ASM_CHECK(static_cast<bool>(out)) << "cannot write " << requests_path;
  return {graph_path, requests_path};
}

std::vector<RequestLine> LoadRequests(const std::string& path) {
  std::ifstream in(path);
  ASM_CHECK(static_cast<bool>(in)) << "cannot read " << path;
  std::vector<RequestLine> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    RequestLine r;
    size_t index = 0;
    std::string model;
    fields >> index >> r.algorithm >> model >> r.eta >> r.seed;
    ASM_CHECK(!fields.fail()) << "bad request line: " << line;
    r.model = model == "LT" ? DiffusionModel::kLinearThreshold
                            : DiffusionModel::kIndependentCascade;
    requests.push_back(r);
  }
  return requests;
}

// --- Setup --------------------------------------------------------------------

/// A ready engine over a catalog holding the served graph. The engine is
/// declared last so it is destroyed before the catalog it fronts.
struct Serving {
  std::unique_ptr<asti::GraphCatalog> catalog;
  std::unique_ptr<asti::SeedMinEngine> engine;

  void Reset() {
    engine.reset();
    catalog.reset();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double ingest_s = 0.0;     // edge-list parse + GraphBuilder
  double construct_s = 0.0;  // SeedMinEngine construction
};

asti::SeedMinEngine::ServingOptions EngineOptions(const WorkloadSpec& spec) {
  asti::SeedMinEngine::ServingOptions options;
  options.num_threads = kWorkers;
  options.num_drivers = spec.drivers;
  return options;
}

Serving Setup(const WorkloadSpec& spec, const std::string& graph_path, SpanRecorder& recorder,
              SetupTimes& times) {
  ScopedSpan setup_span(&recorder, "setup");
  const auto start = Clock::now();
  Serving serving;
  std::optional<asti::DirectedGraph> graph;
  {
    ScopedSpan span(&recorder, "graph.ingest", setup_span.id());
    auto file = asti::LoadEdgeList(graph_path);
    ASM_CHECK(file.ok()) << file.status().ToString();
    auto built = asti::BuildGraphFromEdgeList(*file);
    ASM_CHECK(built.ok()) << built.status().ToString();
    graph = std::move(*built);
    times.ingest_s = SecondsSince(start);
  }
  {
    ScopedSpan span(&recorder, "api.catalog.Register", setup_span.id());
    serving.catalog = std::make_unique<asti::GraphCatalog>();
    const auto ref = serving.catalog->Register(kGraphName, std::move(*graph));
    ASM_CHECK(ref.ok()) << ref.status().ToString();
  }
  {
    ScopedSpan span(&recorder, "api.SeedMinEngine", setup_span.id());
    const auto construct_start = Clock::now();
    serving.engine = std::make_unique<asti::SeedMinEngine>(*serving.catalog, EngineOptions(spec));
    times.construct_s = SecondsSince(construct_start);
  }
  times.total_s = SecondsSince(start);
  return serving;
}

// --- Requests and outcomes ----------------------------------------------------

struct Outcome {
  bool served = false;
  bool ok = false;
  std::string error;
  // Seconds since the stream started.
  double submit_start = 0.0;
  double submit_end = 0.0;
  double done = 0.0;
  double lag = 0.0;  // send - this client's previous result
  bool adaptive = false;
  bool reached = true;
  size_t seeds = 0;
  size_t rounds = 0;
  uint64_t digest = 0;
  asti::RequestProfile profile;
};

asti::SolveRequest MakeRequest(const asti::SeedMinEngine& engine, const RequestLine& line) {
  asti::SolveRequest request = engine.NewRequest(kGraphName);
  const auto spec = asti::AlgorithmRegistry::Parse(line.algorithm);
  ASM_CHECK(spec.ok()) << spec.status().ToString();
  request.algorithm = spec->id;
  request.batch_size = spec->batch_size;
  request.model = line.model;
  request.eta = line.eta;
  request.epsilon = 0.5;
  request.realizations = 1;
  request.seed = line.seed;
  request.keep_traces = true;
  return request;
}

bool IsAdaptive(const std::string& algorithm) {
  const auto spec = asti::AlgorithmRegistry::Parse(algorithm);
  const asti::AlgorithmInfo* info = spec.ok() ? asti::AlgorithmRegistry::Find(spec->id) : nullptr;
  return info != nullptr && info->adaptive;
}

/// Everything of a result that is a pure function of (snapshot, request):
/// timings are left out.
uint64_t ResultDigest(const asti::SolveResult& result) {
  Digest d;
  d.Bytes(result.algorithm_name.data(), result.algorithm_name.size());
  d.Add(result.graph_epoch);
  d.AddSpan(std::span<const size_t>(result.seed_counts));
  d.AddSpan(std::span<const double>(result.spreads));
  for (const asti::AdaptiveRunTrace& trace : result.traces) {
    d.AddSpan(std::span<const NodeId>(trace.seeds));
    d.Add(trace.total_activated);
    d.Add<uint64_t>(trace.rounds.size());
    for (const asti::RoundRecord& round : trace.rounds) {
      d.Add(round.newly_activated);
      d.Add<uint64_t>(round.num_samples);
    }
  }
  return d.value();
}

void FillOutcome(Outcome& o, const RequestLine& line,
                 const asti::StatusOr<asti::SolveResult>& result) {
  o.served = true;
  o.adaptive = IsAdaptive(line.algorithm);
  if (!result.ok()) {
    o.error = result.status().ToString();
    return;
  }
  o.ok = true;
  o.profile = result->profile;
  o.digest = ResultDigest(*result);
  if (o.adaptive) {
    o.reached = result->always_reached;
    for (size_t s : result->seed_counts) o.seeds += s;
    for (const auto& trace : result->traces) o.rounds += trace.rounds.size();
  }
}

// --- Streams ------------------------------------------------------------------

struct SwapRecord {
  double visible_s = 0.0;  // SwapWithDelta wall time
  double apply_s = 0.0;
  double swap_s = 0.0;
  size_t ops = 0;
};

struct StreamState {
  std::vector<Outcome> outcomes;
  std::vector<SwapRecord> swaps;
  std::vector<asti::EdgeDelta> deltas;  // in swap order
  int64_t cache_bytes_max = 0;
  double window_s = 0.0;
};

int64_t CacheBytes(const asti::SeedMinEngine& engine) {
  int64_t bytes = 0;
  for (const auto& gauge : engine.metrics_snapshot().gauges) {
    if (gauge.name == "asti_sampler_cache_bytes") bytes = std::max(bytes, gauge.value);
  }
  return bytes;
}

/// One mutation: a random batch against the current epoch, then the swap.
SwapRecord MutateOnce(asti::GraphCatalog& catalog, asti::Rng& rng, StreamState& state,
                      SpanRecorder& recorder) {
  const auto current = catalog.Get(kGraphName);
  ASM_CHECK(current.ok()) << current.status().ToString();
  auto delta = asti::MakeRandomDelta(current->graph(), kChurn, rng);
  ASM_CHECK(delta.ok()) << delta.status().ToString();
  ScopedSpan span(&recorder, "delta.SwapWithDelta");
  const auto start = Clock::now();
  const auto swapped = asti::SwapWithDelta(catalog, kGraphName, *delta);
  SwapRecord record;
  record.visible_s = SecondsSince(start);
  ASM_CHECK(swapped.ok()) << swapped.status().ToString();
  record.apply_s = swapped->apply_seconds;
  record.swap_s = swapped->swap_seconds;
  record.ops = swapped->stats.inserted + swapped->stats.deleted + swapped->stats.reweighted;
  state.deltas.push_back(std::move(*delta));
  return record;
}

void ServeClosedLoop(const WorkloadSpec& spec, const RunOptions& options,
                     const std::vector<RequestLine>& requests, asti::SeedMinEngine& engine,
                     SpanRecorder& recorder, StreamState& state) {
  state.outcomes.assign(requests.size(), Outcome{});
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&] {
      double previous_done = 0.0;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) break;
        if (i >= spec.checked_prefix && Clock::now() >= end) break;
        Outcome& o = state.outcomes[i];
        ScopedSpan request_span(&recorder, "request", -1, static_cast<int64_t>(i));
        const asti::SolveRequest request = MakeRequest(engine, requests[i]);
        o.submit_start = SecondsSince(start);
        o.lag = previous_done > 0.0 ? o.submit_start - previous_done : 0.0;
        std::future<asti::StatusOr<asti::SolveResult>> future;
        {
          ScopedSpan span(&recorder, "api.SubmitAsync", request_span.id(), i);
          future = engine.SubmitAsync(request);
        }
        o.submit_end = SecondsSince(start);
        {
          ScopedSpan span(&recorder, "api.future.get", request_span.id(), i);
          future.wait();
        }
        o.done = previous_done = SecondsSince(start);
        FillOutcome(o, requests[i], future.get());
      }
    });
  }
  for (auto& t : clients) t.join();
  state.window_s = SecondsSince(start);
}

// --- Metrics ------------------------------------------------------------------

/// The raw per-request samples behind the quantiles, one line per served
/// request.
void WriteSamples(const std::string& path, const std::vector<RequestLine>& requests,
                  const std::vector<Outcome>& outcomes) {
  std::ofstream out(path);
  out << "index\talgorithm\teta\tok\tlatency_ms\tqueue_wait_ms\tseeds\trounds\tsets\t"
         "reused\trequest_bytes\tshared_bytes\tdigest\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.served) continue;
    out << i << '\t' << requests[i].algorithm << '\t' << requests[i].eta << '\t' << o.ok << '\t'
        << (o.done - o.submit_start) * 1e3 << '\t' << o.profile.queue_wait_seconds * 1e3 << '\t'
        << o.seeds << '\t' << o.rounds << '\t' << o.profile.sets_generated << '\t'
        << o.profile.sets_reused << '\t' << o.profile.collection_bytes << '\t'
        << o.profile.shared_collection_bytes << '\t' << Hex(o.digest) << '\n';
  }
}

/// A /proc/self/status field in MiB (VmRSS = resident now, VmHWM = peak).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stod(line.substr(field.size() + 1)) / 1024.0;
  }
  return 0.0;
}

void Put(MetricMap& m, const std::string& name, double value, const std::string& unit,
         size_t samples = 0) {
  m[name] = Metric{value, unit, samples};
}

/// Cost to one thread of recording a span while `threads` threads record
/// into one scratch recorder at once (so lock contention is included).
double SpanCostSeconds(size_t threads) {
  SpanRecorder scratch(true);
  constexpr int kSpans = 20000;
  std::vector<double> seconds(threads);
  std::vector<std::thread> recorders;
  for (size_t t = 0; t < threads; ++t) {
    recorders.emplace_back([&, t] {
      const auto start = Clock::now();
      for (int i = 0; i < kSpans; ++i) ScopedSpan span(&scratch, "api.SubmitAsync", -1, i);
      seconds[t] = SecondsSince(start);
    });
  }
  for (auto& r : recorders) r.join();
  return Quantile(seconds, 0.5) / kSpans;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  SpanRecorder recorder(options.trace);
  MetricMap& m = report.metrics;

  const auto [graph_path, requests_path] = GenerateInputs(spec, options);
  const std::vector<RequestLine> requests = LoadRequests(requests_path);

  // Setup, several times: the median is setup_s; the last engine set up
  // before the stream serves it. Each set-up first releases the engine
  // before it.
  std::vector<double> setup_s, ingest_s, construct_s;
  auto set_up = [&](Serving& into) {
    into.Reset();
    SetupTimes times;
    into = Setup(spec, graph_path, recorder, times);
    setup_s.push_back(times.total_s);
    ingest_s.push_back(times.ingest_s);
    construct_s.push_back(times.construct_s);
  };
  Serving serving;
  for (size_t rep = 1; rep < kSetupsBefore; ++rep) set_up(serving);
  // The last set-up before the stream also measures the memory a ready
  // engine keeps resident: the resident-set growth across it, with freed
  // heap returned to the system before both readings.
  serving.Reset();
  malloc_trim(0);
  const double rss_before_mb = StatusMb("VmRSS");
  set_up(serving);
  malloc_trim(0);
  const double setup_rss_mb = StatusMb("VmRSS") - rss_before_mb;
  const auto initial = serving.catalog->Get(kGraphName);
  ASM_CHECK(initial.ok());
  asti::GraphRef initial_ref = *initial;

  // The mutator swaps at fixed times inside the window, so every run of a
  // seed makes the same number of swaps.
  StreamState state;
  std::thread mutator;
  if (spec.swap_interval_s > 0.0) {
    mutator = std::thread([&, start = Clock::now()] {
      asti::Rng rng(options.seed ^ kChurnSalt);
      for (size_t k = 1; static_cast<double>(k) * spec.swap_interval_s < options.seconds; ++k) {
        std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                  std::chrono::duration<double>(
                                                      static_cast<double>(k) * spec.swap_interval_s)));
        state.cache_bytes_max = std::max(state.cache_bytes_max, CacheBytes(*serving.engine));
        state.swaps.push_back(MutateOnce(*serving.catalog, rng, state, recorder));
      }
    });
  }
  const double stream_from = recorder.Now();
  ServeClosedLoop(spec, options, requests, *serving.engine, recorder, state);
  const double stream_to = recorder.Now();
  if (mutator.joinable()) mutator.join();
  state.cache_bytes_max = std::max(state.cache_bytes_max, CacheBytes(*serving.engine));

  // --- Output checks (counted, never aborting) ---
  std::vector<double> latency, queue_wait, submit, lag, request_bytes;
  double seeds_sum = 0.0, rounds_sum = 0.0, sets_sum = 0.0;
  size_t adaptive_count = 0, prefix_ok = 0;
  double sampling_s = 0.0, coverage_s = 0.0, busy_s = 0.0;
  double reused = 0.0, generated = 0.0;
  Digest combined;
  for (size_t i = 0; i < state.outcomes.size(); ++i) {
    const Outcome& o = state.outcomes[i];
    if (!o.served) continue;
    ++report.attempted;
    if (!o.ok) {
      ++report.failed;
      report.check_failures.push_back("request " + std::to_string(i) + ": " + o.error);
      continue;
    }
    if (o.adaptive && !o.reached) {
      ++report.failed;
      report.check_failures.push_back("request " + std::to_string(i) + " missed eta");
    }
    latency.push_back(o.done - o.submit_start);
    queue_wait.push_back(o.profile.queue_wait_seconds);
    submit.push_back(o.submit_end - o.submit_start);
    lag.push_back(o.lag);
    request_bytes.push_back(
        static_cast<double>(o.profile.collection_bytes + o.profile.shared_collection_bytes));
    sampling_s += o.profile.sampling_seconds;
    coverage_s += o.profile.coverage_seconds;
    busy_s += o.profile.total_seconds - o.profile.queue_wait_seconds;
    reused += static_cast<double>(o.profile.sets_reused);
    generated += static_cast<double>(o.profile.sets_generated);
    if (i < spec.checked_prefix) {
      ++prefix_ok;
      combined.Add(i);
      combined.Add(o.digest);
      sets_sum += static_cast<double>(o.profile.sets_generated + o.profile.sets_reused);
      if (o.adaptive) {
        ++adaptive_count;
        seeds_sum += static_cast<double>(o.seeds);
        rounds_sum += static_cast<double>(o.rounds);
      }
    }
  }

  WriteSamples(options.work_dir + "/samples.tsv", requests, state.outcomes);

  // Solo re-solve of a fixed prefix sample on a fresh engine.
  if (spec.solo_checks > 0) {
    asti::SeedMinEngine solo(*serving.catalog, EngineOptions(spec));
    for (size_t i = 0; i < spec.solo_checks && i < state.outcomes.size(); ++i) {
      ++report.attempted;
      const auto result = solo.Solve(MakeRequest(solo, requests[i]));
      if (!result.ok() || !state.outcomes[i].ok ||
          ResultDigest(*result) != state.outcomes[i].digest) {
        ++report.failed;
        report.check_failures.push_back("request " + std::to_string(i) +
                                        " differs when re-solved alone");
      }
    }
  }

  // Mutations: the stream's own swaps (workloads with a mutator), or idle
  // swaps after the stream. Either way delta_visible_ms is their median.
  if (state.swaps.empty()) {
    asti::Rng rng(options.seed ^ kChurnSalt);
    for (size_t k = 0; k < kIdleSwaps; ++k) {
      state.swaps.push_back(MutateOnce(*serving.catalog, rng, state, recorder));
    }
  }
  // The served chain must equal a from-scratch rebuild of the same batches.
  {
    ++report.attempted;
    asti::DirectedGraph rebuilt = initial_ref.graph();  // copy of epoch 1
    bool ok = true;
    for (const asti::EdgeDelta& delta : state.deltas) {
      auto next = asti::ApplyDeltaByRebuild(rebuilt, delta);
      if (!next.ok()) {
        ok = false;
        break;
      }
      rebuilt = std::move(*next);
    }
    const auto final_ref = serving.catalog->Get(kGraphName);
    const uint64_t served_digest = GraphDigest(final_ref->graph());
    if (!ok || GraphDigest(rebuilt) != served_digest) {
      ++report.failed;
      report.check_failures.push_back("final graph differs from the rebuild chain");
    }
    if (spec.swap_interval_s > 0.0) combined.Add(served_digest);
  }
  report.result_digest = combined.value();
  initial_ref = {};

  // The traced run's store replay registers the stream engine's snapshot.
  const std::string snapshot_path = options.work_dir + "/snapshot.asms";
  if (options.trace) {
    const asti::Status saved = serving.engine->SaveSnapshot(kGraphName, snapshot_path);
    ASM_CHECK(saved.ok()) << saved.ToString();
  }
  for (size_t rep = 0; rep < kSetupsAfter; ++rep) set_up(serving);

  std::vector<double> visible, apply_ms, apply_ns_per_op, blackout;
  for (const SwapRecord& s : state.swaps) {
    visible.push_back(s.visible_s);
    apply_ms.push_back(s.apply_s * 1e3);
    apply_ns_per_op.push_back(s.ops > 0 ? s.apply_s * 1e9 / static_cast<double>(s.ops) : 0.0);
    blackout.push_back(s.swap_s * 1e3);
  }

  // --- End-to-end metrics ---
  const size_t completed = latency.size();
  Put(m, "setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  Put(m, "latency_p50_ms", Quantile(latency, 0.5) * 1e3, "ms", completed);
  Put(m, "latency_p90_ms", Quantile(latency, 0.9) * 1e3, "ms", completed);
  Put(m, "throughput_qps", static_cast<double>(completed) / state.window_s, "1/s", completed);
  Put(m, "setup_rss_mb", setup_rss_mb, "MB");
  Put(m, "process.peak_rss_mb", StatusMb("VmHWM"), "MB");
  Put(m, "seeds_mean", adaptive_count > 0 ? seeds_sum / static_cast<double>(adaptive_count) : 0.0,
      "count", adaptive_count);
  Put(m, "delta_visible_ms", Quantile(visible, 0.5) * 1e3, "ms", visible.size());

  // --- Per-layer metrics from the stream ---
  Put(m, "sampling.sets_per_request", prefix_ok > 0 ? sets_sum / static_cast<double>(prefix_ok) : 0.0,
      "count", prefix_ok);
  Put(m, "core.rounds_per_request",
      adaptive_count > 0 ? rounds_sum / static_cast<double>(adaptive_count) : 0.0, "count",
      adaptive_count);
  Put(m, "sampling.seconds_share", busy_s > 0.0 ? sampling_s / busy_s : 0.0, "ratio", completed);
  Put(m, "coverage.seconds_share", busy_s > 0.0 ? coverage_s / busy_s : 0.0, "ratio", completed);
  Put(m, "sampling.cache.reuse_ratio", reused + generated > 0.0 ? reused / (reused + generated) : 0.0,
      "ratio", completed);
  Put(m, "sampling.request_bytes_p50", Quantile(request_bytes, 0.5), "bytes", completed);
  Put(m, "sampling.cache.bytes_max", static_cast<double>(state.cache_bytes_max), "bytes");
  Put(m, "api.admission.submit_us", Quantile(submit, 0.5) * 1e6, "us", completed);
  Put(m, "api.admission.queue_wait_p50_ms", Quantile(queue_wait, 0.5) * 1e3, "ms", completed);
  Put(m, "api.admission.queue_wait_p90_ms", Quantile(queue_wait, 0.9) * 1e3, "ms", completed);
  Put(m, "delta.apply_ms", Quantile(apply_ms, 0.5), "ms", apply_ms.size());
  Put(m, "delta.apply_ns_per_op", Quantile(apply_ns_per_op, 0.5), "ns", apply_ns_per_op.size());
  Put(m, "api.catalog.swap_blackout_ms", Quantile(blackout, 0.5), "ms", blackout.size());
  Put(m, "graph.ingest_ms", Quantile(ingest_s, 0.5) * 1e3, "ms", ingest_s.size());
  Put(m, "api.engine_construct_ms", Quantile(construct_s, 0.5) * 1e3, "ms", construct_s.size());
  Put(m, "bench.generator_lag_p90_ms", Quantile(lag, 0.9) * 1e3, "ms", lag.size());

  if (!options.trace) return report;

  // --- Traced run only: store replay, then the layer replays ---
  serving.Reset();
  {
    std::vector<double> structural, full;
    for (int rep = 0; rep < 3; ++rep) {
      for (auto verify : {asti::store::SnapshotVerify::kStructural,
                          asti::store::SnapshotVerify::kChecksums}) {
        asti::GraphCatalog scratch;
        ScopedSpan span(&recorder, verify == asti::store::SnapshotVerify::kStructural
                                       ? "store.RegisterSnapshotFile.structural"
                                       : "store.RegisterSnapshotFile.checksums");
        const auto start = Clock::now();
        const auto ref = asti::RegisterSnapshotFile(scratch, snapshot_path, verify);
        ASM_CHECK(ref.ok()) << ref.status().ToString();
        (verify == asti::store::SnapshotVerify::kStructural ? structural : full)
            .push_back(SecondsSince(start) * 1e3);
      }
    }
    std::filesystem::remove(snapshot_path);
    Put(m, "store.register_ms", Quantile(structural, 0.5), "ms", structural.size());
    Put(m, "store.verify_full_ms", Quantile(full, 0.5), "ms", full.size());
  }

  // Replays run on the graphs and thresholds of the workloads that own the
  // layer, whichever workload this traced run belongs to.
  const WorkloadSpec& ic = *FindWorkload("asti-ic");
  const WorkloadSpec& lt = *FindWorkload("lt-shared");
  const WorkloadSpec& churn = *FindWorkload("churn-ic");
  auto make_graph = [](const WorkloadSpec& s) {
    auto g = asti::MakeSurrogateDataset(s.dataset, s.scale, kGraphSeed);
    ASM_CHECK(g.ok()) << g.status().ToString();
    return std::move(*g);
  };
  auto eta_of = [](const WorkloadSpec& s, const asti::DirectedGraph& g, size_t k = 0) {
    return std::max<NodeId>(1, static_cast<NodeId>(std::llround(s.eta_fractions[k] * g.NumNodes())));
  };
  {
    ScopedSpan replay_span(&recorder, "replay");
    asti::ThreadPool pool1(1), pool2(kWorkers);
    const asti::DirectedGraph ic_graph = make_graph(ic);
    const NodeId ic_eta = eta_of(ic, ic_graph);
    {
      ScopedSpan span(&recorder, "replay.sampling.mrr.ic", replay_span.id());
      const SamplingReplay r = ReplaySampling(ic_graph, ic.model, ic_eta, pool2, 6000, options.seed);
      Put(m, "sampling.mrr_ns_per_set.ic", r.ns_per_set, "ns");
      Put(m, "sampling.ns_per_edge.ic", r.ns_per_edge, "ns");
      Put(m, "sampling.edges_per_set.ic", r.edges_per_set, "count");
      Put(m, "sampling.nodes_per_set.ic", r.nodes_per_set, "count");
      Put(m, "parallel.sets_per_s_2w", r.sets_per_s, "1/s");
    }
    {
      ScopedSpan span(&recorder, "replay.parallel.1w", replay_span.id());
      const SamplingReplay r = ReplaySampling(ic_graph, ic.model, ic_eta, pool1, 6000, options.seed);
      Put(m, "parallel.sets_per_s_1w", r.sets_per_s, "1/s");
    }
    {
      ScopedSpan span(&recorder, "replay.cache", replay_span.id());
      const CacheReplay r = ReplayCache(ic_graph, ic.model, ic_eta, pool2, 2000);
      Put(m, "sampling.cache.acquire_hit_us", r.acquire_hit_us, "us");
      Put(m, "sampling.cache.extend_ns_per_set", r.extend_ns_per_set, "ns");
    }
    const asti::DirectedGraph lt_graph = make_graph(lt);
    {
      ScopedSpan span(&recorder, "replay.sampling.lt", replay_span.id());
      const SamplingReplay rr = ReplaySampling(lt_graph, lt.model, 0, pool2, 20000, options.seed);
      const SamplingReplay mrr =
          ReplaySampling(lt_graph, lt.model, eta_of(lt, lt_graph, 1), pool2, 4000, options.seed);
      Put(m, "sampling.rr_ns_per_set.lt", rr.ns_per_set, "ns");
      Put(m, "sampling.mrr_ns_per_set.lt", mrr.ns_per_set, "ns");
    }
    {
      ScopedSpan span(&recorder, "replay.coverage", replay_span.id());
      const CoverageReplay r =
          ReplayCoverage(lt_graph, lt.model, eta_of(lt, lt_graph, 1), pool2, 10000, options.seed);
      Put(m, "coverage.index_ms", r.index_ms, "ms");
      Put(m, "coverage.picks_per_s.b4", r.picks_per_s_b4, "1/s");
      Put(m, "coverage.picks_per_s.b16", r.picks_per_s_b16, "1/s");
    }
    {
      // churn-ic's post-churn graph: its seed's mutation chain, applied to
      // the base graph for as many swaps as a churn-ic window makes.
      asti::DirectedGraph churned = make_graph(churn);
      asti::Rng rng(options.seed ^ kChurnSalt);
      for (size_t k = 1; k * churn.swap_interval_s < options.seconds; ++k) {
        auto delta = asti::MakeRandomDelta(churned, kChurn, rng);
        ASM_CHECK(delta.ok()) << delta.status().ToString();
        auto next = asti::ApplyDelta(churned, *delta);
        ASM_CHECK(next.ok()) << next.status().ToString();
        churned = std::move(*next);
      }
      ScopedSpan span(&recorder, "replay.sampling.ic_churned", replay_span.id());
      const SamplingReplay r = ReplaySampling(churned, churn.model, 0, pool2, 20000, options.seed);
      Put(m, "sampling.rr_ns_per_set.ic_churned", r.ns_per_set, "ns");
    }
  }

  // Tracing overhead, an estimate: the spans that started during the stream
  // times the contended cost of one span, over the clients' stream time.
  // Cache effects of recording on the request path are not included.
  const std::vector<SpanRecord> spans = recorder.Spans();
  size_t stream_spans = 0;
  for (const SpanRecord& s : spans) {
    if (s.start >= stream_from && s.start < stream_to) ++stream_spans;
  }
  const double clients = static_cast<double>(spec.clients);
  Put(m, "bench.trace_overhead_frac",
      static_cast<double>(stream_spans) * SpanCostSeconds(spec.clients) /
          ((stream_to - stream_from) * clients),
      "ratio", stream_spans);

  report.spans_path = options.work_dir + "/spans.jsonl";
  ASM_CHECK(recorder.WriteJsonLines(report.spans_path)) << "cannot write " << report.spans_path;
  std::ofstream summary(options.work_dir + "/spans_summary.json");
  summary << "{";
  bool first = true;
  for (const auto& [name, totals] : SummarizeSpans(spans)) {
    summary << (first ? "" : ",") << "\n  " << JsonString(name) << ": {\"count\": " << totals.count
            << ", \"total_s\": " << JsonNumber(totals.total_seconds)
            << ", \"self_s\": " << JsonNumber(totals.self_seconds)
            << ", \"p50_s\": " << JsonNumber(Quantile(totals.durations, 0.5)) << "}";
    first = false;
  }
  summary << "\n}\n";
  return report;
}

}  // namespace perfbench
