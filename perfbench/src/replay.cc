#include "replay.h"

#include <numeric>
#include <vector>

#include "common.h"
#include "coverage/inverted_index.h"
#include "coverage/lazy_greedy.h"
#include "parallel/parallel_sampler.h"
#include "sampling/rr_collection.h"
#include "sampling/sampler_cache.h"

namespace perfbench {
namespace {

constexpr int kRepetitions = 3;

std::vector<asti::NodeId> AllNodes(const asti::DirectedGraph& graph) {
  std::vector<asti::NodeId> nodes(graph.NumNodes());
  std::iota(nodes.begin(), nodes.end(), asti::NodeId{0});
  return nodes;
}

asti::RrCollection Generate(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                            asti::NodeId eta, asti::ThreadPool& pool, size_t count,
                            uint64_t seed, asti::SamplerCost* cost) {
  const std::vector<asti::NodeId> candidates = AllNodes(graph);
  asti::ParallelRrSampler sampler(graph, model, pool);
  asti::RrCollection out(graph.NumNodes());
  asti::Rng rng(seed);
  if (eta == 0) {
    sampler.GenerateBatch(candidates, nullptr, count, out, rng);
  } else {
    const asti::RootSizeSampler root_size(graph.NumNodes(), eta);
    sampler.GenerateMrrBatch(candidates, nullptr, root_size, count, out, rng);
  }
  if (cost != nullptr) *cost = sampler.cost();
  return out;
}

}  // namespace

SamplingReplay ReplaySampling(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                              asti::NodeId eta, asti::ThreadPool& pool, size_t count,
                              uint64_t seed) {
  std::vector<double> seconds;
  asti::SamplerCost cost;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = Clock::now();
    Generate(graph, model, eta, pool, count, seed, &cost);
    seconds.push_back(SecondsSince(start));
  }
  const double median = Quantile(seconds, 0.5);
  const double n = static_cast<double>(count);
  SamplingReplay r;
  r.ns_per_set = median * 1e9 / n;
  r.sets_per_s = n / median;
  r.nodes_per_set = static_cast<double>(cost.nodes_visited) / n;
  r.edges_per_set = static_cast<double>(cost.edges_examined) / n;
  r.ns_per_edge = cost.edges_examined > 0
                      ? median * 1e9 / static_cast<double>(cost.edges_examined)
                      : 0.0;
  return r;
}

CoverageReplay ReplayCoverage(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                              asti::NodeId eta, asti::ThreadPool& pool, size_t sets,
                              uint64_t seed) {
  const asti::RrCollection collection =
      Generate(graph, model, eta, pool, sets, seed, nullptr);
  const asti::CollectionView view(collection);
  std::vector<double> index_s, b4_s, b16_s;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto start = Clock::now();
    const asti::InvertedIndex index = asti::BuildInvertedIndex(view, &pool);
    index_s.push_back(SecondsSince(start));
    start = Clock::now();
    asti::LazyGreedyMaxCoverage(view, 4, nullptr, &pool);
    b4_s.push_back(SecondsSince(start));
    start = Clock::now();
    asti::LazyGreedyMaxCoverage(view, 16, nullptr, &pool);
    b16_s.push_back(SecondsSince(start));
  }
  CoverageReplay r;
  r.index_ms = Quantile(index_s, 0.5) * 1e3;
  r.picks_per_s_b4 = 4.0 / Quantile(b4_s, 0.5);
  r.picks_per_s_b16 = 16.0 / Quantile(b16_s, 0.5);
  return r;
}

CacheReplay ReplayCache(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                        asti::NodeId eta, asti::ThreadPool& pool, size_t target) {
  const auto key = asti::SamplerCacheKey::Mrr(model, eta, asti::RootRounding::kRandomized);
  std::vector<double> extend_s, hit_s;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    asti::SamplerCache cache(graph);
    auto start = Clock::now();
    cache.Acquire(key, target, &pool, nullptr, nullptr);
    extend_s.push_back(SecondsSince(start));
    for (int hit = 0; hit < 20; ++hit) {
      start = Clock::now();
      cache.Acquire(key, target / 2 + static_cast<size_t>(hit), &pool, nullptr, nullptr);
      hit_s.push_back(SecondsSince(start));
    }
  }
  CacheReplay r;
  r.extend_ns_per_set = Quantile(extend_s, 0.5) * 1e9 / static_cast<double>(target);
  r.acquire_hit_us = Quantile(hit_s, 0.5) * 1e6;
  return r;
}

}  // namespace perfbench
