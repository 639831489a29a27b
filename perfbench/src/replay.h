// Layer replays of the traced run: direct calls into one layer's public
// functions on a workload's graph, timed from the benchmark's own code.
// Work counts (nodes visited, edges examined) are exact for a fixed seed;
// times are medians over a few repetitions.
#pragma once

#include <cstdint>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"

namespace perfbench {

struct SamplingReplay {
  double ns_per_set = 0.0;
  double sets_per_s = 0.0;
  double nodes_per_set = 0.0;  // exact
  double edges_per_set = 0.0;  // exact
  double ns_per_edge = 0.0;
};

/// ParallelRrSampler batches over the full graph: mRR sets at threshold
/// `eta` (root counts from RootSizeSampler(n, eta)), or single-root RR sets
/// when `eta` is 0.
SamplingReplay ReplaySampling(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                              asti::NodeId eta, asti::ThreadPool& pool, size_t count,
                              uint64_t seed);

struct CoverageReplay {
  double index_ms = 0.0;
  double picks_per_s_b4 = 0.0;
  double picks_per_s_b16 = 0.0;
};

/// BuildInvertedIndex and LazyGreedyMaxCoverage (b = 4 and 16) on an mRR
/// collection of `sets` sets.
CoverageReplay ReplayCoverage(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                              asti::NodeId eta, asti::ThreadPool& pool, size_t sets,
                              uint64_t seed);

struct CacheReplay {
  double acquire_hit_us = 0.0;
  double extend_ns_per_set = 0.0;
};

/// SamplerCache::Acquire on the full-residual mRR key: a cold extension to
/// `target` sets, then repeated acquires of a sealed prefix (hits).
CacheReplay ReplayCache(const asti::DirectedGraph& graph, asti::DiffusionModel model,
                        asti::NodeId eta, asti::ThreadPool& pool, size_t target);

}  // namespace perfbench
