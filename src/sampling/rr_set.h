// Single-root reverse-reachable set sampling (Borgs et al. 2014).
//
// A random RR-set is the set of nodes that reach a uniformly chosen root
// in a random realization. n · Pr[S ∩ R ≠ ∅] = E[I(S)], which makes RR
// collections unbiased spread estimators — the machinery behind the
// AdaptIM and ATEUC baselines. The residual variant roots at a uniform
// *inactive* node and traverses only inactive nodes, estimating marginal
// spreads on G_i.
//
// IC traversal: reverse BFS over live in-edges. A node whose in-edges all
// share one probability p (weighted cascade, uniform IC, any node a
// reweight left alone) finds its live in-edges by geometric skips: one
// draw of floor(log U / log(1 - p)) jumps straight to the next live edge
// (SUBSIM, Guo et al. SIGMOD 2020), so dead edges cost neither a draw nor
// a visited-set read. p = 1 makes every in-edge live with no draw. A node
// with mixed probabilities flips one coin per in-edge.
// LT traversal: each visited node retains at most one in-edge (live-edge
// equivalence), so the traversal adds at most one predecessor per node.

#pragma once

#include <span>
#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "sampling/rr_collection.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti {

/// Cumulative traversal-cost counters; back the Lemma 3.8/3.9 validation
/// bench (expected mRR cost ∝ OPT_i/η_i · m_i).
struct SamplerCost {
  uint64_t nodes_visited = 0;
  /// In-edges the traversal touched. IC: the live in-edges a geometric
  /// skip landed on, plus the full in-degree of every popped node with
  /// mixed probabilities or p = 1. LT: the full in-degree of every popped
  /// node.
  uint64_t edges_examined = 0;
};

/// Sampler of single-root RR-sets; reusable scratch per graph.
class RrSampler {
 public:
  RrSampler(const DirectedGraph& graph, DiffusionModel model)
      : graph_(&graph),
        model_(model),
        visited_(graph.NumNodes()),
        skip_log_q_(model == DiffusionModel::kIndependentCascade
                        ? graph.InSkipLogQ()
                        : std::span<const double>()) {}

  /// Cumulative cost since construction / the last ResetCost().
  const SamplerCost& cost() const { return cost_; }
  void ResetCost() { cost_ = SamplerCost{}; }

  /// Appends one RR-set to `out`. The root is drawn uniformly from
  /// `candidates` (the residual node list); nodes with active->Get(v) true
  /// are excluded from traversal. Pass active == nullptr for the full graph.
  /// Sink is any type with the RrCollection building protocol; instantiated
  /// for RrCollection and RrSetBuffer (worker-local parallel staging).
  template <class Sink>
  void Generate(const std::vector<NodeId>& candidates, const BitVector* active,
                Sink& out, Rng& rng);

 private:
  friend class MrrSampler;

  // Continues a reverse traversal over every node already pushed to the
  // in-progress set of `out` (the pool doubles as the BFS queue).
  template <class Sink>
  void TraverseFrom(const BitVector* active, Sink& out, Rng& rng);

  const DirectedGraph* graph_;
  DiffusionModel model_;
  EpochVisitedSet visited_;
  std::span<const double> skip_log_q_;  // graph.InSkipLogQ(); IC only
  SamplerCost cost_;
};

}  // namespace asti
