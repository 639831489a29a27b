// Tests for sampling/: RootSizeSampler, RrCollection, RrSampler,
// MrrSampler. Statistical tests validate the unbiasedness of RR-sets
// (n·Pr[v ∈ R] = E[I(v)]) and Theorem 3.3's bracketing of the mRR
// estimator against Monte-Carlo ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "diffusion/monte_carlo.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"

namespace asti {
namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

// --- RootSizeSampler -------------------------------------------------------

TEST(RootSizeTest, IntegerRatioIsDeterministic) {
  RootSizeSampler sampler(100, 10);  // n/η = 10 exactly
  Rng rng(71);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(sampler.Sample(rng), 10u);
  EXPECT_DOUBLE_EQ(sampler.ExpectedK(), 10.0);
}

TEST(RootSizeTest, FractionalRatioAveragesToExpectation) {
  RootSizeSampler sampler(10, 4);  // n/η = 2.5
  Rng rng(72);
  double total = 0.0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) {
    const NodeId k = sampler.Sample(rng);
    EXPECT_TRUE(k == 2 || k == 3);
    total += k;
  }
  EXPECT_NEAR(total / trials, 2.5, 0.01);
}

TEST(RootSizeTest, ShortfallOneMeansAllRoots) {
  RootSizeSampler sampler(37, 1);
  Rng rng(73);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(sampler.Sample(rng), 37u);
}

TEST(RootSizeTest, ShortfallEqualsPopulation) {
  RootSizeSampler sampler(12, 12);
  Rng rng(74);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(sampler.Sample(rng), 1u);
}

TEST(RootSizeTest, FloorAndCeilAblationModes) {
  RootSizeSampler floor_sampler(10, 4, RootRounding::kFloor);
  RootSizeSampler ceil_sampler(10, 4, RootRounding::kCeil);
  Rng rng(75);
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(floor_sampler.Sample(rng), 2u);
    EXPECT_EQ(ceil_sampler.Sample(rng), 3u);
  }
}

// --- RrCollection ----------------------------------------------------------

TEST(RrCollectionTest, CoverageTracksSets) {
  RrCollection collection(5);
  collection.PushNode(1);
  collection.PushNode(3);
  collection.SealSet();
  collection.PushNode(3);
  collection.SealSet();
  EXPECT_EQ(collection.NumSets(), 2u);
  EXPECT_EQ(collection.TotalEntries(), 3u);
  EXPECT_EQ(collection.Coverage(3), 2u);
  EXPECT_EQ(collection.Coverage(1), 1u);
  EXPECT_EQ(collection.Coverage(0), 0u);
  EXPECT_EQ(collection.ArgMaxCoverage(), 3u);
}

TEST(RrCollectionTest, SetContentsPreserved) {
  RrCollection collection(10);
  collection.PushNode(7);
  collection.PushNode(2);
  collection.PushNode(9);
  collection.SealSet();
  auto set = collection.Set(0);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], 7u);
  EXPECT_EQ(set[1], 2u);
  EXPECT_EQ(set[2], 9u);
}

TEST(RrCollectionTest, ClearResetsEverything) {
  RrCollection collection(4);
  collection.PushNode(0);
  collection.SealSet();
  collection.Clear();
  EXPECT_EQ(collection.NumSets(), 0u);
  EXPECT_EQ(collection.TotalEntries(), 0u);
  EXPECT_EQ(collection.Coverage(0), 0u);
}

TEST(RrCollectionTest, ArgMaxTieBreaksLowestId) {
  RrCollection collection(4);
  collection.PushNode(2);
  collection.SealSet();
  collection.PushNode(1);
  collection.SealSet();
  EXPECT_EQ(collection.ArgMaxCoverage(), 1u);
}

// --- RR-set unbiasedness ---------------------------------------------------

TEST(RrSamplerTest, SingletonCoverageMatchesSpread) {
  // n * Pr[v in R] ≈ E[I(v)] on the Figure 2 graph (E[I(v1)] = 2.75).
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph->NumNodes());
  Rng rng(76);
  const auto candidates = AllNodes(graph->NumNodes());
  const size_t samples = 200000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  const double n = 4.0;
  auto estimate = [&](NodeId v) {
    return n * collection.Coverage(v) / static_cast<double>(samples);
  };
  EXPECT_NEAR(estimate(0), 2.75, 0.05);
  EXPECT_NEAR(estimate(1), 2.0, 0.05);
  EXPECT_NEAR(estimate(2), 2.0, 0.05);
  EXPECT_NEAR(estimate(3), 1.0, 0.05);
}

TEST(RrSamplerTest, ResidualSkipsActiveNodes) {
  auto graph = BuildWeightedGraph(MakePath(5), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(5);
  BitVector active(5);
  active.Set(2);  // severs the path
  std::vector<NodeId> candidates = {3, 4};
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    sampler.Generate(candidates, &active, collection, rng);
  }
  EXPECT_EQ(collection.Coverage(2), 0u);
  EXPECT_EQ(collection.Coverage(0), 0u);
  EXPECT_EQ(collection.Coverage(1), 0u);
  EXPECT_GT(collection.Coverage(3), 0u);
}

TEST(RrSamplerTest, LtSetsArePaths) {
  // In LT, each node keeps <= 1 in-edge, so an RR-set's size cannot exceed
  // the longest simple path + 1, and every set is a chain of predecessors.
  Rng graph_rng(78);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(40, 200, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kLinearThreshold);
  RrCollection collection(40);
  const auto candidates = AllNodes(40);
  Rng rng(79);
  for (int i = 0; i < 500; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    EXPECT_LE(collection.Set(s).size(), 40u);
  }
}

TEST(RrSamplerTest, LtSingletonCoverageMatchesMonteCarlo) {
  Rng graph_rng(80);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(30, 120, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const NodeId probe = 3;
  MonteCarloEstimator mc(*graph, DiffusionModel::kLinearThreshold);
  Rng mc_rng(81);
  const double truth = mc.EstimateSpread({probe}, 60000, mc_rng);

  RrSampler sampler(*graph, DiffusionModel::kLinearThreshold);
  RrCollection collection(30);
  const auto candidates = AllNodes(30);
  Rng rng(82);
  const size_t samples = 120000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  const double estimate =
      30.0 * collection.Coverage(probe) / static_cast<double>(samples);
  EXPECT_NEAR(estimate, truth, 0.12);
}

// --- Geometric-skip IC traversal ------------------------------------------

// Star into node 0 from `degree` sources, every in-edge at probability p.
DirectedGraph InStar(NodeId degree, double p) {
  GraphBuilder builder(degree + 1);
  for (NodeId u = 1; u <= degree; ++u) EXPECT_TRUE(builder.AddEdge(u, 0, p).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(RrSamplerTest, SkipPathLiveInEdgesAreIndependentBernoulli) {
  // Rooted at the hub, an RR set is the hub plus its live in-edges' sources:
  // each source independently with probability p, Binomial(d, p) in all.
  // Sources 1..4 are active: a skip may land on them but never adds them.
  constexpr NodeId kDegree = 24;
  constexpr double kP = 0.15;
  const DirectedGraph graph = InStar(kDegree, kP);
  BitVector active(kDegree + 1);
  for (NodeId u = 1; u <= 4; ++u) active.Set(u);
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(kDegree + 1);
  Rng rng(94);
  constexpr size_t kSets = 100000;
  size_t both_5_and_6 = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 0; i < kSets; ++i) {
    sampler.Generate({0}, &active, collection, rng);
    const auto set = collection.Set(i);
    const double live = static_cast<double>(set.size() - 1);
    sum += live;
    sum_sq += live * live;
    both_5_and_6 += std::count(set.begin(), set.end(), 5) *
                    std::count(set.begin(), set.end(), 6);
  }
  const double n = static_cast<double>(kSets);
  const double sigma = std::sqrt(kP * (1 - kP) / n);
  for (NodeId u = 1; u <= 4; ++u) EXPECT_EQ(collection.Coverage(u), 0u);
  for (NodeId u = 5; u <= kDegree; ++u) {
    EXPECT_NEAR(collection.Coverage(u) / n, kP, 4.5 * sigma) << "source " << u;
  }
  EXPECT_NEAR(both_5_and_6 / n, kP * kP, 4.5 * std::sqrt(kP * kP / n));
  const double inactive = kDegree - 4;
  const double mean = sum / n;
  EXPECT_NEAR(mean, inactive * kP, 4.5 * std::sqrt(inactive * kP * (1 - kP) / n));
  EXPECT_NEAR(sum_sq / n - mean * mean, inactive * kP * (1 - kP),
              0.05 * inactive * kP * (1 - kP));
  // Cost: every set pops its nodes; the hub's examined edges are the live
  // ones the skips landed on, active sources included.
  EXPECT_EQ(sampler.cost().nodes_visited, kSets + static_cast<uint64_t>(sum));
  EXPECT_NEAR(static_cast<double>(sampler.cost().edges_examined) / n, kDegree * kP,
              4.5 * std::sqrt(kDegree * kP * (1 - kP) / n));
}

TEST(RrSamplerTest, CertainInEdgesAreAllLiveWithoutDraws) {
  const DirectedGraph graph = InStar(6, 1.0);
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(7);
  Rng rng(95);
  Rng expected = rng;
  sampler.Generate({0}, nullptr, collection, rng);
  expected.NextBounded(1);  // the root draw is the only draw
  EXPECT_EQ(collection.Set(0).size(), 7u);
  EXPECT_EQ(rng(), expected());
  EXPECT_EQ(sampler.cost().edges_examined, 6u);
}

// 36 nodes on an Erdős–Rényi skeleton. The in-edges of v share one
// probability by class v % 4 — 0: weighted cascade, 1: 0.35, 2: 1 — except
// class 3, whose in-edges draw distinct probabilities (per-edge coins).
DirectedGraph MixedInProbabilityGraph() {
  constexpr NodeId kNodes = 36;
  Rng rng(96);
  const EdgeSkeleton skeleton = MakeErdosRenyi(kNodes, 100, rng);
  std::vector<double> in_degree(kNodes);
  for (const Edge& e : skeleton.edges) ++in_degree[e.target];
  GraphBuilder builder(kNodes);
  for (const Edge& e : skeleton.edges) {
    const double p = e.target % 4 == 0   ? 1.0 / in_degree[e.target]
                     : e.target % 4 == 1 ? 0.35
                     : e.target % 4 == 2 ? 1.0
                                         : 0.05 + 0.5 * rng.NextDouble();
    EXPECT_TRUE(builder.AddEdge(e.source, e.target, p).ok());
  }
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// Residual graph of the mixed fixture: every fifth node is active.
struct MixedResidual {
  DirectedGraph graph = MixedInProbabilityGraph();
  BitVector active{graph.NumNodes()};
  std::vector<NodeId> candidates;

  MixedResidual() {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (v % 5 == 0) {
        active.Set(v);
      } else {
        candidates.push_back(v);
      }
    }
  }
};

// Forward Monte Carlo E[min{I(v | active), cap}] in 20 batches: returns
// {mean, standard error of the mean}.
std::pair<double, double> MonteCarloMarginal(const MixedResidual& residual, NodeId v,
                                             NodeId cap, Rng& rng) {
  MonteCarloEstimator mc(residual.graph, DiffusionModel::kIndependentCascade);
  constexpr size_t kBatches = 20;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t b = 0; b < kBatches; ++b) {
    const double batch =
        mc.EstimateMarginalTruncatedSpread({v}, residual.active, cap, 1000, rng);
    sum += batch;
    sum_sq += batch * batch;
  }
  const double mean = sum / kBatches;
  const double variance = std::max(0.0, sum_sq / kBatches - mean * mean);
  return {mean, std::sqrt(variance / (kBatches - 1))};
}

TEST(RrSamplerTest, MixedGraphResidualInclusionMatchesMonteCarlo) {
  // n_i · Pr[v ∈ R] = E[I(v | active)] for every inactive v, on a residual
  // graph mixing skip, certain and per-edge-coin nodes.
  const MixedResidual residual;
  const auto log_q = residual.graph.InSkipLogQ();
  size_t skip = 0, certain = 0, mixed = 0;
  for (const NodeId v : residual.candidates) {
    if (residual.graph.InDegree(v) == 0) continue;
    if (log_q[v] == DirectedGraph::kMixedInProbabilities) {
      ++mixed;
    } else if (std::isinf(log_q[v])) {
      ++certain;
    } else {
      ++skip;
    }
  }
  ASSERT_GE(skip, 5u);
  ASSERT_GE(certain, 3u);
  ASSERT_GE(mixed, 3u);

  RrSampler sampler(residual.graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(residual.graph.NumNodes());
  Rng rng(97);
  constexpr size_t kSets = 200000;
  for (size_t i = 0; i < kSets; ++i) {
    sampler.Generate(residual.candidates, &residual.active, collection, rng);
  }
  const double n_i = static_cast<double>(residual.candidates.size());
  Rng mc_rng(98);
  double chi_square = 0.0;
  for (const NodeId v : residual.candidates) {
    const double f = static_cast<double>(collection.Coverage(v)) / kSets;
    const double estimate = n_i * f;
    const double rr_se = n_i * std::sqrt(f * (1 - f) / kSets);
    const auto [truth, mc_se] =
        MonteCarloMarginal(residual, v, static_cast<NodeId>(n_i), mc_rng);
    const double z = (estimate - truth) / std::hypot(rr_se, mc_se);
    EXPECT_LT(std::abs(z), 4.5) << "node " << v << ": RR " << estimate << ", MC "
                                << truth;
    chi_square += z * z;
  }
  EXPECT_LT(chi_square, 2.5 * n_i);
}

// --- mRR-sets: root counts, dedup, Theorem 3.3 -----------------------------

TEST(MrrSamplerTest, SetsContainDistinctNodes) {
  Rng graph_rng(83);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(50, 300, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(50);
  const auto candidates = AllNodes(50);
  Rng rng(84);
  for (int i = 0; i < 200; ++i) {
    sampler.Generate(candidates, nullptr, 5, collection, rng);
  }
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    auto set = collection.Set(s);
    std::set<NodeId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    EXPECT_GE(set.size(), 5u);  // contains at least the roots
  }
}

TEST(MrrSamplerTest, LargeRootCountUsesFisherYatesPath) {
  auto graph = BuildWeightedGraph(MakePath(20), WeightScheme::kUniform, 0.5);
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(20);
  const auto candidates = AllNodes(20);
  Rng rng(85);
  // num_roots = 20 (> population/2) exercises the Fisher-Yates branch.
  sampler.Generate(candidates, nullptr, 20, collection, rng);
  auto set = collection.Set(0);
  std::set<NodeId> unique(set.begin(), set.end());
  EXPECT_EQ(unique.size(), 20u);  // all nodes are roots
}

TEST(MrrSamplerTest, RootsUniformOverCandidates) {
  // With no edges, an mRR-set is exactly its roots; each node should root
  // k/n of the time.
  GraphBuilder builder(10);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(10);
  const auto candidates = AllNodes(10);
  Rng rng(86);
  const size_t samples = 30000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, 3, collection, rng);
  }
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_NEAR(static_cast<double>(collection.Coverage(v)) / samples, 0.3, 0.02);
  }
}

TEST(MrrSamplerTest, Theorem33BracketsOnFigure2) {
  // Empirical check of (1-1/e)·E[Γ(v)] ≤ E[Γ̃(v)] ≤ E[Γ(v)] with η = 2 on
  // the Figure 2 graph, where E[Γ] is exact: Γ(v1)=1.75, Γ(v2)=2.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  const NodeId n = 4;
  const NodeId eta = 2;
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(n, eta);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(87);
  const size_t samples = 300000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
  }
  auto gamma_tilde = [&](NodeId v) {
    return static_cast<double>(eta) * collection.Coverage(v) /
           static_cast<double>(samples);
  };
  const double exact_gamma_v1 = 1.75;
  const double exact_gamma_v2 = 2.0;
  EXPECT_GE(gamma_tilde(0), kOneMinusInvE * exact_gamma_v1 - 0.02);
  EXPECT_LE(gamma_tilde(0), exact_gamma_v1 + 0.02);
  EXPECT_GE(gamma_tilde(1), kOneMinusInvE * exact_gamma_v2 - 0.02);
  EXPECT_LE(gamma_tilde(1), exact_gamma_v2 + 0.02);
}

TEST(MrrSamplerTest, Theorem33BracketsOnRandomGraph) {
  Rng graph_rng(88);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(40, 160, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const NodeId n = 40;
  const NodeId eta = 7;
  // Ground truth by Monte Carlo.
  MonteCarloEstimator mc(*graph, DiffusionModel::kIndependentCascade);
  Rng mc_rng(89);
  const NodeId probe = 11;
  const double gamma = mc.EstimateTruncatedSpread({probe}, eta, 80000, mc_rng);

  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(n, eta);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(90);
  const size_t samples = 150000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
  }
  const double gamma_tilde = static_cast<double>(eta) * collection.Coverage(probe) /
                             static_cast<double>(samples);
  EXPECT_GE(gamma_tilde, kOneMinusInvE * gamma - 0.1);
  EXPECT_LE(gamma_tilde, gamma + 0.1);
}

TEST(MrrSamplerTest, Theorem33BracketsOnMixedResidualGraph) {
  // (1 − 1/e)·E[Γ(v | active)] ≤ η_i·Pr[v ∈ R] ≤ E[Γ(v | active)] for every
  // inactive v, with mRR sets drawn through all three traversal paths.
  const MixedResidual residual;
  const NodeId n_i = static_cast<NodeId>(residual.candidates.size());
  const NodeId shortfall = 6;
  MrrSampler sampler(residual.graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(n_i, shortfall);
  RrCollection collection(residual.graph.NumNodes());
  Rng rng(99);
  constexpr size_t kSets = 200000;
  for (size_t i = 0; i < kSets; ++i) {
    sampler.Generate(residual.candidates, &residual.active, root_size.Sample(rng),
                     collection, rng);
  }
  Rng mc_rng(100);
  for (const NodeId v : residual.candidates) {
    const double f = static_cast<double>(collection.Coverage(v)) / kSets;
    const double gamma_tilde = shortfall * f;
    const auto [gamma, mc_se] = MonteCarloMarginal(residual, v, shortfall, mc_rng);
    const double slack = 4.5 * std::hypot(shortfall * std::sqrt(f * (1 - f) / kSets), mc_se);
    EXPECT_LE(gamma_tilde, gamma + slack) << "node " << v;
    EXPECT_GE(gamma_tilde, kOneMinusInvE * gamma - slack) << "node " << v;
  }
}

TEST(MrrSamplerTest, ResidualSetsAvoidActiveNodes) {
  Rng graph_rng(91);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(30, 200, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  BitVector active(30);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < 30; ++v) {
    if (v % 3 == 0) {
      active.Set(v);
    } else {
      candidates.push_back(v);
    }
  }
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(30);
  Rng rng(92);
  for (int i = 0; i < 300; ++i) {
    sampler.Generate(candidates, &active, 4, collection, rng);
  }
  for (NodeId v = 0; v < 30; v += 3) EXPECT_EQ(collection.Coverage(v), 0u);
}

}  // namespace
}  // namespace asti
