#include "graph/graph.h"

#include <cmath>

namespace asti {

double DirectedGraph::InProbabilitySum(NodeId v) const {
  double sum = 0.0;
  for (double p : InProbabilities(v)) sum += p;
  return sum;
}

std::span<const double> DirectedGraph::InSkipLogQ() const {
  std::call_once(in_skip_->built, [this] {
    std::vector<double>& log_q = in_skip_->log_q;
    log_q.resize(num_nodes_);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const auto probs = InProbabilities(v);
      const double p = probs.empty() ? 1.0 : probs[0];
      bool uniform = p > 0.0 && p <= 1.0;
      for (const double q : probs) uniform = uniform && q == p;
      log_q[v] = uniform ? std::log1p(-p) : kMixedInProbabilities;
    }
  });
  return in_skip_->log_q;
}

std::vector<Edge> DirectedGraph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (EdgeId e = out_offsets_[u]; e < out_offsets_[u + 1]; ++e) {
      edges.push_back(Edge{u, out_targets_[e], out_probs_[e]});
    }
  }
  return edges;
}

}  // namespace asti
