#include "graph/paths.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

namespace gcs {

AdjacencyList build_adjacency(
    int n, const std::vector<EdgeKey>& edges,
    const std::function<double(const EdgeKey&)>& weight) {
  AdjacencyList adj(static_cast<std::size_t>(n));
  for (const auto& e : edges) {
    const double w = weight(e);
    if (w <= 0.0) [[unlikely]] {
      throw std::runtime_error("build_adjacency: non-positive edge weight on " +
                               e.str());
    }
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, w});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, w});
  }
  return adj;
}

std::vector<double> dijkstra(const AdjacencyList& adj, NodeId src) {
  std::vector<double> dist(adj.size(), std::numeric_limits<double>::infinity());
  dist.at(static_cast<std::size_t>(src)) = 0.0;
  return dijkstra_from_seeds(adj, std::move(dist));
}

std::vector<double> dijkstra_from_seeds(const AdjacencyList& adj,
                                        std::vector<double> dist) {
  require(dist.size() == adj.size(), "dijkstra_from_seeds: one seed per node");
  using Item = std::pair<double, NodeId>;
  std::vector<Item> start;
  for (NodeId v = 0; v < static_cast<NodeId>(dist.size()); ++v) {
    if (dist[static_cast<std::size_t>(v)] < kTimeInf) {
      start.emplace_back(dist[static_cast<std::size_t>(v)], v);
    }
  }
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap(std::greater<>{},
                                                                     std::move(start));
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& edge : adj[static_cast<std::size_t>(u)]) {
      const double nd = d + edge.weight;
      if (nd < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = nd;
        heap.emplace(nd, edge.to);
      }
    }
  }
  return dist;
}

std::vector<int> bfs_hops(const AdjacencyList& adj, NodeId src) {
  std::vector<int> dist(adj.size(), -1);
  std::deque<NodeId> frontier{src};
  dist.at(static_cast<std::size_t>(src)) = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const auto& edge : adj[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(edge.to)] < 0) {
        dist[static_cast<std::size_t>(edge.to)] = dist[static_cast<std::size_t>(u)] + 1;
        frontier.push_back(edge.to);
      }
    }
  }
  return dist;
}

double weighted_diameter(const AdjacencyList& adj) {
  // Takes–Kosters eccentricity bounding. Every Dijkstra from a source s
  // bounds each other node's eccentricity by the triangle inequality:
  // max(d, ecc(s) − d) <= ecc(w) <= ecc(s) + d with d = d(s, w). A node
  // leaves the candidate set once its upper bound is below the largest
  // eccentricity found so far by a relative slack far above the rounding
  // error of a path sum, so every node whose computed eccentricity could
  // tie the maximum still gets its own Dijkstra and the result is the
  // bit-identical all-pairs maximum.
  constexpr double kSlack = 1e-9;
  const auto n = adj.size();
  if (n <= 1) return 0.0;
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, kTimeInf);
  std::vector<NodeId> candidates(n);
  for (std::size_t v = 0; v < n; ++v) candidates[v] = static_cast<NodeId>(v);
  // Alternate between the candidate that may lie farthest out and the most
  // central one, whose small eccentricity tightens upper bounds. Ties go to
  // the higher degree (a hub tightens more bounds; the first source is the
  // highest-degree node), then to the lower id.
  bool widest_next = true;
  const auto degree = [&adj](NodeId v) { return adj[static_cast<std::size_t>(v)].size(); };
  const auto better = [&](NodeId a, NodeId b) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (widest_next ? upper[ia] != upper[ib] : lower[ia] != lower[ib]) {
      return widest_next ? upper[ia] > upper[ib] : lower[ia] < lower[ib];
    }
    return degree(a) != degree(b) ? degree(a) > degree(b) : a < b;
  };
  double diameter = 0.0;
  while (!candidates.empty()) {
    const NodeId source = *std::min_element(candidates.begin(), candidates.end(), better);
    widest_next = !widest_next;
    const auto dist = dijkstra(adj, source);
    const double ecc = *std::max_element(dist.begin(), dist.end());
    if (ecc == kTimeInf) return kTimeInf;
    diameter = std::max(diameter, ecc);
    const double cutoff = diameter * (1.0 - kSlack);
    std::size_t kept = 0;
    for (const NodeId w : candidates) {
      if (w == source) continue;
      const auto i = static_cast<std::size_t>(w);
      lower[i] = std::max({lower[i], dist[i], ecc - dist[i]});
      upper[i] = std::min(upper[i], ecc + dist[i]);
      if (upper[i] >= cutoff) candidates[kept++] = w;
    }
    candidates.resize(kept);
  }
  return diameter;
}

}  // namespace gcs
