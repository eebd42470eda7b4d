// Weighted shortest paths on snapshots of the (sub)graph. Used by the
// legality checker (min-kappa-weight level-s paths) and the gradient-skew
// metrics (kappa distance between node pairs).
#pragma once

#include <functional>
#include <vector>

#include "util/common.h"

namespace gcs {

struct WeightedEdge {
  NodeId to = kNoNode;
  double weight = 0.0;
};

/// Adjacency-list snapshot; build once per measurement instant.
using AdjacencyList = std::vector<std::vector<WeightedEdge>>;

/// Build an adjacency list from an undirected edge list with a weight
/// function. Edges with non-positive weight are rejected.
AdjacencyList build_adjacency(
    int n, const std::vector<EdgeKey>& edges,
    const std::function<double(const EdgeKey&)>& weight);

/// Single-source shortest path distances (Dijkstra); unreachable = +inf.
std::vector<double> dijkstra(const AdjacencyList& adj, NodeId src);

/// Multi-source Dijkstra: `seeds` holds one start value per node (+inf = not
/// a source, any finite value allowed); returns min_v(seeds[v] + d(v, u))
/// for every u.
std::vector<double> dijkstra_from_seeds(const AdjacencyList& adj,
                                        std::vector<double> seeds);

/// Single-source hop counts (BFS); unreachable = -1.
std::vector<int> bfs_hops(const AdjacencyList& adj, NodeId src);

/// Largest shortest-path weight between any two nodes; +inf if disconnected,
/// 0 if n<=1. Exact eccentricity bounding, bit-identical to the all-pairs
/// maximum: a few dozen Dijkstras at most on lines, grids, trees and
/// geometric graphs, but n of them where every node may tie the diameter
/// (ring, torus, hypercube, star).
double weighted_diameter(const AdjacencyList& adj);

}  // namespace gcs
