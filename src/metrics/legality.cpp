#include "metrics/legality.h"

#include <algorithm>
#include <cmath>

#include "metrics/skew.h"

namespace gcs {

double gradient_sequence_value(double ghat, double sigma, int s) {
  require(s >= 1 && ghat > 0.0 && sigma > 1.0, "gradient_sequence_value: bad args");
  return 2.0 * ghat / std::pow(sigma, std::max(s - 2, 0));
}

std::vector<EdgeKey> level_edge_set(Engine& engine, int s) {
  std::vector<EdgeKey> out;
  for (const EdgeKey& e : engine.graph().known_edges()) {
    if (!engine.graph().both_views_present(e)) continue;
    if (engine.algorithm(e.a).edge_in_level(e.b, s) &&
        engine.algorithm(e.b).edge_in_level(e.a, s)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<double> compute_psi(Engine& engine, int s) {
  const int n = engine.size();
  const double factor = static_cast<double>(s) + 0.5;
  // Weight by the algorithm's *current* κ: time-varying under weight-decay
  // insertion, equal to the derived constant otherwise.
  const AdjacencyList adj =
      build_adjacency(n, level_edge_set(engine, s), [&engine, factor](const EdgeKey& e) {
        return factor * live_kappa(engine, e);
      });
  // h(u) = min_v {(s+½)·d^s_κ(u,v) − L_v}: one Dijkstra seeded with −L_v at
  // every node. Then Ψ^s_u = −L_u − h(u), which is >= 0 because u seeds
  // itself (the trivial path).
  std::vector<double> seeds(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) seeds[static_cast<std::size_t>(u)] = -engine.logical(u);
  const std::vector<double> h = dijkstra_from_seeds(adj, seeds);
  std::vector<double> psi(static_cast<std::size_t>(n));
  for (std::size_t u = 0; u < psi.size(); ++u) psi[u] = seeds[u] - h[u];
  return psi;
}

LegalityReport check_legality(Engine& engine, double ghat, int level_cap) {
  const double sigma = engine.params().sigma();
  // Determine the smallest κ in the current graph for the stop criterion.
  double kappa_min = kTimeInf;
  for (const EdgeKey& e : engine.graph().known_edges()) {
    if (!engine.graph().both_views_present(e)) continue;
    kappa_min = std::min(kappa_min, metric_kappa(engine, e));
  }
  LegalityReport report;
  if (kappa_min == kTimeInf) return report;  // no edges: trivially legal

  for (int s = 1; s <= level_cap; ++s) {
    LevelLegality level;
    level.level = s;
    level.c_s = gradient_sequence_value(ghat, sigma, s);
    const auto psi = compute_psi(engine, s);
    for (NodeId u = 0; u < engine.size(); ++u) {
      if (psi[static_cast<std::size_t>(u)] > level.worst_psi) {
        level.worst_psi = psi[static_cast<std::size_t>(u)];
        level.worst_node = u;
      }
    }
    level.margin = level.worst_psi - level.c_s / 2.0;
    if (level.margin > report.worst_margin) {
      report.worst_margin = level.margin;
      report.worst_level = s;
      report.worst_node = level.worst_node;
    }
    report.levels.push_back(level);
    if (level.c_s < kappa_min / 4.0) break;  // deeper levels add no information
  }
  return report;
}

namespace {
void enumerate_paths(Engine& engine, const AdjacencyList& adj, NodeId u,
                     NodeId current, double kappa_sum, int remaining,
                     std::vector<char>& on_path, double factor, double& best) {
  best = std::max(best, engine.logical(current) - engine.logical(u) -
                            factor * kappa_sum);
  if (remaining == 0) return;
  for (const auto& edge : adj[static_cast<std::size_t>(current)]) {
    if (on_path[static_cast<std::size_t>(edge.to)]) continue;  // simple paths suffice
    on_path[static_cast<std::size_t>(edge.to)] = 1;
    enumerate_paths(engine, adj, u, edge.to, kappa_sum + edge.weight, remaining - 1,
                    on_path, factor, best);
    on_path[static_cast<std::size_t>(edge.to)] = 0;
  }
}
}  // namespace

double psi_bruteforce(Engine& engine, NodeId u, int s, int max_path_len) {
  const auto edges = level_edge_set(engine, s);
  const AdjacencyList adj =
      build_adjacency(engine.size(), edges,
                      [&engine](const EdgeKey& e) { return live_kappa(engine, e); });
  std::vector<char> on_path(static_cast<std::size_t>(engine.size()), 0);
  on_path[static_cast<std::size_t>(u)] = 1;
  double best = 0.0;
  enumerate_paths(engine, adj, u, u, 0.0, max_path_len, on_path,
                  static_cast<double>(s) + 0.5, best);
  return best;
}

}  // namespace gcs
