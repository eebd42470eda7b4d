// Legality checking (Definitions 5.11-5.13).
//
// Ψ^s_u(t) = max over level-s paths p=(u,...,v) of {L_v − L_u − (s+½)κ_p}.
// Because the κ-cost is additive along the path and the profit depends only
// on the endpoint, Ψ^s_u = max_v {L_v − L_u − (s+½)·d^s_κ(u,v)} where d^s_κ
// is the min-κ-weight over level-s paths. With h(u) = min_v {(s+½)·d^s_κ(u,v)
// − L_v}, Ψ^s_u = −L_u − h(u), and h comes from one multi-source Dijkstra per
// level seeded with −L_v at every node: O(m log n) per level, not per node.
// The trivial path (u) is a level-s path, so Ψ^s_u >= 0 always.
//
// The system is (C,s)-legal at u iff Ψ^s_u < C_s/2; we use the stabilized
// gradient sequence C_s = 2·Ĝ/σ^{max(s−2,0)} (Definition 5.19 / Thm 5.25).
#pragma once

#include <vector>

#include "core/engine.h"
#include "graph/paths.h"

namespace gcs {

/// The stabilized gradient sequence value C_s (Def. 5.19 with the level
/// fully inserted): C_s = 2Ĝ/σ^{max(s−2,0)}.
double gradient_sequence_value(double ghat, double sigma, int s);

struct LevelLegality {
  int level = 0;
  double c_s = 0.0;          ///< C_s
  double worst_psi = 0.0;    ///< max_u Ψ^s_u
  NodeId worst_node = kNoNode;
  double margin = 0.0;       ///< worst_psi − C_s/2 (negative = legal)
};

struct LegalityReport {
  std::vector<LevelLegality> levels;
  double worst_margin = -kTimeInf;
  int worst_level = 0;
  NodeId worst_node = kNoNode;
  [[nodiscard]] bool legal() const { return worst_margin < 0.0; }
};

/// The level-s edge set E_s(t) (Def. 5.8): both endpoints hold the peer in
/// their level-s neighbor set.
std::vector<EdgeKey> level_edge_set(Engine& engine, int s);

/// Ψ^s_u for every node at the current instant (kAllLevels-safe).
std::vector<double> compute_psi(Engine& engine, int s);

/// Check legality for levels s = 1..s_stop where s_stop is data-driven
/// (C_s below κ_min/4 adds no information) and capped at `level_cap`.
LegalityReport check_legality(Engine& engine, double ghat, int level_cap = 32);

/// Brute-force Ψ^s_u by path enumeration (exponential; tests only).
double psi_bruteforce(Engine& engine, NodeId u, int s, int max_path_len);

}  // namespace gcs
