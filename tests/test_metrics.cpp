#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/topology.h"
#include "metrics/diameter.h"
#include "metrics/legality.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec small_config(int n, const std::vector<EdgeKey>& edges) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = edges;
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static = suggest_gtilde(n, edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("uniform");
  return cfg;
}

TEST(TimeSeriesTest, TracksExtremaAndThresholds) {
  TimeSeries ts;
  ts.add(0.0, 5.0);
  ts.add(1.0, 8.0);
  ts.add(2.0, 3.0);
  ts.add(3.0, 4.0);
  EXPECT_DOUBLE_EQ(ts.max(), 8.0);
  EXPECT_DOUBLE_EQ(ts.min(), 3.0);
  EXPECT_DOUBLE_EQ(ts.last(), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_in(1.5, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(ts.first_below(4.5, 0.0), 2.0);
  EXPECT_EQ(ts.first_below(1.0, 0.0), kTimeInf);
}

TEST(PeriodicSamplerTest, SamplesAtPeriod) {
  Simulator sim;
  std::vector<Time> samples;
  PeriodicSampler sampler(sim, 2.0, [&](Time t) { samples.push_back(t); });
  sampler.start(1.0);
  sim.run_until(9.0);
  ASSERT_EQ(samples.size(), 5u);  // 1,3,5,7,9
  EXPECT_DOUBLE_EQ(samples[0], 1.0);
  EXPECT_DOUBLE_EQ(samples[4], 9.0);
  sampler.stop();
  sim.run_until(20.0);
  EXPECT_EQ(samples.size(), 5u);
}

TEST(SkewMetrics, GlobalMatchesEngine) {
  Scenario s(small_config(5, topo_line(5)));
  s.start();
  s.run_until(40.0);
  const auto snap = measure_skew(s.engine());
  EXPECT_DOUBLE_EQ(snap.global, s.engine().true_global_skew());
  EXPECT_GE(snap.global, snap.worst_local);  // global dominates any edge skew
  EXPECT_GT(snap.worst_local, 0.0);
}

TEST(SkewMetrics, MetricKappaMatchesAoptDerivation) {
  Scenario s(small_config(3, topo_line(3)));
  s.start();
  const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));
  EXPECT_DOUBLE_EQ(kappa, s.aopt(0).edge_kappa(1));
  EXPECT_GT(kappa, 0.0);
}

TEST(SkewMetrics, GradientPointsCoverAllStablePairs) {
  Scenario s(small_config(6, topo_line(6)));
  s.start();
  s.run_until(20.0);
  const auto points = measure_gradient(s.engine(), 1.0);
  EXPECT_EQ(points.size(), 15u);  // C(6,2) pairs on a connected stable line
  for (const auto& p : points) {
    EXPECT_GT(p.kappa_dist, 0.0);
    EXPECT_GE(p.hops, 1);
    const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));
    EXPECT_NEAR(p.kappa_dist, p.hops * kappa, 1e-9);  // uniform weights
  }
}

TEST(SkewMetrics, GradientRespectsStabilityFilter) {
  Scenario s(small_config(4, topo_line(4)));
  s.start();
  s.run_until(20.0);
  s.graph().create_edge(EdgeKey(0, 3), s.spec().edge_params);
  s.run_until(22.0);
  // With a high stability requirement the new edge's shortcut is ignored.
  const auto strict = measure_gradient(s.engine(), 10.0);
  const auto loose = measure_gradient(s.engine(), 0.5);
  double strict_d03 = 0.0;
  double loose_d03 = 0.0;
  for (const auto& p : strict) {
    if (p.u == 0 && p.v == 3) strict_d03 = p.kappa_dist;
  }
  for (const auto& p : loose) {
    if (p.u == 0 && p.v == 3) loose_d03 = p.kappa_dist;
  }
  EXPECT_GT(strict_d03, loose_d03);  // 3 hops vs 1 hop
}

TEST(GradientBound, ShapeIsDLogDOverd) {
  const double ghat = 100.0;
  const double sigma = 25.0;
  // Bound per unit distance shrinks as distance grows (the log factor).
  const double per_unit_short = gradient_bound(1.0, ghat, sigma) / 1.0;
  const double per_unit_long = gradient_bound(50.0, ghat, sigma) / 50.0;
  EXPECT_GT(per_unit_short, per_unit_long);
  // For d >= sigma*ghat the level is clamped at s=1 => bound 2d.
  EXPECT_DOUBLE_EQ(gradient_bound(3000.0, ghat, sigma), 2.0 * 3000.0);
}

TEST(Legality, GradientSequenceValues) {
  const double ghat = 8.0;
  const double sigma = 4.0;
  EXPECT_DOUBLE_EQ(gradient_sequence_value(ghat, sigma, 1), 16.0);
  EXPECT_DOUBLE_EQ(gradient_sequence_value(ghat, sigma, 2), 16.0);
  EXPECT_DOUBLE_EQ(gradient_sequence_value(ghat, sigma, 3), 4.0);
  EXPECT_DOUBLE_EQ(gradient_sequence_value(ghat, sigma, 4), 1.0);
}

TEST(Legality, PsiMatchesBruteForceOnSmallGraph) {
  // Ring + chord, drifted apart: the Dijkstra reduction must equal
  // exhaustive path enumeration for every node and level.
  std::vector<EdgeKey> edges = topo_ring(5);
  edges.emplace_back(0, 2);
  Scenario s(small_config(5, edges));
  s.start();
  s.run_until(120.0);
  for (int level : {1, 2, 3}) {
    const auto psi = compute_psi(s.engine(), level);
    for (NodeId u = 0; u < 5; ++u) {
      const double brute = psi_bruteforce(s.engine(), u, level, 5);
      EXPECT_NEAR(psi[static_cast<std::size_t>(u)], brute, 1e-9)
          << "node " << u << " level " << level;
    }
  }
}

TEST(Legality, PsiNonNegativeAndMonotoneInLevel) {
  Scenario s(small_config(6, topo_line(6)));
  s.start();
  s.run_until(80.0);
  const auto psi1 = compute_psi(s.engine(), 1);
  const auto psi2 = compute_psi(s.engine(), 2);
  const auto psi3 = compute_psi(s.engine(), 3);
  for (NodeId u = 0; u < 6; ++u) {
    const auto i = static_cast<std::size_t>(u);
    EXPECT_GE(psi1[i], 0.0);
    // Lemma 5.15 (ii): Psi^s <= Psi^{s'} for s' <= s.
    EXPECT_LE(psi2[i], psi1[i] + 1e-12);
    EXPECT_LE(psi3[i], psi2[i] + 1e-12);
  }
}

TEST(Legality, SynchronizedStartIsLegal) {
  Scenario s(small_config(6, topo_line(6)));
  s.start();
  const auto report = check_legality(s.engine(), s.spec().aopt.gtilde_static);
  EXPECT_TRUE(report.legal());
  EXPECT_FALSE(report.levels.empty());
}

TEST(Legality, DetectsIllegalConfiguration) {
  Scenario s(small_config(4, topo_line(4)));
  s.start();
  s.run_until(10.0);
  // Hoist one interior node far above its neighbors: Psi at its neighbors
  // jumps to ~offset, which must exceed C_s/2 for deep levels.
  s.engine().corrupt_logical(1, s.engine().logical(1) + 50.0);
  const auto report = check_legality(s.engine(), s.spec().aopt.gtilde_static);
  EXPECT_FALSE(report.legal());
  EXPECT_GT(report.worst_margin, 0.0);
}

// The per-node Dijkstra compute_psi() replaced: Ψ^s_u straight from
// max_v {L_v − L_u − (s+½)·d^s_κ(u,v)}, one shortest-path tree per node.
std::vector<double> psi_per_node(Engine& engine, int s) {
  const int n = engine.size();
  const AdjacencyList adj = build_adjacency(
      n, level_edge_set(engine, s), [&engine](const EdgeKey& e) { return live_kappa(engine, e); });
  std::vector<double> logical(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) logical[static_cast<std::size_t>(u)] = engine.logical(u);
  std::vector<double> psi(static_cast<std::size_t>(n), 0.0);
  const double factor = static_cast<double>(s) + 0.5;
  for (NodeId u = 0; u < n; ++u) {
    const auto dist = dijkstra(adj, u);
    double best = 0.0;  // trivial path (u)
    for (NodeId v = 0; v < n; ++v) {
      const double d = dist[static_cast<std::size_t>(v)];
      if (!std::isfinite(d)) continue;
      best = std::max(best, logical[static_cast<std::size_t>(v)] -
                                logical[static_cast<std::size_t>(u)] - factor * d);
    }
    psi[static_cast<std::size_t>(u)] = best;
  }
  return psi;
}

/// check_legality's level loop over psi_per_node.
LegalityReport legality_per_node(Engine& engine, double ghat) {
  double kappa_min = kTimeInf;
  for (const EdgeKey& e : engine.graph().known_edges()) {
    if (engine.graph().both_views_present(e)) {
      kappa_min = std::min(kappa_min, metric_kappa(engine, e));
    }
  }
  LegalityReport report;
  if (kappa_min == kTimeInf) return report;
  for (int s = 1; s <= 32; ++s) {
    LevelLegality level;
    level.level = s;
    level.c_s = gradient_sequence_value(ghat, engine.params().sigma(), s);
    const auto psi = psi_per_node(engine, s);
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
    if (level.c_s < kappa_min / 4.0) break;
  }
  return report;
}

void expect_psi_matches_per_node(Engine& engine, int s, const std::string& where) {
  double scale = 1.0;
  for (NodeId u = 0; u < engine.size(); ++u) scale = std::max(scale, std::abs(engine.logical(u)));
  const auto psi = compute_psi(engine, s);
  const auto oracle = psi_per_node(engine, s);
  ASSERT_EQ(psi.size(), oracle.size());
  for (std::size_t u = 0; u < psi.size(); ++u) {
    EXPECT_NEAR(psi[u], oracle[u], 1e-9 * scale) << where << " level " << s << " node " << u;
  }
}

void expect_report_matches_per_node(Engine& engine, double ghat, const std::string& where) {
  const LegalityReport report = check_legality(engine, ghat);
  const LegalityReport oracle = legality_per_node(engine, ghat);
  ASSERT_EQ(report.levels.size(), oracle.levels.size()) << where;
  for (std::size_t i = 0; i < report.levels.size(); ++i) {
    EXPECT_EQ(report.levels[i].worst_node, oracle.levels[i].worst_node) << where << " level " << i + 1;
  }
  EXPECT_EQ(report.worst_level, oracle.worst_level) << where;
  EXPECT_EQ(report.worst_node, oracle.worst_node) << where;
  EXPECT_EQ(report.legal(), oracle.legal()) << where;
}

TEST(Legality, MultiSourcePsiMatchesPerNodeDijkstraUnderChurn) {
  // Churn without connectivity repair: fresh edges sit below the deep
  // levels and removals split the graph, so level-s edge sets fall apart.
  // After each checkpoint the clocks are scattered by up to `spread` κ, so
  // Ψ is positive along multi-hop paths and the run continues from there.
  int disconnected_levels = 0;
  const std::vector<std::pair<std::string, std::vector<EdgeKey>>> topologies{
      {"ring", topo_ring(24)}, {"grid", topo_grid(4, 6)}};
  for (const auto& [name, edges] : topologies) {
    for (const std::uint64_t seed : {3ULL, 4ULL}) {
      ScenarioSpec cfg = small_config(24, edges);
      cfg.seed = seed;
      cfg.adversary = ComponentSpec::parse("churn:rate=0.8,start=2,keep_connected=false");
      Scenario s(cfg);
      s.start();
      const double kappa = metric_kappa(s.engine(), edges.front());
      Rng rng(seed);
      for (const double spread : {0.5, 2.0, 8.0, 32.0}) {
        s.run_until(s.sim().now() + 10.0);
        for (NodeId u = 0; u < 24; ++u) {
          s.engine().corrupt_logical(u, s.engine().logical(u) + rng.uniform(0.0, spread * kappa));
        }
        const std::string where = name + " seed " + std::to_string(seed) + " spread " +
                                  std::to_string(spread);
        for (int level = 1; level <= 4; ++level) {
          if (hop_diameter(24, level_edge_set(s.engine(), level)) < 0) ++disconnected_levels;
          expect_psi_matches_per_node(s.engine(), level, where);
        }
        expect_report_matches_per_node(s.engine(), cfg.aopt.gtilde_static, where);
      }
    }
  }
  EXPECT_GT(disconnected_levels, 0);
}

TEST(Legality, DetectsOneCorruptedNodeOnLargeGrid) {
  constexpr int kSide = 64;
  Scenario s(small_config(kSide * kSide, topo_grid(kSide, kSide)));
  s.start();
  s.run_until(5.0);
  const double ghat = s.spec().aopt.gtilde_static;
  ASSERT_TRUE(check_legality(s.engine(), ghat).legal());
  const NodeId hoisted = (kSide / 2) * kSide + kSide / 2;
  s.engine().corrupt_logical(hoisted, s.engine().logical(hoisted) + 50.0);
  const auto report = check_legality(s.engine(), ghat);
  EXPECT_FALSE(report.legal());
  // Ψ peaks next to the hoisted node: one κ-hop away from the profit.
  const int offset = std::abs(report.worst_node - hoisted);
  EXPECT_TRUE(offset == 1 || offset == kSide) << "worst node " << report.worst_node;
}

TEST(DiameterEstimate, ScalesWithHopCount) {
  Scenario s4(small_config(4, topo_line(4)));
  s4.start();
  Scenario s8(small_config(8, topo_line(8)));
  s8.start();
  const double d4 = estimate_dynamic_diameter(s4.engine());
  const double d8 = estimate_dynamic_diameter(s8.engine());
  EXPECT_GT(d8, d4 * 1.5);
  EXPECT_LT(d8, d4 * 3.0);
  // Per-hop cost sanity: positive, dominated by delay uncertainty.
  const double cost =
      hop_uncertainty_cost(default_edge_params(), 0.25, 1e-3);
  EXPECT_GT(cost, 0.0);
  EXPECT_NEAR(d4, 3.0 * cost, 1e-9);
}

TEST(DiameterEstimate, InfiniteWhenDisconnected) {
  ScenarioSpec cfg = small_config(4, topo_line(4));
  cfg.explicit_edges = {EdgeKey(0, 1), EdgeKey(2, 3)};  // two components
  Scenario s(cfg);
  s.start();
  EXPECT_TRUE(std::isinf(estimate_dynamic_diameter(s.engine())));
}

}  // namespace
}  // namespace gcs
