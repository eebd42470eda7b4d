#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "fingerprint_common.h"
#include "graph/adversary.h"
#include "graph/dynamic_graph.h"
#include "graph/paths.h"
#include "graph/topology.h"
#include "sim/simulator.h"

namespace gcs {
namespace {

EdgeParams params_with_tau(double tau) {
  EdgeParams p;
  p.eps = 0.1;
  p.tau = tau;
  p.msg_delay_max = 0.5;
  p.msg_delay_min = 0.1;
  return p;
}

TEST(Topology, LineRingStarCounts) {
  EXPECT_EQ(topo_line(5).size(), 4u);
  EXPECT_EQ(topo_ring(5).size(), 5u);
  EXPECT_EQ(topo_star(5).size(), 4u);
  EXPECT_EQ(topo_complete(5).size(), 10u);
  EXPECT_EQ(topo_grid(3, 4).size(), 3u * 3u + 4u * 2u);
  EXPECT_EQ(topo_torus(3, 3).size(), 18u);
}

TEST(Topology, HopDiameters) {
  EXPECT_EQ(hop_diameter(6, topo_line(6)), 5);
  EXPECT_EQ(hop_diameter(6, topo_ring(6)), 3);
  EXPECT_EQ(hop_diameter(6, topo_star(6)), 2);
  EXPECT_EQ(hop_diameter(6, topo_complete(6)), 1);
  EXPECT_EQ(hop_diameter(3, {EdgeKey(0, 1)}), -1);  // disconnected
}

TEST(Topology, RandomTreeIsConnectedSpanning) {
  Rng rng(3);
  const auto edges = topo_random_tree(20, rng);
  EXPECT_EQ(edges.size(), 19u);
  EXPECT_GT(hop_diameter(20, edges), 0);
}

TEST(Topology, GnpConnected) {
  Rng rng(5);
  const auto edges = topo_gnp_connected(24, 0.15, rng);
  EXPECT_GE(hop_diameter(24, edges), 1);
}

TEST(Topology, RandomGeometricConnectedWithPositions) {
  Rng rng(7);
  std::vector<Point2> pos;
  const auto edges = topo_random_geometric(30, 0.2, rng, &pos);
  EXPECT_EQ(pos.size(), 30u);
  EXPECT_GE(hop_diameter(30, edges), 1);
}

TEST(DynamicGraph, InstantCreationVisibleToBothViews) {
  Simulator sim;
  DynamicGraph g(sim, 4);
  g.create_edge_instant(EdgeKey(0, 1), params_with_tau(0.5));
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_TRUE(g.view_present(1, 0));
  EXPECT_TRUE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_FALSE(g.view_present(0, 2));
  ASSERT_EQ(g.view_neighbors(0).size(), 1u);
  EXPECT_EQ(g.view_neighbors(0)[0].id, 1);
}

TEST(DynamicGraph, DetectionDelayBoundedByTau) {
  Simulator sim;
  DynamicGraph g(sim, 2, 11);
  g.set_detection_delay_mode(DetectionDelayMode::kUniform);
  const double tau = 0.5;
  sim.run_until(10.0);
  g.create_edge(EdgeKey(0, 1), params_with_tau(tau));
  sim.run_until(10.0 + tau + 1e-9);
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_TRUE(g.view_present(1, 0));
  // Removal detected within tau as well.
  g.destroy_edge(EdgeKey(0, 1));
  sim.run_until(sim.now() + tau + 1e-9);
  EXPECT_FALSE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
}

TEST(DynamicGraph, MaxAsymmetryMode) {
  Simulator sim;
  DynamicGraph g(sim, 2, 11);
  g.set_detection_delay_mode(DetectionDelayMode::kMax);
  sim.run_until(5.0);
  g.create_edge(EdgeKey(0, 1), params_with_tau(1.0));
  // Endpoint a detects instantly, b after exactly tau.
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
  sim.run_until(6.0 + 1e-9);
  EXPECT_TRUE(g.view_present(1, 0));
}

TEST(DynamicGraph, FlappingEdgeResolvesToFinalState) {
  Simulator sim;
  DynamicGraph g(sim, 2, 13);
  g.set_detection_delay_mode(DetectionDelayMode::kUniform);
  sim.run_until(1.0);
  const EdgeKey e(0, 1);
  const auto p = params_with_tau(0.5);
  g.create_edge(e, p);
  g.destroy_edge(e);
  g.create_edge(e, p);
  g.destroy_edge(e);
  sim.run_until(3.0);
  EXPECT_FALSE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
  EXPECT_FALSE(g.adversary_present(e));
}

TEST(DynamicGraph, ListenerSeesDiscoveryAndLoss) {
  struct Recorder : DynamicGraph::Listener {
    std::vector<std::pair<NodeId, NodeId>> ups, downs;
    void on_edge_discovered(NodeId u, NodeId peer) override { ups.emplace_back(u, peer); }
    void on_edge_lost(NodeId u, NodeId peer) override { downs.emplace_back(u, peer); }
  };
  Simulator sim;
  DynamicGraph g(sim, 3, 17);
  Recorder rec;
  g.set_listener(&rec);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  g.create_edge(EdgeKey(0, 2), params_with_tau(0.1));
  EXPECT_EQ(rec.ups.size(), 2u);
  g.destroy_edge(EdgeKey(0, 2));
  EXPECT_EQ(rec.downs.size(), 2u);
}

TEST(DynamicGraph, ViewSinceTracksLatestDiscovery) {
  Simulator sim;
  DynamicGraph g(sim, 2, 19);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  const EdgeKey e(0, 1);
  sim.run_until(2.0);
  g.create_edge(e, params_with_tau(0.1));
  EXPECT_DOUBLE_EQ(g.view_since(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.both_views_since(e), 2.0);
  sim.run_until(5.0);
  g.destroy_edge(e);
  g.create_edge(e, params_with_tau(0.1));
  EXPECT_DOUBLE_EQ(g.view_since(0, 1), 5.0);
}

TEST(DynamicGraph, ParamsMustNotChangeAcrossReinsertion) {
  Simulator sim;
  DynamicGraph g(sim, 2, 23);
  const EdgeKey e(0, 1);
  g.create_edge(e, params_with_tau(0.5));
  g.destroy_edge(e);
  EXPECT_THROW(g.create_edge(e, params_with_tau(0.7)), std::runtime_error);
}

TEST(DynamicGraph, ConnectivityQueries) {
  Simulator sim;
  DynamicGraph g(sim, 4, 29);
  const auto p = params_with_tau(0.1);
  for (const auto& e : topo_line(4)) g.create_edge_instant(e, p);
  EXPECT_TRUE(g.adversary_connected());
  EXPECT_FALSE(g.connected_without(EdgeKey(1, 2)));  // bridge
  g.create_edge_instant(EdgeKey(0, 3), p);
  EXPECT_TRUE(g.connected_without(EdgeKey(1, 2)));  // ring now
}

TEST(Paths, DijkstraOnWeightedLine) {
  const auto edges = topo_line(5);
  const auto adj = build_adjacency(5, edges, [](const EdgeKey&) { return 2.0; });
  const auto dist = dijkstra(adj, 0);
  EXPECT_DOUBLE_EQ(dist[4], 8.0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
}

TEST(Paths, DijkstraPrefersLightPath) {
  // 0-1-2 with weights 1,1 and direct 0-2 with weight 5.
  std::vector<EdgeKey> edges{EdgeKey(0, 1), EdgeKey(1, 2), EdgeKey(0, 2)};
  const auto adj = build_adjacency(3, edges, [](const EdgeKey& e) {
    return (e == EdgeKey(0, 2)) ? 5.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(dijkstra(adj, 0)[2], 2.0);
}

TEST(Paths, UnreachableIsInfinite) {
  const auto adj = build_adjacency(3, {EdgeKey(0, 1)}, [](const EdgeKey&) { return 1.0; });
  EXPECT_TRUE(std::isinf(dijkstra(adj, 0)[2]));
  EXPECT_EQ(bfs_hops(adj, 0)[2], -1);
  EXPECT_TRUE(std::isinf(weighted_diameter(adj)));
}

TEST(Paths, WeightedDiameterOfRing) {
  const auto adj = build_adjacency(6, topo_ring(6), [](const EdgeKey&) { return 1.0; });
  EXPECT_DOUBLE_EQ(weighted_diameter(adj), 3.0);
}

// The all-pairs loop weighted_diameter() replaced: the oracle its
// eccentricity bounding must match bit for bit.
double diameter_bruteforce(const AdjacencyList& adj) {
  double diameter = 0.0;
  for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
    for (const double d : dijkstra(adj, u)) diameter = std::max(diameter, d);
  }
  return diameter;
}

AdjacencyList unit_weights(int n, const std::vector<EdgeKey>& edges) {
  return build_adjacency(n, edges, [](const EdgeKey&) { return 1.0; });
}

AdjacencyList random_weights(int n, const std::vector<EdgeKey>& edges,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::map<EdgeKey, double> weight;
  for (const EdgeKey& e : edges) weight[e] = rng.uniform(0.5, 1.5);
  return build_adjacency(n, edges, [&weight](const EdgeKey& e) { return weight.at(e); });
}

void expect_oracle_diameter(const AdjacencyList& adj, const std::string& what) {
  const double oracle = diameter_bruteforce(adj);
  ASSERT_TRUE(std::isfinite(oracle)) << what;
  EXPECT_EQ(weighted_diameter(adj), oracle) << what;
}

TEST(WeightedDiameter, MatchesAllPairsOnGrids) {
  for (const int side : {32, 64}) {
    const int n = side * side;
    const auto edges = topo_grid(side, side);
    expect_oracle_diameter(unit_weights(n, edges), "unit grid " + std::to_string(side));
    expect_oracle_diameter(random_weights(n, edges, 7 + static_cast<std::uint64_t>(side)),
                           "random-weight grid " + std::to_string(side));
  }
}

TEST(WeightedDiameter, MatchesAllPairsOnVertexTransitiveGraphs) {
  // Every node has the same eccentricity, so no bound ever prunes and the
  // loop evaluates all n nodes.
  expect_oracle_diameter(unit_weights(64, topo_ring(64)), "ring 64");
  expect_oracle_diameter(unit_weights(63, topo_ring(63)), "ring 63");
  expect_oracle_diameter(unit_weights(256, topo_torus(16, 16)), "torus 16x16");
  expect_oracle_diameter(random_weights(64, topo_ring(64), 3), "random-weight ring");
}

TEST(WeightedDiameter, MatchesAllPairsOnLinesStarsAndTrees) {
  expect_oracle_diameter(unit_weights(100, topo_line(100)), "unit line");
  expect_oracle_diameter(random_weights(100, topo_line(100), 11), "random-weight line");
  expect_oracle_diameter(unit_weights(50, topo_star(50)), "unit star");
  expect_oracle_diameter(random_weights(50, topo_star(50), 13), "random-weight star");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const auto edges = topo_random_tree(300, rng);
    expect_oracle_diameter(unit_weights(300, edges), "unit tree " + std::to_string(seed));
    expect_oracle_diameter(random_weights(300, edges, seed * 31),
                           "random-weight tree " + std::to_string(seed));
  }
}

TEST(WeightedDiameter, MatchesAllPairsOnRandomGeometricGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<Point2> pos;
    const auto edges = topo_random_geometric(300, 0.1, rng, &pos);
    const auto euclid = build_adjacency(300, edges, [&pos](const EdgeKey& e) {
      const Point2& a = pos[static_cast<std::size_t>(e.a)];
      const Point2& b = pos[static_cast<std::size_t>(e.b)];
      return std::hypot(a.x - b.x, a.y - b.y);
    });
    expect_oracle_diameter(euclid, "euclidean geometric " + std::to_string(seed));
    expect_oracle_diameter(unit_weights(300, edges), "unit geometric " + std::to_string(seed));
  }
}

TEST(WeightedDiameter, InfiniteWhenDisconnected) {
  // Two 8x8 grids side by side: the first sweep cannot cross.
  auto edges = topo_grid(8, 8);
  for (const EdgeKey& e : topo_grid(8, 8)) edges.emplace_back(e.a + 64, e.b + 64);
  EXPECT_TRUE(std::isinf(weighted_diameter(unit_weights(128, edges))));
  EXPECT_TRUE(std::isinf(diameter_bruteforce(unit_weights(128, edges))));
  // An isolated node that the first sweep (from a hub) cannot reach.
  EXPECT_TRUE(std::isinf(weighted_diameter(unit_weights(51, topo_star(50)))));
}

TEST(WeightedDiameter, TinyGraphs) {
  EXPECT_EQ(weighted_diameter(AdjacencyList{}), 0.0);
  EXPECT_EQ(weighted_diameter(AdjacencyList(1)), 0.0);
  EXPECT_TRUE(std::isinf(weighted_diameter(AdjacencyList(2))));
  const auto pair = build_adjacency(2, {EdgeKey(0, 1)}, [](const EdgeKey&) { return 2.5; });
  EXPECT_EQ(weighted_diameter(pair), 2.5);
  EXPECT_EQ(diameter_bruteforce(pair), 2.5);
}

TEST(WeightedDiameter, SuggestGtildeMatchesOracleOnFingerprintTopologies) {
  for (const fptable::Case& c : fptable::catalog()) {
    const TopologyResult topo = materialize_topology(c.spec);
    const double kappa = c.spec.aopt.edge_constants(c.spec.edge_params).kappa;
    const double oracle = diameter_bruteforce(
        build_adjacency(topo.n, topo.edges, [kappa](const EdgeKey&) { return kappa; }));
    EXPECT_EQ(suggest_gtilde(topo.n, topo.edges, c.spec.edge_params, c.spec.aopt),
              std::max(1.0, 1.5 * oracle + 4.0 * kappa))
        << c.name;
  }
}

TEST(ScriptedAdversaryTest, ReplaysEvents) {
  Simulator sim;
  DynamicGraph g(sim, 3, 31);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  ScriptedAdversary adv(sim, g);
  adv.add_create(1.0, EdgeKey(0, 1), params_with_tau(0.1));
  adv.add_create(2.0, EdgeKey(1, 2), params_with_tau(0.1));
  adv.add_destroy(3.0, EdgeKey(0, 1));
  adv.arm();
  sim.run_until(1.5);
  EXPECT_TRUE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_FALSE(g.both_views_present(EdgeKey(1, 2)));
  sim.run_until(4.0);
  EXPECT_FALSE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_TRUE(g.both_views_present(EdgeKey(1, 2)));
}

TEST(ChurnAdversaryTest, KeepsGraphConnected) {
  Simulator sim;
  DynamicGraph g(sim, 8, 37);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  const auto p = params_with_tau(0.1);
  const auto ring = topo_ring(8);
  for (const auto& e : ring) g.create_edge_instant(e, p);
  auto candidates = topo_complete(8);
  ChurnAdversary::Config config;
  config.ops_per_time = 2.0;
  ChurnAdversary churn(sim, g, candidates, p, config, 41);
  churn.arm();
  for (int step = 0; step < 50; ++step) {
    sim.run_until(step * 2.0);
    EXPECT_TRUE(g.adversary_connected()) << "disconnected at t=" << sim.now();
  }
  EXPECT_GT(churn.removals() + churn.additions(), 10);
}

}  // namespace
}  // namespace gcs
