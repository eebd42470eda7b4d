#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "estimate/estimate_source.h"
#include "graph/dynamic_graph.h"
#include "net/transport.h"
#include "sim/simulator.h"

namespace gcs {
namespace {

struct Fixture {
  Simulator sim;
  DynamicGraph graph{sim, 4, 7};
  Transport transport{sim, graph, 9};
  std::vector<Delivery> deliveries;
  std::vector<Payload> payloads;  ///< copied out: d.payload dies with the call

  explicit Fixture(double delay_min = 0.1, double delay_max = 0.5) {
    graph.set_detection_delay_mode(DetectionDelayMode::kZero);
    EdgeParams p;
    p.eps = 0.1;
    p.tau = 0.2;
    p.msg_delay_min = delay_min;
    p.msg_delay_max = delay_max;
    graph.create_edge_instant(EdgeKey(0, 1), p);
    graph.create_edge_instant(EdgeKey(1, 2), p);
    transport.set_handler([this](const Delivery& d) {
      deliveries.push_back(d);
      payloads.push_back(*d.payload);
    });
  }
};

TEST(Transport, DeliversWithinDelayBounds) {
  Fixture f;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.transport.send(0, 1, Beacon{1.0 * i, 0.0}));
  }
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 100u);
  for (const auto& d : f.deliveries) {
    const double transit = d.delivered_at - d.sent_at;
    EXPECT_GE(transit, 0.1 - 1e-12);
    EXPECT_LE(transit, 0.5 + 1e-12);
    EXPECT_EQ(d.from, 0);
    EXPECT_EQ(d.to, 1);
    EXPECT_DOUBLE_EQ(d.known_min_delay, 0.1);
  }
}

TEST(Transport, RefusesSendWithoutEdgeInSendersView) {
  Fixture f;
  EXPECT_FALSE(f.transport.send(0, 2, Beacon{}));
  EXPECT_FALSE(f.transport.send(0, 3, Beacon{}));
  EXPECT_EQ(f.transport.sent_count(), 0u);
}

TEST(Transport, DelayModeMinAndMax) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMin);
  f.transport.send(0, 1, Beacon{});
  f.transport.set_delay_mode(DelayMode::kMax);
  f.transport.send(0, 1, Beacon{});
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(f.deliveries[0].delivered_at - f.deliveries[0].sent_at, 0.1);
  EXPECT_DOUBLE_EQ(f.deliveries[1].delivered_at - f.deliveries[1].sent_at, 0.5);
}

TEST(Transport, DirectionalOverrideClampedToBounds) {
  Fixture f;
  f.transport.set_directional_delay(0, 1, 0.3);
  f.transport.send(0, 1, Beacon{});
  f.transport.set_directional_delay(0, 1, 99.0);  // clamped to max
  f.transport.send(0, 1, Beacon{});
  f.transport.clear_directional_delay(0, 1);
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(f.deliveries[0].delivered_at - f.deliveries[0].sent_at, 0.3);
  EXPECT_DOUBLE_EQ(f.deliveries[1].delivered_at - f.deliveries[1].sent_at, 0.5);
}

// Edge-uniform delays are a pure function of (seed, directed edge): the
// sequence drawn over an edge does not depend on which edges the transport
// touched first, or how sends over different edges interleave.
TEST(Transport, EdgeUniformStreamsIgnoreFirstTouchOrder) {
  using Directed = std::pair<NodeId, NodeId>;
  const std::vector<Directed> edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  const auto delays_by_edge = [&](bool reversed) {
    Fixture f;  // both fixtures build their transport from the same seed
    f.transport.set_delay_mode(DelayMode::kEdgeUniform);
    constexpr int kPerEdge = 6;
    // All sends leave at t = 0, so each delivery time is exactly the drawn
    // delay; the beacon carries the send's index on its edge.
    const auto send = [&](const Directed& e, int index) {
      EXPECT_TRUE(f.transport.send(e.first, e.second, Beacon{1.0 * index}));
    };
    if (reversed) {  // last edge first, each edge's sends in one block
      for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
        for (int i = 0; i < kPerEdge; ++i) send(*it, i);
      }
    } else {  // round-robin from the first edge
      for (int i = 0; i < kPerEdge; ++i) {
        for (const Directed& e : edges) send(e, i);
      }
    }
    f.sim.run();
    EXPECT_EQ(f.deliveries.size(), edges.size() * kPerEdge);
    std::map<Directed, std::vector<double>> seen;
    for (const Directed& e : edges) seen[e].assign(kPerEdge, -1.0);
    for (std::size_t i = 0; i < f.deliveries.size(); ++i) {
      const auto index = static_cast<std::size_t>(std::get<Beacon>(f.payloads[i]).logical);
      seen[{f.deliveries[i].from, f.deliveries[i].to}].at(index) = f.deliveries[i].delivered_at;
    }
    return seen;
  };
  const auto forward = delays_by_edge(false);
  const auto reverse = delays_by_edge(true);
  ASSERT_EQ(forward.size(), edges.size());
  EXPECT_EQ(forward, reverse);
  EXPECT_NE(forward.at({0, 1}), forward.at({1, 0}));  // each direction has its own
  // The substream seed is splitmix64(seed ^ (from << 32 | to) + φ), seed 9.
  std::uint64_t sm = 9ULL ^ ((std::uint64_t{1} << 32 | 2) + 0x9e3779b97f4a7c15ULL);
  Rng expected(splitmix64(sm));
  for (const double delay : forward.at({1, 2})) {
    EXPECT_EQ(delay, expected.uniform(0.1, 0.5));
  }
}

TEST(Transport, DropsWhenEdgeVanishesMidFlight) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMax);  // 0.5 transit
  EXPECT_TRUE(f.transport.send(0, 1, Beacon{}));
  f.sim.run_until(0.1);
  f.graph.destroy_edge(EdgeKey(0, 1));
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 0u);
  EXPECT_EQ(f.transport.dropped_count(), 1u);
  EXPECT_EQ(f.transport.arena().live(), 0u);  // drops release their ref too
}

TEST(Transport, DropsWhenEdgeAppearedAfterSend) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMax);
  EXPECT_TRUE(f.transport.send(0, 1, Beacon{}));
  f.sim.run_until(0.1);
  // Re-create the edge: receiver's view_since moves past the send time.
  f.graph.destroy_edge(EdgeKey(0, 1));
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.1;
  p.msg_delay_max = 0.5;
  f.graph.create_edge(EdgeKey(0, 1), p);
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 0u);
}

TEST(Transport, PayloadVariantsRoundTrip) {
  Fixture f;
  f.transport.send(0, 1, Beacon{12.5, 13.5});
  f.transport.send(1, 2, InsertEdgeMsg{77.0, 10.0});
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_EQ(f.transport.arena().live(), 0u);  // all refs reclaimed
  int beacons = 0;
  int inserts = 0;
  for (const auto& payload : f.payloads) {
    if (const auto* b = std::get_if<Beacon>(&payload)) {
      ++beacons;
      EXPECT_DOUBLE_EQ(b->logical, 12.5);
      EXPECT_DOUBLE_EQ(b->max_estimate, 13.5);
    } else if (const auto* ins = std::get_if<InsertEdgeMsg>(&payload)) {
      ++inserts;
      EXPECT_DOUBLE_EQ(ins->l_ins, 77.0);
      EXPECT_DOUBLE_EQ(ins->gtilde, 10.0);
    }
  }
  EXPECT_EQ(beacons, 1);
  EXPECT_EQ(inserts, 1);
}

// A delivery carries the sender's slot in the receiver's view row, and the
// estimate layer uses it only as a hint into its own row. Change node 2's
// view between send and delivery — lower-id peers appear, the sender is
// lost and rediscovered — and check every decision and stored entry
// against the §3.1 rule and a source that always scans.
TEST(Transport, ViewSlotHintMatchesTheScan) {
  struct HwClocks final : ClockAccess {
    ClockValue true_logical(NodeId) override { return 0.0; }
    ClockValue true_hardware(NodeId u) override { return 100.0 * (u + 1); }
  } clocks;
  Fixture f;  // edges 0-1, 1-2; node 2 sees [1]
  f.transport.set_delay_mode(DelayMode::kMax);  // 0.5 transit
  BeaconEstimateSource hinted(f.graph, 0.25, 1e-3, 0.1);
  BeaconEstimateSource scanned(f.graph, 0.25, 1e-3, 0.1);
  hinted.bind(&clocks);
  scanned.bind(&clocks);
  int delivered = 0;
  f.transport.set_handler([&](const Delivery& d) {
    const NeighborView* back = f.graph.find_neighbor(d.to, d.from);
    ASSERT_NE(back, nullptr);
    EXPECT_LE(back->since, d.sent_at);
    EXPECT_EQ(d.view_slot, back - f.graph.view_neighbors(d.to).data());
    ++delivered;
    hinted.on_beacon(d);
    Delivery plain = d;
    plain.view_slot = kNoViewSlot;
    scanned.on_beacon(plain);
  });
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.1;
  p.msg_delay_max = 0.5;
  auto beacon = [&](NodeId from, double value) {
    EXPECT_TRUE(f.transport.send(from, 2, Beacon{value, value, value}));
  };
  auto lose = [&](NodeId peer) {  // what the engine does on a view loss
    f.graph.destroy_edge_instant(EdgeKey(peer, 2));
    hinted.on_edge_lost(2, peer);
    scanned.on_edge_lost(2, peer);
  };

  beacon(1, 1.0);  // entries [1]
  f.sim.run_until(0.6);
  f.graph.create_edge_instant(EdgeKey(2, 3), p);  // view [1, 3]
  beacon(3, 2.0);  // entries [1, 3]
  f.sim.run_until(1.2);
  beacon(1, 3.0);
  f.graph.create_edge_instant(EdgeKey(0, 2), p);  // view [0, 1, 3]: slot 1 holds 3
  f.sim.run_until(1.8);
  beacon(3, 4.0);  // view slot 2, entries index 1
  beacon(1, 5.0);
  f.sim.run_until(1.9);
  lose(1);
  f.graph.create_edge_instant(EdgeKey(1, 2), p);  // since 1.9 > sent_at 1.8
  f.sim.run_until(2.4);
  beacon(0, 6.0);  // view [0, 1, 3], entries [3]: a new lowest entry
  beacon(1, 7.0);
  f.sim.run_until(3.0);
  beacon(3, 8.0);  // rows agree again: the hint hits
  f.sim.run();

  EXPECT_EQ(delivered, 7);
  EXPECT_EQ(f.transport.dropped_count(), 1u);  // the beacon in flight across the loss
  for (NodeId peer = 0; peer < 4; ++peer) {
    BeaconEstimateSource::Entry a;
    BeaconEstimateSource::Entry b;
    const bool has_a = hinted.snapshot(2, peer, a);
    ASSERT_EQ(has_a, scanned.snapshot(2, peer, b)) << "peer " << peer;
    if (has_a) {
      EXPECT_EQ(a.base, b.base) << "peer " << peer;
      EXPECT_EQ(a.recv_hw, b.recv_hw) << "peer " << peer;
    }
  }
  BeaconEstimateSource::Entry e;
  ASSERT_TRUE(hinted.snapshot(2, 1, e));
  EXPECT_DOUBLE_EQ(e.base, 7.0 + (1.0 - 1e-3) * 0.1);  // the post-rediscovery beacon
}

}  // namespace
}  // namespace gcs
