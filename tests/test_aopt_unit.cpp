// Focused unit tests of AoptNode behaviors: the max-estimate condition
// (Def. 4.4 / Listing 3), handshake corner cases, introspection, and the
// interaction between corruption and the trigger machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

#include "metrics/fingerprint.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec tiny(int n) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_line(n);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 5.0;
  cfg.drift = ComponentSpec("none");
  cfg.estimates = ComponentSpec("zero");
  return cfg;
}

TEST(AoptUnit, PeerInfoAbsentForUnknownNode) {
  Scenario s(tiny(3));
  s.start();
  EXPECT_FALSE(s.aopt(0).peer_info(2).has_value());  // never a neighbor
  EXPECT_TRUE(s.aopt(0).peer_info(1).has_value());
  EXPECT_EQ(s.aopt(0).edge_kappa(2), 0.0);
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
}

TEST(AoptUnit, DerivedConstantsMatchParams) {
  Scenario s(tiny(2));
  s.start();
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  EdgeParams ep = s.spec().edge_params;
  ep.eps = s.engine().edge_eps(EdgeKey(0, 1));
  const EdgeConstants expect = s.spec().aopt.edge_constants(ep);
  EXPECT_DOUBLE_EQ(info->kappa, expect.kappa);
  EXPECT_DOUBLE_EQ(info->delta, expect.delta);
  EXPECT_DOUBLE_EQ(s.aopt(0).edge_kappa(1), expect.kappa);
}

TEST(AoptUnit, MaxEstimateConditionDrivesFastMode) {
  // MC (Def. 4.4): raise M at a node whose neighbors are level with it;
  // neither FC nor SC applies, so the max-estimate trigger must switch the
  // node to fast mode, and back to slow when it locks onto M.
  Scenario s(tiny(2));
  s.start();
  s.run_until(10.0);
  ASSERT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0);
  s.engine().corrupt_max_estimate(0, s.engine().logical(0) + 1.0);
  s.run_for(1.0);  // next tick re-evaluates
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0 + s.spec().aopt.mu);
  EXPECT_FALSE(s.aopt(0).last_fast_trigger());  // it was MC, not FC
  // After catching M (1.0 gap at ~mu rate => ~10 units), slow again.
  s.run_for(30.0);
  EXPECT_TRUE(s.engine().max_locked(0));
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0);
}

TEST(AoptUnit, FastTriggerFiresWhenNeighborFarAhead) {
  Scenario s(tiny(2));
  s.start();
  s.run_until(10.0);
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  // Push node 1 ahead by 2 kappa: node 0's level-1 FC must fire.
  s.engine().corrupt_logical(1, s.engine().logical(1) + 2.0 * info->kappa);
  s.run_for(1.0);
  EXPECT_TRUE(s.aopt(0).last_fast_trigger());
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0 + s.spec().aopt.mu);
  // ...and node 1's SC (neighbor far behind) must hold it in slow mode.
  EXPECT_TRUE(s.aopt(1).last_slow_trigger());
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(1), 1.0);
}

TEST(AoptUnit, ModeSwitchCounterAdvances) {
  auto cfg = tiny(4);
  cfg.drift = ComponentSpec("blocks");
  cfg.drift.params.set("blocks", 2);
  cfg.drift.params.set("period", 40.0);
  cfg.aopt.rho = 4e-3;
  Scenario s(cfg);
  s.start();
  s.run_until(400.0);
  long long total = 0;
  for (NodeId u = 0; u < 4; ++u) total += s.aopt(u).mode_switches();
  EXPECT_GT(total, 0);
}

TEST(AoptUnit, InsertEdgeMsgFromStrangerIsIgnored) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(5.0);
  // Deliver a forged insertedge from node 2 (no edge 0-2 exists).
  s.aopt(0).on_insert_edge_msg(2, InsertEdgeMsg{100.0, 5.0});
  s.run_until(20.0);
  EXPECT_FALSE(s.aopt(0).peer_info(2).has_value());
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
}

TEST(AoptUnit, StaleInsertEdgeMsgAfterLossIsIgnored) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(5.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(6.0);  // discovered, handshake pending
  // The edge vanishes; a late insertedge must not resurrect insertion.
  s.graph().destroy_edge(EdgeKey(0, 2));
  s.run_until(8.0);
  s.aopt(2).on_insert_edge_msg(0, InsertEdgeMsg{50.0, 5.0});
  s.run_until(30.0);
  const auto info = s.aopt(2).peer_info(0);
  if (info.has_value()) {
    EXPECT_FALSE(info->present);
    EXPECT_EQ(info->t0, kTimeInf);
  }
}

TEST(AoptUnit, HandshakeUsesGtildeAtSendTime) {
  auto cfg = tiny(3);
  cfg.gskew = ComponentSpec("oracle");
  cfg.gskew.params.set("factor", 2.0);
  cfg.gskew.params.set("margin", 1.0);
  Scenario s(cfg);
  s.start();
  s.run_until(20.0);
  const double g_now = s.engine().true_global_skew();
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(35.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  // The recorded estimate is the oracle's value around handshake time:
  // 2*G + 1 with G tiny here.
  EXPECT_GE(info->gtilde, 1.0);
  EXPECT_LE(info->gtilde, 2.0 * (g_now + 0.5) + 1.5);
}

TEST(AoptUnit, T0IsOnTheGridAndAfterLins) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(30.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  const double ratio = info->t0 / info->insertion_duration;
  EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
  // L_ins >= L(discovery) + Gtilde => T0 comfortably after discovery.
  EXPECT_GT(info->t0, 15.0 + s.spec().aopt.gtilde_static / 2.0);
}

TEST(AoptUnit, LevelZeroMembershipTracksDiscoveryOnly) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(16.0);  // discovered (tau=0.5), far from T0
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 0));   // N^0 = discovery set
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));  // not yet on level 1
}

TEST(AoptUnit, WeightDecayKappaInitCoversGlobalSkew) {
  auto cfg = tiny(3);
  cfg.aopt.insertion = InsertionPolicy::kWeightDecay;
  Scenario s(cfg);
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(30.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  // Walk L to just past T0 and check kappa(t) starts at 2*Gtilde + kappa_e:
  // big enough that the edge's gradient constraint is vacuous initially.
  while (s.engine().logical(0) < info->t0 + 0.5) s.run_for(2.0);
  const double kappa_now = s.aopt(0).edge_kappa(2);
  EXPECT_GT(kappa_now, 2.0 * info->gtilde * 0.9);
}

TEST(AoptUnit, SelfLoopEdgeRejectedByModel) {
  Scenario s(tiny(3));
  s.start();
  EXPECT_THROW(s.graph().create_edge(EdgeKey(1, 1), s.spec().edge_params),
               std::invalid_argument);
}

TEST(AoptUnit, TwoNodeNetworkConverges) {
  auto cfg = tiny(2);
  cfg.drift = ComponentSpec("spread");
  cfg.aopt.rho = 2e-3;
  Scenario s(cfg);
  s.start();
  s.run_until(600.0);
  // One edge, constant pull-apart at 2*rho: the skew must stay around the
  // single-edge gradient scale, far below unsynchronized drift (2.4).
  const double skew = std::fabs(s.engine().logical(0) - s.engine().logical(1));
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_LT(skew, 2.0 * info->kappa);
}

TEST(AoptUnit, SingleNodeDegenerateCase) {
  ScenarioSpec cfg;
  cfg.n = 1;
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  Scenario s(cfg);
  s.start();
  s.run_until(100.0);
  EXPECT_NEAR(s.engine().logical(0), 100.0, 0.2);
  EXPECT_DOUBLE_EQ(s.engine().true_global_skew(), 0.0);
}

// --------------------------------------------------- beacon-scan trajectory pins
//
// Beacon-estimate runs through every case in which AoptNode's O(1) scan
// filter must step aside for the exact scan: fast/slow triggers firing after
// a clock corruption, staged insertion crossing level thresholds, weight
// decay (time-varying κ), and a node's own logical clock moving backwards.
// The pinned values were recorded from the implementation that staged every
// peer on every scan, so a filter that changes any decision changes a pin.

struct ScanPin {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  long long switches = 0;  ///< mode switches summed over all nodes
  bool operator==(const ScanPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ScanPin& p) {
  return os << "{0x" << std::hex << p.hash << std::dec << "ULL, " << p.events << ", "
            << p.switches << "}";
}

ScenarioSpec beacon_spec(const std::string& topo, int n, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.n = n;
  spec.seed = seed;
  spec.set("topo", topo);
  spec.set("estimates", "beacon");
  spec.set("drift", "spread");
  return spec;
}

/// Run `spec` to `horizon`, applying `fault` once at `fault_at` (if set).
ScanPin pin_run(const ScenarioSpec& spec, double horizon,
                const std::function<void(Scenario&)>& fault = {},
                double fault_at = 0.0) {
  Scenario s(spec);
  TrajectoryFingerprinter fp;
  fp.attach(s);
  s.start();
  if (fault) {
    s.run_until(fault_at);
    fault(s);
  }
  s.run_until(horizon);
  ScanPin pin{fp.value(), fp.events(), 0};
  for (NodeId u = 0; u < s.spec().n; ++u) pin.switches += s.aopt(u).mode_switches();
  return pin;
}

/// Push node 3 ahead and node 8 behind by several κ: their neighbours'
/// fast and slow triggers fire on beacon estimates.
void corrupt_two(Scenario& s) {
  const double kappa = s.aopt(3).edge_kappa(4);
  s.engine().corrupt_logical(3, s.engine().logical(3) + 4.0 * kappa);
  s.engine().corrupt_logical(8, s.engine().logical(8) - 3.0 * kappa);
}

TEST(BeaconScanPins, TriggersFiringAfterCorruption) {
  const ScenarioSpec spec = beacon_spec("ring", 12, 41);
  EXPECT_EQ(pin_run(spec, 30.0, corrupt_two, 10.0),
            (ScanPin{0xdb6cc7118ab87193ULL, 5731, 11}));
}

TEST(BeaconScanPins, StagedInsertionUnderChurn) {
  ScenarioSpec spec = beacon_spec("geometric:radius=0.35", 32, 42);
  spec.set("adversary", "churn:rate=0.6,start=2");
  spec.set("gtilde", 0.1);  // I ≈ 48: insertions start and progress by t=60
  EXPECT_EQ(pin_run(spec, 60.0), (ScanPin{0x09452a723efce6bdULL, 100726, 888}));
}

TEST(BeaconScanPins, WeightDecayUnderChurn) {
  ScenarioSpec spec = beacon_spec("geometric:radius=0.35", 32, 43);
  spec.set("adversary", "churn:rate=0.6,start=2");
  spec.set("gtilde", 0.1);
  spec.set("insertion", "decay");
  EXPECT_EQ(pin_run(spec, 60.0), (ScanPin{0x42b73f6035e9fdb8ULL, 69039, 680}));
}

TEST(BeaconScanPins, OwnClockRegression) {
  const ScenarioSpec spec = beacon_spec("grid:rows=3,cols=4", 12, 44);
  auto rewind = [](Scenario& s) {
    for (NodeId u : {1, 6, 10}) {
      s.engine().corrupt_logical(u, s.engine().logical(u) - 0.05 * (u + 1));
    }
  };
  EXPECT_EQ(pin_run(spec, 30.0, rewind, 12.0),
            (ScanPin{0xcfd0311bd09d2340ULL, 6957, 60}));
}

// ------------------------------------------------------------ scan counters

AoptNode::ScanCounts total_scans(Scenario& s) {
  AoptNode::ScanCounts sum;
  for (NodeId u = 0; u < s.spec().n; ++u) {
    sum.filtered += s.aopt(u).scan_counts().filtered;
    sum.exact += s.aopt(u).scan_counts().exact;
  }
  return sum;
}

ScenarioSpec beacon_churn_spec() {
  ScenarioSpec spec = beacon_spec("geometric:radius=0.15", 64, 45);
  spec.set("adversary", "churn:rate=0.5,start=5");
  spec.set("gskew", "distributed");
  return spec;
}

TEST(ScanCounts, BeaconChurnScansAreMostlyFiltered) {
  Scenario s(beacon_churn_spec());
  s.start();
  s.run_until(20.0);
  const AoptNode::ScanCounts c = total_scans(s);
  EXPECT_GT(c.exact, 0);
  EXPECT_GT(c.filtered, 9 * c.exact)  // > 90 % filtered
      << "filtered " << c.filtered << ", exact " << c.exact;
}

TEST(ScanCounts, FiringTriggersTakeTheExactScan) {
  Scenario s(beacon_spec("ring", 12, 41));
  s.start();
  s.run_until(10.0);
  const long long before = s.aopt(2).scan_counts().exact;
  corrupt_two(s);
  s.run_for(1.0);
  EXPECT_TRUE(s.aopt(2).last_fast_trigger());  // node 3 is far ahead
  EXPECT_TRUE(s.aopt(3).last_slow_trigger());  // its neighbours are far behind
  EXPECT_GT(s.aopt(2).scan_counts().exact, before);
}

TEST(ScanCounts, NothingFilteredUnderOracleEstimates) {
  ScenarioSpec spec = beacon_churn_spec();
  spec.set("estimates", "uniform");
  Scenario s(spec);
  s.start();
  s.run_until(20.0);
  const AoptNode::ScanCounts c = total_scans(s);
  EXPECT_EQ(c.filtered, 0);
  EXPECT_GT(c.exact, 0);
}

TEST(ScanCounts, NothingFilteredUnderWeightDecay) {
  ScenarioSpec spec = beacon_churn_spec();
  spec.set("insertion", "decay");
  Scenario s(spec);
  s.start();
  s.run_until(20.0);
  const AoptNode::ScanCounts c = total_scans(s);
  EXPECT_EQ(c.filtered, 0);
  EXPECT_GT(c.exact, 0);
}

}  // namespace
}  // namespace gcs
