#include <gtest/gtest.h>

#include <cmath>

#include "core/params.h"
#include "core/triggers.h"
#include "util/rng.h"

namespace gcs {
namespace {

constexpr double kMu = 0.05;
constexpr double kRho = 1e-3;
constexpr int kCap = 64;

LevelPeer make_peer(double diff, double kappa = 1.0, double delta = 0.2,
                    double eps = 0.1, double tau = 0.5,
                    int level_limit = kAllLevels) {
  LevelPeer p;
  p.level_limit = level_limit;
  p.kappa = kappa;
  p.delta = delta;
  p.eps = eps;
  p.tau = tau;
  p.has_estimate = true;
  p.est_minus_own = diff;
  return p;
}

TEST(Triggers, EmptyNeighborhoodNoTrigger) {
  const auto d = evaluate_triggers({}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, NeighborFarAheadTriggersFast) {
  // One neighbor 1.5*kappa ahead: level 1 fast condition holds.
  const auto d = evaluate_triggers({make_peer(1.5)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_FALSE(d.slow);
  EXPECT_EQ(d.fast_level, 1);
}

TEST(Triggers, NeighborFarBehindTriggersSlow) {
  const auto d = evaluate_triggers({make_peer(-2.0)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.slow);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.slow_level, 1);
}

TEST(Triggers, AheadAndFurtherBehindBlocksFast) {
  // w is ahead by 1.2 (fast exists at s=1), but v is behind by 3 kappa:
  // the universal fast condition fails at s=1 AND v keeps slow alive.
  const auto d =
      evaluate_triggers({make_peer(1.2), make_peer(-3.0)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.slow);
  EXPECT_FALSE(d.fast && d.slow);
}

TEST(Triggers, SmallSkewsTriggerNothing) {
  const auto d = evaluate_triggers(
      {make_peer(0.3), make_peer(-0.4), make_peer(0.0)}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, HighLevelFastForLargeSkew) {
  // Neighbor 5.05*kappa ahead: fast holds up to level 5.
  const auto d = evaluate_triggers({make_peer(5.05)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_GE(d.fast_level, 1);
}

TEST(Triggers, LevelMembershipRestrictsScope) {
  // Peer only in levels <= 2; a skew of 3.2*kappa can witness fast at s<=2
  // (3.2 >= s*1.0 - 0.1 holds for s in {1,2,3} but membership stops at 2).
  auto p = make_peer(3.2);
  p.level_limit = 2;
  const auto d = evaluate_triggers({p}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_LE(d.fast_level, 2);
}

TEST(Triggers, MissingEstimateBlocksUniversalConditions) {
  auto ahead = make_peer(1.5);
  LevelPeer unknown;
  unknown.level_limit = kAllLevels;
  unknown.kappa = 1.0;
  unknown.delta = 0.2;
  unknown.eps = 0.1;
  unknown.tau = 0.5;
  unknown.has_estimate = false;
  const auto d = evaluate_triggers({ahead, unknown}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);  // cannot certify "no one too far behind"
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, EstimateUncertaintyCompensation) {
  // Fast trigger threshold is s*kappa - eps (Def 4.5): a diff exactly at
  // kappa - eps must trigger; just below must not.
  const auto yes = evaluate_triggers({make_peer(0.9)}, kMu, kRho, kCap);
  EXPECT_TRUE(yes.fast);
  const auto no = evaluate_triggers({make_peer(0.9 - 1e-9)}, kMu, kRho, kCap);
  EXPECT_FALSE(no.fast);
}

TEST(Triggers, SlowThresholdMatchesDef46) {
  // Slow exists iff behind >= (s+1/2)kappa - delta - eps = 1.5 - 0.2 - 0.1.
  const auto yes = evaluate_triggers({make_peer(-1.2)}, kMu, kRho, kCap);
  EXPECT_TRUE(yes.slow);
  const auto no = evaluate_triggers({make_peer(-1.2 + 1e-9)}, kMu, kRho, kCap);
  EXPECT_FALSE(no.slow);
}

// ---------------------------------------------------------------------------
// Property: Lemma 5.3 — with kappa/delta satisfying eq. (9) and Def 4.6,
// the fast and slow triggers are never simultaneously satisfied, for any
// neighbor configuration.
// ---------------------------------------------------------------------------

struct Lemma53Case {
  std::uint64_t seed;
  int peers;
};

class TriggerExclusionTest : public ::testing::TestWithParam<Lemma53Case> {};

TEST_P(TriggerExclusionTest, FastAndSlowNeverBothHold) {
  const auto param = GetParam();
  Rng rng(param.seed);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<LevelPeer> peers;
    for (int i = 0; i < param.peers; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.01, 0.5);
      ep.tau = rng.uniform(0.0, 2.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.3)
                          ? static_cast<int>(rng.between(0, 6))
                          : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = rng.chance(0.95);
      p.est_minus_own = rng.uniform(-30.0, 30.0);
      peers.push_back(p);
    }
    const auto d = evaluate_triggers(peers, kMu, kRho, kCap);
    EXPECT_FALSE(d.fast && d.slow)
        << "Lemma 5.3 violated with seed=" << param.seed
        << " iteration=" << iteration;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNeighborhoods, TriggerExclusionTest,
    ::testing::Values(Lemma53Case{1, 1}, Lemma53Case{2, 2}, Lemma53Case{3, 3},
                      Lemma53Case{4, 5}, Lemma53Case{5, 8}, Lemma53Case{6, 12},
                      Lemma53Case{7, 2}, Lemma53Case{8, 4}),
    [](const ::testing::TestParamInfo<Lemma53Case>& info) {
      return "seed" + std::to_string(info.param.seed) + "_peers" +
             std::to_string(info.param.peers);
    });

// ---------------------------------------------------------------------------
// Property: the data-driven level scan is equivalent to a fixed deep scan.
// ---------------------------------------------------------------------------

TEST(Triggers, DataDrivenScanMatchesDeepScan) {
  Rng rng(99);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<LevelPeer> peers;
    const int count = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < count; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.05, 0.3);
      ep.tau = rng.uniform(0.0, 1.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.5) ? static_cast<int>(rng.between(1, 8))
                                      : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = true;
      p.est_minus_own = rng.uniform(-20.0, 20.0);
      peers.push_back(p);
    }
    // The cap only matters beyond the data-driven bound; compare shallow
    // default evaluation with a very deep one.
    const auto a = evaluate_triggers(peers, kMu, kRho, 64);
    const auto b = evaluate_triggers(peers, kMu, kRho, 100000);
    EXPECT_EQ(a.fast, b.fast);
    EXPECT_EQ(a.slow, b.slow);
    EXPECT_EQ(a.fast_level, b.fast_level);
    EXPECT_EQ(a.slow_level, b.slow_level);
  }
}

// ---------------------------------------------------------------------------
// Property: evaluate_triggers agrees with a literal transcription of
// Defs. 4.5/4.6 that scans every level 1..cap — no quick-reject, no
// data-driven s_stop, no early exit. DataDrivenScanMatchesDeepScan runs both
// of its sides through those shortcuts; this oracle runs through none, so a
// quick-reject threshold or an s_stop bound that cuts off a witnessing level
// shows up here. The inputs are adversarial: missing estimates, inert
// (level_limit < 1) entries, small caps, and discrepancies within 1e-12 of a
// level threshold. The oracle spells each threshold with the same floating-
// point expression as the scan, so the comparison is exact.
// ---------------------------------------------------------------------------

// Def. 4.5 at level s: some member of N^s is certifiably ahead by at least
// sκ − ε, and no member of N^s is behind by more than sκ + 2µτ + ε. A member
// without an estimate certifies nothing and blocks the universal clause.
bool literal_fast(const std::vector<LevelPeer>& peers, int s) {
  const double sd = static_cast<double>(s);
  bool exists = false;
  for (const LevelPeer& p : peers) {
    if (p.level_limit < s) continue;  // not in N^s
    if (!p.has_estimate) return false;
    const double ahead = p.est_minus_own;
    const double behind = -p.est_minus_own;
    if (!(behind <= sd * p.kappa + 2.0 * kMu * p.tau + p.eps)) return false;
    if (ahead >= sd * p.kappa - p.eps) exists = true;
  }
  return exists;
}

// Def. 4.6 at level s: some member of N^s is certifiably behind by at least
// (s+½)κ − δ − ε, and no member is ahead by more than
// (s+½)κ + δ + ε + µ(1+ρ)τ.
bool literal_slow(const std::vector<LevelPeer>& peers, int s) {
  const double sd = static_cast<double>(s);
  bool exists = false;
  for (const LevelPeer& p : peers) {
    if (p.level_limit < s) continue;
    if (!p.has_estimate) return false;
    const double ahead = p.est_minus_own;
    const double behind = -p.est_minus_own;
    if (!(ahead <= (sd + 0.5) * p.kappa + p.delta + p.eps +
                       kMu * (1.0 + kRho) * p.tau)) {
      return false;
    }
    if (behind >= (sd + 0.5) * p.kappa - p.delta - p.eps) exists = true;
  }
  return exists;
}

/// The lowest witnessing level of each trigger over s = 1..cap.
TriggerDecision literal_triggers(const std::vector<LevelPeer>& peers, int cap) {
  TriggerDecision d;
  for (int s = 1; s <= cap; ++s) {
    if (!d.fast && literal_fast(peers, s)) {
      d.fast = true;
      d.fast_level = s;
    }
    if (!d.slow && literal_slow(peers, s)) {
      d.slow = true;
      d.slow_level = s;
    }
  }
  return d;
}

TEST(Triggers, ScanMatchesLiteralDefinitions) {
  Rng rng(4242);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  int fired = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::vector<LevelPeer> peers;
    const int count = static_cast<int>(rng.below(7));  // 0 peers included
    for (int i = 0; i < count; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.05, 0.3);
      ep.tau = rng.uniform(0.0, 1.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.1)   ? 0
                      : rng.chance(0.5) ? static_cast<int>(rng.between(1, 9))
                                        : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = rng.chance(0.9);
      // Mostly large discrepancies (deep scans); otherwise a value within
      // 1e-12 of κ or of one of the four level-s thresholds, where one ULP
      // of disagreement flips a comparison.
      const double s = static_cast<double>(rng.between(1, 9));
      const double near = rng.uniform(-1e-12, 1e-12);
      switch (rng.below(8)) {
        case 0: p.est_minus_own = ec.kappa + near; break;
        case 1: p.est_minus_own = s * ec.kappa - ep.eps + near; break;
        case 2: p.est_minus_own = s * ec.kappa + 2.0 * kMu * ep.tau + ep.eps + near; break;
        case 3: p.est_minus_own = (s + 0.5) * ec.kappa - ec.delta - ep.eps + near; break;
        case 4:
          p.est_minus_own =
              (s + 0.5) * ec.kappa + ec.delta + ep.eps + kMu * (1.0 + kRho) * ep.tau + near;
          break;
        default: p.est_minus_own = rng.uniform(-25.0, 25.0); break;
      }
      if (rng.chance(0.5)) p.est_minus_own = -p.est_minus_own;
      peers.push_back(p);
    }
    const int cap = rng.chance(0.2) ? static_cast<int>(rng.between(1, 4)) : 64;
    const TriggerDecision want = literal_triggers(peers, cap);
    const TriggerDecision got = evaluate_triggers(peers, kMu, kRho, cap);
    ASSERT_EQ(got.fast, want.fast) << "iteration " << iteration;
    ASSERT_EQ(got.slow, want.slow) << "iteration " << iteration;
    ASSERT_EQ(got.fast_level, want.fast_level) << "iteration " << iteration;
    ASSERT_EQ(got.slow_level, want.slow_level) << "iteration " << iteration;
    fired += (want.fast || want.slow) ? 1 : 0;
  }
  // The generator must exercise firing triggers, not only quiet ones.
  EXPECT_GT(fired, 1000);
}

}  // namespace
}  // namespace gcs
