#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "util/common.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/peer_rows.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace gcs {
namespace {

TEST(EdgeKey, NormalizesEndpointOrder) {
  EdgeKey e1(3, 7);
  EdgeKey e2(7, 3);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(e1.a, 3);
  EXPECT_EQ(e1.b, 7);
  EXPECT_EQ(e1.other(3), 7);
  EXPECT_EQ(e1.other(7), 3);
  EXPECT_TRUE(e1.has(3));
  EXPECT_FALSE(e1.has(5));
}

TEST(EdgeKey, RejectsSelfLoop) { EXPECT_THROW(EdgeKey(4, 4), std::invalid_argument); }

TEST(EdgeKey, HashDistinguishesEdges) {
  EdgeKeyHash h;
  EXPECT_NE(h(EdgeKey(0, 1)), h(EdgeKey(0, 2)));
  EXPECT_EQ(h(EdgeKey(1, 0)), h(EdgeKey(0, 1)));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, BelowIsUnbiasedish) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 0.2, 0.02);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(5);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

// find() over the whole (owner, peer) domain, owners beyond every row
// included, must see exactly the reference map's entries.
template <class T, class Key>
void expect_rows_match(const PeerRows<T, Key>& rows,
                       const std::map<std::pair<NodeId, Key>, T>& ref, NodeId owners,
                       Key peers) {
  for (NodeId owner = 0; owner < owners; ++owner) {
    for (Key peer = 0; peer < peers; ++peer) {
      const auto it = ref.find({owner, peer});
      const T* got = rows.find(owner, peer);
      ASSERT_EQ(got != nullptr, it != ref.end()) << owner << " -> " << peer;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << owner << " -> " << peer;
      }
    }
  }
}

TEST(PeerRows, MatchesReferenceMapUnderRandomOperations) {
  constexpr NodeId kOwners = 24;  // the rows start empty: most early owners are new
  constexpr NodeId kPeers = 16;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    PeerRows<int> rows;
    std::map<std::pair<NodeId, NodeId>, int> ref;
    for (int step = 0; step < 1500; ++step) {
      const auto owner = static_cast<NodeId>(rng.below(kOwners));
      const auto peer = static_cast<NodeId>(rng.below(kPeers));  // any order
      const auto value = static_cast<int>(rng.below(1000));
      const auto found = ref.find({owner, peer});
      switch (rng.below(5)) {
        case 0:  // insert, or overwrite when present
        case 1:
          rows.find_or_insert(owner, peer) = value;
          ref[{owner, peer}] = value;
          break;
        case 2:  // erase, of a present or an absent peer
          EXPECT_EQ(rows.erase(owner, peer), found != ref.end());
          ref.erase({owner, peer});
          break;
        case 3: {  // find
          const int* got = rows.find(owner, peer);
          ASSERT_EQ(got != nullptr, found != ref.end());
          if (got != nullptr) {
            EXPECT_EQ(*got, found->second);
          }
          break;
        }
        case 4:  // erase_if over one owner's row
          rows.erase_if(owner, [&](const auto& s) { return s.value % 3 == value % 3; });
          std::erase_if(ref, [&](const auto& kv) {
            return kv.first.first == owner && kv.second % 3 == value % 3;
          });
          break;
      }
      expect_rows_match(rows, ref, kOwners + 2, kPeers);
      if (HasFailure()) return;
    }
  }
}

TEST(PeerRows, AppendOnlyKeysAndOwnersBeyondTheRows) {
  PeerRows<double, std::uint32_t> rows;
  std::map<std::pair<NodeId, std::uint32_t>, double> ref;
  EXPECT_EQ(rows.find(5, 0), nullptr);
  EXPECT_FALSE(rows.erase(5, 0));
  rows.erase_if(5, [](const auto&) { return true; });
  for (std::uint32_t id = 0; id < 40; ++id) {
    rows.find_or_insert(3, id) = 0.5 * id;
    ref[{3, id}] = 0.5 * id;
  }
  rows.find_or_insert(3, 7) = -1.0;  // overwrite in the middle of the row
  ref[{3, 7}] = -1.0;
  expect_rows_match(rows, ref, 6, 41u);
  rows.erase_if(3, [](const auto& s) { return s.peer < 10; });
  std::erase_if(ref, [](const auto& kv) { return kv.first.second < 10; });
  expect_rows_match(rows, ref, 6, 41u);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(FitLinear, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLog, RecoversLogCurve) {
  std::vector<double> x, y;
  for (int i = 1; i <= 60; ++i) {
    x.push_back(i);
    y.push_back(1.0 + 4.0 * std::log(i));
  }
  const auto fit = fit_log(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 4.0, 1e-9);
}

TEST(Table, RendersAlignedCells) {
  Table t("demo");
  t.headers({"name", "value"});
  t.row().cell("x").cell(1.5);
  t.row().cell("longer").cell(2);
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.25, 2), "0.25");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w;
  w.field(std::string("a,b")).field(std::string("c\"d")).field(3.5).endrow();
  EXPECT_EQ(w.str(), "\"a,b\",\"c\"\"d\",3.5\n");
}

TEST(Flags, ParsesKeyValuesAndPositional) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name=foo", "--verbose", "pos1"};
  Flags flags(5, argv);
  EXPECT_DOUBLE_EQ(flags.get("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get("name", std::string("")), "foo");
  EXPECT_TRUE(flags.get("verbose", false));
  EXPECT_EQ(flags.get("missing", 7), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

}  // namespace
}  // namespace gcs
