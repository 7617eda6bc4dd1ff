// Tests for src/protocols/treehist: the [3] prefix-tree baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/protocols/treehist.h"
#include "src/workload/workload.h"

namespace ldphh {
namespace {

bool ResultContains(const HeavyHitterResult& r, const DomainItem& x) {
  return std::any_of(r.entries.begin(), r.entries.end(),
                     [&](const HeavyHitterEntry& e) { return e.item == x; });
}

TreeHistParams FastConfig() {
  TreeHistParams p;
  p.domain_bits = 16;
  p.epsilon = 4.0;
  p.beta = 1e-2;
  return p;
}

TEST(TreeHist, CreateValidates) {
  TreeHistParams p = FastConfig();
  p.domain_bits = 4;
  EXPECT_FALSE(TreeHist::Create(p).ok());
  p = FastConfig();
  p.epsilon = 0;
  EXPECT_FALSE(TreeHist::Create(p).ok());
  p = FastConfig();
  p.beta = 2;
  EXPECT_FALSE(TreeHist::Create(p).ok());
  p = FastConfig();
  p.frontier_cap = 1;
  EXPECT_FALSE(TreeHist::Create(p).ok());
}

TEST(TreeHist, RejectsTinyDatabase) {
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  std::vector<DomainItem> db(10, DomainItem(1));
  EXPECT_FALSE(th.Run(db, 1).ok());
}

TEST(TreeHist, RecoversPlantedHitters) {
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  const uint64_t n = 1 << 18;
  const Workload w = MakePlantedWorkload(n, 16, {0.3, 0.2}, 91);
  const auto res = std::move(th.Run(w.database, 7)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

TEST(TreeHist, EstimatesWithinEnvelope) {
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  const uint64_t n = 1 << 18;
  const Workload w = MakePlantedWorkload(n, 16, {0.35}, 93);
  const auto res = std::move(th.Run(w.database, 11)).value();
  for (const auto& e : res.entries) {
    if (e.item == w.heavy[0].first) {
      EXPECT_NEAR(e.estimate, static_cast<double>(w.heavy[0].second),
                  25.0 * std::sqrt(static_cast<double>(n)));
    }
  }
}

TEST(TreeHist, FrontierCapBoundsOutput) {
  TreeHistParams p = FastConfig();
  p.frontier_cap = 4;
  auto th = std::move(TreeHist::Create(p)).value();
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3, 0.25, 0.2}, 95);
  const auto res = std::move(th.Run(w.database, 13)).value();
  EXPECT_LE(res.entries.size(), 4u);
}

TEST(TreeHist, CommunicationIsConstantBits) {
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3}, 97);
  const auto res = std::move(th.Run(w.database, 17)).value();
  EXPECT_LE(res.metrics.comm_bits_max_user, 64u);
  EXPECT_GT(res.metrics.server_memory_bytes, 0u);
}

TEST(TreeHist, DetectionThresholdScalesWithDomainAndN) {
  auto th16 = std::move(TreeHist::Create(FastConfig())).value();
  TreeHistParams p64 = FastConfig();
  p64.domain_bits = 64;
  auto th64 = std::move(TreeHist::Create(p64)).value();
  EXPECT_GT(th64.DetectionThreshold(1 << 18), th16.DetectionThreshold(1 << 18));
  EXPECT_NEAR(th16.DetectionThreshold(1 << 20) / th16.DetectionThreshold(1 << 18),
              2.0, 0.2);
}

TEST(TreeHist, DetectionThresholdGrowsWithStricterBeta) {
  // The per-level oracles' rows follow beta, so the log(1/beta) row factor
  // must show in the threshold.
  TreeHistParams p = FastConfig();
  p.beta = 1e-2;
  auto loose = std::move(TreeHist::Create(p)).value();
  p.beta = 1e-6;
  auto strict = std::move(TreeHist::Create(p)).value();
  EXPECT_GT(strict.DetectionThreshold(1 << 18),
            loose.DetectionThreshold(1 << 18));
}

TEST(TreeHist, DeterministicGivenSeed) {
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3}, 99);
  const auto a = std::move(th.Run(w.database, 23)).value();
  const auto b = std::move(th.Run(w.database, 23)).value();
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].item, b.entries[i].item);
  }
}

TEST(TreeHist, NoSpuriousDeepItems) {
  // Pure background: the frontier should die out (or contain only items
  // the verification threshold admits — with 3-sigma per level, spurious
  // survivals through all 16 levels are essentially impossible).
  auto th = std::move(TreeHist::Create(FastConfig())).value();
  const Workload w = MakePlantedWorkload(1 << 16, 16, {}, 101);
  const auto res = std::move(th.Run(w.database, 29)).value();
  EXPECT_LE(res.entries.size(), 2u);
}

TEST(TreeHist, WorksOn64BitDomain) {
  TreeHistParams p = FastConfig();
  p.domain_bits = 64;
  auto th = std::move(TreeHist::Create(p)).value();
  const uint64_t n = 1 << 19;
  const Workload w = MakePlantedWorkload(n, 64, {0.4}, 103);
  const auto res = std::move(th.Run(w.database, 31)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
}

}  // namespace
}  // namespace ldphh
