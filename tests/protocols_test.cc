// Tests for src/protocols: evaluation helpers, metrics, and the protocol
// classes' parameter handling plus fast end-to-end runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/protocols/bitstogram.h"
#include "src/protocols/freq_scan.h"
#include "src/protocols/heavy_hitters.h"
#include "src/protocols/private_expander_sketch.h"
#include "src/protocols/succinct_hist.h"
#include "src/workload/workload.h"

namespace ldphh {
namespace {

bool ResultContains(const HeavyHitterResult& r, const DomainItem& x) {
  return std::any_of(r.entries.begin(), r.entries.end(),
                     [&](const HeavyHitterEntry& e) { return e.item == x; });
}

// Fast PES config used across these tests: 262k users, 16-bit domain.
PesParams FastPes() {
  PesParams p;
  p.domain_bits = 16;
  p.epsilon = 4.0;
  p.beta = 1e-3;
  p.num_coords = 8;
  p.hash_range = 16;
  p.expander_degree = 4;
  return p;
}

// ------------------------------------------------------------ evaluation --

TEST(ExactFrequencies, CountsAndOrders) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 1);
  const auto freqs = ExactFrequencies(w.database);
  EXPECT_EQ(freqs[0].first, w.heavy[0].first);
  EXPECT_EQ(freqs[0].second, 300u);
  EXPECT_EQ(freqs[1].second, 100u);
  for (size_t i = 1; i < freqs.size(); ++i) {
    EXPECT_GE(freqs[i - 1].second, freqs[i].second);
  }
}

TEST(EvaluateHeavyHitters, PerfectResult) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 2);
  HeavyHitterResult r;
  r.entries.push_back({w.heavy[0].first, 300.0});
  r.entries.push_back({w.heavy[1].first, 100.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_EQ(eval.max_estimate_error, 0.0);
  EXPECT_EQ(eval.true_hitters_total, 2u);
  EXPECT_EQ(eval.true_hitters_found, 2u);
  EXPECT_LT(eval.max_missed_frequency, 100u);
  EXPECT_EQ(eval.list_size, 2u);
}

TEST(EvaluateHeavyHitters, MissedHitterReported) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 3);
  HeavyHitterResult r;
  r.entries.push_back({w.heavy[0].first, 290.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_EQ(eval.true_hitters_found, 1u);
  EXPECT_EQ(eval.true_hitters_total, 2u);
  EXPECT_EQ(eval.max_missed_frequency, 100u);
  EXPECT_NEAR(eval.max_estimate_error, 10.0, 1e-9);
}

TEST(EvaluateHeavyHitters, PhantomEntryScoredAgainstZero) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3}, 4);
  HeavyHitterResult r;
  DomainItem phantom(0xdeadbeef);
  r.entries.push_back({phantom, 50.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_NEAR(eval.max_estimate_error, 50.0, 1e-9);
}

TEST(Metrics, ToStringContainsFields) {
  ProtocolMetrics m;
  m.num_users = 10;
  m.comm_bits_total = 100;
  const auto s = m.ToString();
  EXPECT_NE(s.find("n=10"), std::string::npos);
  EXPECT_NE(s.find("comm_avg=10.0"), std::string::npos);
}

// --------------------------------------------------------------- PES API --

TEST(Pes, CreateValidatesParameters) {
  PesParams p = FastPes();
  p.domain_bits = 4;
  EXPECT_FALSE(PrivateExpanderSketch::Create(p).ok());
  p = FastPes();
  p.epsilon = 0.0;
  EXPECT_FALSE(PrivateExpanderSketch::Create(p).ok());
  p = FastPes();
  p.beta = 1.5;
  EXPECT_FALSE(PrivateExpanderSketch::Create(p).ok());
  p = FastPes();
  p.num_coords = 7;  // Propagates to the code: odd M rejected.
  EXPECT_FALSE(PrivateExpanderSketch::Create(p).ok());
}

TEST(Pes, AutoParamsResolve) {
  PesParams p;
  p.domain_bits = 64;
  auto pes = std::move(PrivateExpanderSketch::Create(p)).value();
  EXPECT_EQ(pes.num_coords(), 16);
  EXPECT_GT(pes.payload_bits(), 0);
  EXPECT_LE(pes.payload_bits(), 64);
  EXPECT_EQ(pes.params().list_cap, 4 * 64);
}

TEST(Pes, DetectionThresholdShape) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  // Quadrupling n doubles the threshold (sqrt scaling).
  const double t1 = pes.DetectionThreshold(1 << 16);
  const double t4 = pes.DetectionThreshold(1 << 18);
  EXPECT_NEAR(t4 / t1, 2.0, 1e-9);
}

TEST(Pes, RejectsTinyDatabases) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  std::vector<DomainItem> db(8, DomainItem(1));
  EXPECT_FALSE(pes.Run(db, 1).ok());
}

TEST(Pes, EndToEndRecoversPlantedHitters) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.20, 0.17}, 42);
  const auto res = std::move(pes.Run(w.database, 7)).value();
  for (const auto& [item, count] : w.heavy) {
    EXPECT_TRUE(ResultContains(res, item));
  }
  // Estimates within the Hashtogram envelope.
  const auto eval = EvaluateHeavyHitters(w.database, res, n / 4);
  EXPECT_LE(eval.max_estimate_error, 20.0 * std::sqrt(static_cast<double>(n)));
}

TEST(Pes, NoJunkInOutputList) {
  // Every listed item must be a real element with nontrivial frequency
  // (the bucket-hash + code verification kills fabrications).
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.25}, 43);
  const auto res = std::move(pes.Run(w.database, 11)).value();
  ASSERT_GE(res.entries.size(), 1u);
  EXPECT_LE(res.entries.size(), 4u);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
}

TEST(Pes, MetricsAccounting) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  const uint64_t n = 1 << 17;
  Workload w = MakePlantedWorkload(n, 16, {0.3}, 44);
  const auto res = std::move(pes.Run(w.database, 13)).value();
  const auto& m = res.metrics;
  EXPECT_EQ(m.num_users, n);
  EXPECT_GT(m.comm_bits_total, 0u);
  // O(1) communication: a couple of machine words at most.
  EXPECT_LE(m.comm_bits_max_user, 64u);
  EXPECT_GT(m.server_memory_bytes, 0u);
  EXPECT_GT(m.public_random_bits_per_user, 0u);
  EXPECT_GE(m.server_seconds, 0.0);
  EXPECT_GE(m.user_seconds_total, 0.0);
}

TEST(Pes, GlobalOracleRowsFollowBeta) {
  // The step-5 global oracle resolves its rows from beta, and each row's
  // hashes are public randomness every user expands.
  const Workload w = MakePlantedWorkload(1 << 12, 16, {0.3}, 50);
  PesParams p = FastPes();
  p.beta = 1e-2;
  auto loose = std::move(PrivateExpanderSketch::Create(p)).value();
  p.beta = 1e-6;
  auto strict = std::move(PrivateExpanderSketch::Create(p)).value();
  const auto loose_res = std::move(loose.Run(w.database, 5)).value();
  const auto strict_res = std::move(strict.Run(w.database, 5)).value();
  EXPECT_GT(strict_res.metrics.public_random_bits_per_user,
            loose_res.metrics.public_random_bits_per_user);
}

TEST(Pes, DeterministicGivenSeed) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  Workload w = MakePlantedWorkload(1 << 17, 16, {0.3}, 45);
  const auto a = std::move(pes.Run(w.database, 17)).value();
  const auto b = std::move(pes.Run(w.database, 17)).value();
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].item, b.entries[i].item);
    EXPECT_DOUBLE_EQ(a.entries[i].estimate, b.entries[i].estimate);
  }
}

TEST(Pes, ExplicitBucketCountHonored) {
  PesParams p = FastPes();
  p.num_buckets = 4;
  auto pes = std::move(PrivateExpanderSketch::Create(p)).value();
  Workload w = MakePlantedWorkload(1 << 18, 16, {0.25, 0.2}, 46);
  const auto res = std::move(pes.Run(w.database, 19)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

// -------------------------------------------------------------- baselines --

TEST(BitstogramApi, CreateValidatesAndAutofills) {
  BitstogramParams p;
  p.domain_bits = 16;
  p.beta = 1.0 / 1024.0;
  auto b = std::move(Bitstogram::Create(p)).value();
  EXPECT_EQ(b.cohorts(), 10);  // ceil(log2 1024).
  p.epsilon = -1;
  EXPECT_FALSE(Bitstogram::Create(p).ok());
}

TEST(BitstogramApi, DetectionGrowsWithStricterBeta) {
  BitstogramParams p;
  p.domain_bits = 16;
  p.beta = 1e-2;
  auto loose = std::move(Bitstogram::Create(p)).value();
  p.beta = 1e-6;
  auto strict = std::move(Bitstogram::Create(p)).value();
  // The sqrt(log 1/beta) penalty of Theorem 3.3.
  EXPECT_GT(strict.DetectionThreshold(1 << 18),
            loose.DetectionThreshold(1 << 18));
}

TEST(BitstogramRun, RecoversPlantedHitters) {
  BitstogramParams p;
  p.domain_bits = 16;
  p.epsilon = 4.0;
  p.beta = 1e-3;
  auto b = std::move(Bitstogram::Create(p)).value();
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.22, 0.18}, 47);
  const auto res = std::move(b.Run(w.database, 23)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
  EXPECT_LE(res.metrics.comm_bits_max_user, 64u);
}

TEST(SuccinctHistApi, DomainCapEnforced) {
  SuccinctHistParams p;
  p.domain_bits = 30;
  EXPECT_FALSE(SuccinctHist::Create(p).ok());
}

TEST(SuccinctHistRun, RecoversHittersOnTinyDomain) {
  SuccinctHistParams p;
  p.domain_bits = 10;
  p.epsilon = 2.0;
  auto sh = std::move(SuccinctHist::Create(p)).value();
  const uint64_t n = 1 << 14;
  Workload w = MakePlantedWorkload(n, 10, {0.4}, 48);
  const auto res = std::move(sh.Run(w.database, 29)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_EQ(res.metrics.comm_bits_max_user, 1u);  // One-bit reports.
}

TEST(FreqScanRun, FindsAllAboveThreshold) {
  FreqScanParams p;
  p.domain_bits = 12;
  p.epsilon = 2.0;
  auto fs = std::move(FreqScan::Create(p)).value();
  const uint64_t n = 1 << 15;
  Workload w = MakePlantedWorkload(n, 12, {0.3, 0.2}, 49);
  const auto res = std::move(fs.Run(w.database, 31)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

TEST(ProtocolNames, AreDistinct) {
  auto pes = std::move(PrivateExpanderSketch::Create(FastPes())).value();
  BitstogramParams bp;
  bp.domain_bits = 16;
  auto bits = std::move(Bitstogram::Create(bp)).value();
  EXPECT_NE(pes.Name(), bits.Name());
  EXPECT_EQ(pes.Epsilon(), FastPes().epsilon);
}

}  // namespace
}  // namespace ldphh
