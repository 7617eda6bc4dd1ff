// Tests for src/server/sharded_aggregator: merge-equivalence of sharded
// ingestion against the single-threaded baseline, wire-batch rejection, and
// the mergeable-state layer of every frequency oracle. (Durable aggregator
// state is the epoch blob, pinned by epoch_manager_test, power_loss_test and
// protocol_registry_test.)

#include "src/server/sharded_aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/freq/count_mean_sketch.h"
#include "src/freq/direct_encoding.h"
#include "src/freq/hadamard_response.h"
#include "src/freq/hashtogram.h"
#include "src/freq/olh.h"
#include "src/freq/unary_encoding.h"
#include "src/protocols/registry.h"
#include "src/server/report_codec.h"
#include "tests/serving_test_util.h"

namespace ldphh {
namespace {

using testutil::DirectAggregate;
using testutil::EncodeSkewedReports;
using testutil::ExpectSameEstimates;
using testutil::MustCreate;
using testutil::OlhConfig;
using testutil::OracleConfig;

std::vector<WireReport> EncodeReports(const ProtocolConfig& config, uint64_t n,
                                      uint64_t seed) {
  return EncodeSkewedReports(config, n, seed,
                             config.GetUintOr("domain", 0));
}

std::unique_ptr<ShardedAggregator> MustCreateSharded(
    const ProtocolConfig& config, const ShardedAggregatorOptions& opts) {
  auto agg_or = ShardedAggregator::Create(config, opts);
  EXPECT_TRUE(agg_or.ok()) << agg_or.status().ToString();
  LDPHH_CHECK(agg_or.ok(), "test: ShardedAggregator::Create failed");
  return std::move(agg_or).value();
}

// The acceptance-criterion test: an 8-shard ingest must produce estimates
// identical (==, not near) to the single-threaded aggregation.
void CheckMergeEquivalence(const ProtocolConfig& config, uint64_t n) {
  const auto reports = EncodeReports(config, n, 1234);

  auto baseline = DirectAggregate(config, reports, 0, reports.size());

  ShardedAggregatorOptions opts;
  opts.num_shards = 8;
  opts.queue_capacity = 1024;
  opts.batch_size = 128;
  auto agg = MustCreateSharded(config, opts);
  ASSERT_TRUE(agg->Start().ok());
  // Route everything through the wire codec in chunks, as a client would —
  // stamped with the protocol's wire id.
  const size_t chunk = 4096;
  for (size_t lo = 0; lo < reports.size(); lo += chunk) {
    const size_t hi = std::min(lo + chunk, reports.size());
    const std::vector<WireReport> slice(reports.begin() + lo,
                                        reports.begin() + hi);
    ASSERT_TRUE(
        agg->SubmitWire(EncodeReportBatch(slice, agg->wire_id())).ok());
  }
  auto merged_or = agg->Finish();
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  auto merged = std::move(merged_or).value();

  const IngestStats stats = agg->Stats();
  EXPECT_EQ(stats.submitted, n);
  EXPECT_EQ(stats.rejected, 0u);
  uint64_t per_shard_total = 0;
  for (uint64_t c : stats.per_shard) per_shard_total += c;
  EXPECT_EQ(per_shard_total, n);

  ExpectSameEstimates(*merged, *baseline);
}

constexpr uint64_t kNumReports = 100000;

TEST(ShardedAggregator, MergeEquivalenceDirectEncoding) {
  CheckMergeEquivalence(OracleConfig("k_rr", 64, 1.0), kNumReports);
}

TEST(ShardedAggregator, MergeEquivalenceHadamardResponse) {
  CheckMergeEquivalence(OracleConfig("hadamard_response", 64, 1.0),
                        kNumReports);
}

TEST(ShardedAggregator, MergeEquivalenceUnaryEncoding) {
  CheckMergeEquivalence(OracleConfig("rappor_unary", 32, 1.0), kNumReports);
}

TEST(ShardedAggregator, MergeEquivalenceOlh) {
  CheckMergeEquivalence(OlhConfig(16, 1.0, /*seed=*/77), kNumReports);
}

TEST(ShardedAggregator, SubmitWireRejectsCorruptBatchWhole) {
  const ProtocolConfig config = OracleConfig("k_rr", 16, 1.0);
  const auto reports = EncodeReports(config, 100, 8);
  auto agg = MustCreateSharded(config, ShardedAggregatorOptions{});
  ASSERT_TRUE(agg->Start().ok());
  std::string wire = EncodeReportBatch(reports, agg->wire_id());
  wire[wire.size() - 1] ^= 0x1;
  EXPECT_EQ(agg->SubmitWire(wire).code(), StatusCode::kDecodeFailure);
  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, 0u);
}

// The wire stamp: a batch encoded for one protocol is rejected by a server
// serving another, before a single report is decoded into the shards. An
// unstamped (id 0) batch is accepted for backward compatibility.
TEST(ShardedAggregator, SubmitWireRejectsWrongProtocolStamp) {
  const ProtocolConfig krr = OracleConfig("k_rr", 16, 1.0);
  const auto reports = EncodeReports(krr, 100, 8);

  auto agg = MustCreateSharded(OracleConfig("hadamard_response", 16, 1.0),
                               ShardedAggregatorOptions{});
  ASSERT_TRUE(agg->Start().ok());
  const uint16_t krr_id =
      ProtocolRegistry::Global().WireIdOf("k_rr").value();
  const Status st = agg->SubmitWire(EncodeReportBatch(reports, krr_id));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("stamped for protocol"), std::string::npos);
  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, 0u);

  // Unstamped batches still flow (the reports even happen to be the right
  // width here — k_rr and hadamard_response over domain 16 differ).
  EXPECT_TRUE(agg->SubmitWire(EncodeReportBatch(reports)).ok());
}

// ------------------------------------------------ oracle state snapshots --

using FoFactory = std::function<std::unique_ptr<SmallDomainFO>()>;

// Encodes n reports with sequential user indices through a fresh client-side
// oracle instance (so OLH's implicit user numbering matches the index).
std::vector<WireReport> EncodeFoReports(const FoFactory& factory, uint64_t n,
                                        uint64_t seed) {
  auto client = factory();
  const uint64_t domain = client->domain_size();
  Rng rng(seed);
  std::vector<WireReport> reports(n);
  for (uint64_t i = 0; i < n; ++i) {
    // Skewed input so estimates are far from uniform.
    const uint64_t value = rng.Bernoulli(0.3) ? 0 : rng.UniformU64(domain);
    reports[i].user_index = i;
    reports[i].report = client->Encode(value, rng);
  }
  return reports;
}

TEST(MergeableState, SerializeRestoreRoundTripsEveryOracle) {
  const std::vector<FoFactory> factories = {
      [] { return std::make_unique<DirectEncodingFO>(32, 1.0); },
      [] { return std::make_unique<HadamardResponseFO>(32, 1.0); },
      [] { return std::make_unique<UnaryEncodingFO>(24, 1.0); },
      [] { return std::make_unique<OlhFO>(24, 1.0, 13); },
  };
  for (const auto& factory : factories) {
    const auto reports = EncodeFoReports(factory, 5000, 21);
    auto a = factory();
    ASSERT_TRUE(a->Mergeable());
    for (size_t i = 0; i < 2500; ++i) {
      a->AggregateIndexed(reports[i].user_index, reports[i].report);
    }
    std::string snapshot;
    ASSERT_TRUE(a->SerializeState(&snapshot).ok());

    auto b = factory();
    ASSERT_TRUE(b->RestoreState(snapshot).ok());
    for (size_t i = 2500; i < 5000; ++i) {
      a->AggregateIndexed(reports[i].user_index, reports[i].report);
      b->AggregateIndexed(reports[i].user_index, reports[i].report);
    }
    a->Finalize();
    b->Finalize();
    for (uint64_t v = 0; v < a->domain_size(); ++v) {
      EXPECT_EQ(a->Estimate(v), b->Estimate(v))
          << a->Name() << " value " << v;
    }
  }
}

TEST(MergeableState, RestoreRejectsWrongOracleAndTruncation) {
  DirectEncodingFO de(32, 1.0);
  UnaryEncodingFO ue(32, 1.0);
  std::string snapshot;
  ASSERT_TRUE(de.SerializeState(&snapshot).ok());
  EXPECT_FALSE(ue.RestoreState(snapshot).ok());
  for (size_t len = 0; len < snapshot.size(); ++len) {
    EXPECT_FALSE(de.RestoreState(std::string_view(snapshot.data(), len)).ok())
        << "prefix " << len;
  }
}

TEST(MergeableState, MergeRejectsConfigMismatch) {
  DirectEncodingFO a(32, 1.0);
  DirectEncodingFO b(32, 2.0);
  DirectEncodingFO c(16, 1.0);
  UnaryEncodingFO u(32, 1.0);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
  EXPECT_FALSE(a.Merge(u).ok());
  DirectEncodingFO d(32, 1.0);
  EXPECT_TRUE(a.Merge(d).ok());
}

TEST(MergeableState, HashtogramMergeAndSnapshotMatchSequential) {
  HashtogramParams params;
  params.rows = 8;
  params.table_size = 256;
  const uint64_t n = 20000;
  Hashtogram seq(n, 1.0, params, 4242);
  Hashtogram left(n, 1.0, params, 4242);
  Hashtogram right(n, 1.0, params, 4242);

  Rng rng(7);
  std::vector<std::pair<uint64_t, FoReport>> reports;
  reports.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const DomainItem x(rng.Bernoulli(0.4) ? 3 : rng.UniformU64(1000));
    reports.emplace_back(i, seq.Encode(i, x, rng));
  }
  for (const auto& [i, r] : reports) {
    seq.Aggregate(i, r);
    (i % 2 ? left : right).Aggregate(i, r);
  }
  // Snapshot-restore `right` into a fresh instance before merging, so the
  // durable path is exercised too.
  std::string snapshot;
  ASSERT_TRUE(right.SerializeState(&snapshot).ok());
  Hashtogram restored(n, 1.0, params, 4242);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  ASSERT_TRUE(left.Merge(restored).ok());
  seq.Finalize();
  left.Finalize();
  for (uint64_t v = 0; v < 1000; v += 37) {
    EXPECT_EQ(left.Estimate(DomainItem(v)), seq.Estimate(DomainItem(v)));
  }
}

TEST(MergeableState, CountMeanSketchMergeAndSnapshotMatchSequential) {
  CmsParams params;
  params.rows = 8;
  params.width = 64;
  const uint64_t n = 20000;
  CountMeanSketch seq(n, 1.0, params, 99);
  CountMeanSketch left(n, 1.0, params, 99);
  CountMeanSketch right(n, 1.0, params, 99);

  Rng rng(8);
  for (uint64_t i = 0; i < n; ++i) {
    const DomainItem x(rng.Bernoulli(0.4) ? 5 : rng.UniformU64(500));
    const CmsReport r = seq.Encode(x, rng);
    seq.Aggregate(r);
    (i % 2 ? left : right).Aggregate(r);
  }
  std::string snapshot;
  ASSERT_TRUE(right.SerializeState(&snapshot).ok());
  CountMeanSketch restored(n, 1.0, params, 99);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  ASSERT_TRUE(left.Merge(restored).ok());
  seq.Finalize();
  left.Finalize();
  for (uint64_t v = 0; v < 500; v += 17) {
    EXPECT_EQ(left.Estimate(DomainItem(v)), seq.Estimate(DomainItem(v)));
  }
}

}  // namespace
}  // namespace ldphh
