// Tests for src/obs: exact multi-threaded counter/histogram totals (the
// TSan target for the metrics hot path), the log-bucketing error bound,
// registry retire-folding and exposition, the trace ring's bounded memory,
// the shared JSON writer, the privacy-budget ledger, and a snapshot test
// running a miniature serving/storage stack and asserting every exported
// metric name shows up in DumpText().

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ldp/privacy_loss.h"
#include "src/obs/json_writer.h"
#include "src/obs/trace.h"
#include "src/server/epoch_manager.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"
#include "tests/serving_test_util.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace obs {
namespace {

// ---------------------------------------------------------------- naming

TEST(MetricNames, LabeledAndBase) {
  EXPECT_EQ(LabeledName("ldphh_q", "shard", "3"), "ldphh_q{shard=\"3\"}");
  EXPECT_EQ(BaseName("ldphh_q{shard=\"3\"}"), "ldphh_q");
  EXPECT_EQ(BaseName("plain_name"), "plain_name");
}

// -------------------------------------------------- concurrency (TSan)

TEST(Counter, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  auto counter = registry.NewCounter("test_hits_total", "help");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Mix unit and bulk increments.
        counter->Increment(i % 2 == 0 ? 1 : 3);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Per thread: kPerThread/2 ones + kPerThread/2 threes.
  EXPECT_EQ(counter->Value(), kThreads * (kPerThread / 2) * 4);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  MetricsRegistry registry;
  auto hist = registry.NewHistogram("test_lat_ns", "help", "ns");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  // Deterministic value stream shared by the reference and the threads.
  auto value_at = [](uint64_t i) {
    return (i * 2654435761ull) % 3000000ull;  // 0 .. 3ms in ns.
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, value_at] {
      for (uint64_t i = 0; i < kPerThread; ++i) hist->Observe(value_at(i));
    });
  }
  for (auto& t : threads) t.join();

  uint64_t want_sum = 0;
  std::vector<uint64_t> want_buckets(Histogram::kNumBuckets, 0);
  for (uint64_t i = 0; i < kPerThread; ++i) {
    want_sum += value_at(i);
    ++want_buckets[static_cast<size_t>(Histogram::BucketOf(value_at(i)))];
  }
  EXPECT_EQ(hist->Count(), kThreads * kPerThread);
  EXPECT_EQ(hist->Sum(), kThreads * want_sum);
  const std::vector<uint64_t> got = hist->BucketCounts();
  ASSERT_EQ(got.size(), want_buckets.size());
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(got[b], kThreads * want_buckets[b]) << "bucket " << b;
    bucket_total += got[b];
  }
  EXPECT_EQ(bucket_total, hist->Count());
}

// ----------------------------------------------------- bucket accuracy

TEST(Histogram, BucketBoundsAndRelativeError) {
  // Exact buckets below kSubBuckets.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int idx = Histogram::BucketOf(v);
    EXPECT_EQ(Histogram::BucketLower(idx), v);
    EXPECT_EQ(Histogram::BucketUpper(idx), v);
  }
  // Contiguity: each bucket starts right after the previous one ends.
  for (int idx = 1; idx < Histogram::kNumBuckets; ++idx) {
    EXPECT_EQ(Histogram::BucketLower(idx), Histogram::BucketUpper(idx - 1) + 1)
        << "index " << idx;
  }
  // Sweep: powers of two, their neighbors, and a pseudorandom spray. Every
  // value must land inside its bucket, and the bucket midpoint must be
  // within 1/16 = 6.25% relative error.
  std::vector<uint64_t> values;
  for (int p = 3; p < 64; ++p) {
    const uint64_t v = 1ull << p;
    values.push_back(v - 1);
    values.push_back(v);
    values.push_back(v + 1);
  }
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x);
  }
  values.push_back(std::numeric_limits<uint64_t>::max());
  for (const uint64_t v : values) {
    const int idx = Histogram::BucketOf(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets) << "value " << v;
    const uint64_t lo = Histogram::BucketLower(idx);
    const uint64_t hi = Histogram::BucketUpper(idx);
    EXPECT_LE(lo, v) << "value " << v;
    EXPECT_GE(hi, v) << "value " << v;
    const double mid =
        static_cast<double>(lo) + (static_cast<double>(hi - lo)) / 2.0;
    const double rel =
        std::abs(static_cast<double>(v) - mid) / static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / 16.0 + 1e-9) << "value " << v;
  }
}

TEST(Histogram, MaxValueDoesNotOverflowBucketArray) {
  // Regression: BucketOf(2^64-1) = 60*8+15 = 495 must be in range.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ASSERT_LT(Histogram::BucketOf(kMax), Histogram::kNumBuckets);
  EXPECT_EQ(Histogram::BucketUpper(Histogram::BucketOf(kMax)), kMax);
  MetricsRegistry registry;
  auto hist = registry.NewHistogram("test_max_ns", "help", "ns");
  hist->Observe(kMax);
  EXPECT_EQ(hist->Count(), 1u);
  EXPECT_EQ(hist->Sum(), kMax);
  EXPECT_EQ(hist->BucketCounts()[static_cast<size_t>(Histogram::BucketOf(
                kMax))],
            1u);
}

TEST(Histogram, QuantileWithinBucketError) {
  MetricsRegistry registry;
  auto hist = registry.NewHistogram("test_q_ns", "help", "ns");
  for (uint64_t v = 1; v <= 10000; ++v) hist->Observe(v);
  EXPECT_NEAR(hist->Quantile(0.5), 5000.0, 5000.0 * 0.0625 + 1.0);
  EXPECT_NEAR(hist->Quantile(0.9), 9000.0, 9000.0 * 0.0625 + 1.0);
  EXPECT_NEAR(hist->Quantile(0.99), 9900.0, 9900.0 * 0.0625 + 1.0);
  auto empty = registry.NewHistogram("test_q_empty_ns", "help", "ns");
  EXPECT_EQ(empty->Quantile(0.5), 0.0);
}

// ------------------------------------------------- registry exposition

TEST(MetricsRegistry, SumsLiveInstrumentsSharingAName) {
  MetricsRegistry registry;
  auto a = registry.NewCounter("shared_total", "help");
  auto b = registry.NewCounter("shared_total", "help");
  a->Increment(3);
  b->Increment(4);
  EXPECT_NE(registry.DumpText().find("shared_total 7"), std::string::npos);
}

TEST(MetricsRegistry, RetireFoldsCountersAndHistogramsDropsGauges) {
  MetricsRegistry registry;
  {
    auto c = registry.NewCounter("churn_total", "help");
    c->Increment(41);
    auto h = registry.NewHistogram("churn_ns", "help", "ns");
    h->Observe(100);
    h->Observe(200);
    auto g = registry.NewGauge("churn_depth", "help");
    g->Set(9.0);
    const std::string live = registry.DumpText();
    EXPECT_NE(live.find("churn_depth 9"), std::string::npos);
  }
  // Counter and histogram totals survive instance death; the gauge family
  // disappears (a dead instance's level is not a fact about the process).
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("churn_total 41"), std::string::npos);
  EXPECT_NE(text.find("churn_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("churn_ns_sum 300"), std::string::npos);
  EXPECT_EQ(text.find("churn_depth"), std::string::npos);

  // A successor instance adds on top of the retired totals.
  auto c2 = registry.NewCounter("churn_total", "help");
  c2->Increment(1);
  EXPECT_NE(registry.DumpText().find("churn_total 42"), std::string::npos);
}

TEST(MetricsRegistry, DumpTextShape) {
  MetricsRegistry registry;
  auto c = registry.NewCounter("ex_total", "counted things", "things");
  c->Increment(2);
  auto g = registry.NewGauge(LabeledName("ex_depth", "shard", "0"),
                             "queue depth", "reports");
  g->Set(1.5);
  auto h = registry.NewHistogram("ex_ns", "latency", "ns");
  h->Observe(5);
  h->Observe(1000);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("# HELP ex_total counted things (things)"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ex_total counter"), std::string::npos);
  EXPECT_NE(text.find("ex_total 2"), std::string::npos);
  // Labeled gauge: HELP/TYPE on the base name, sample on the full name.
  EXPECT_NE(text.find("# TYPE ex_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("ex_depth{shard=\"0\"} 1.5"), std::string::npos);
  // Histogram: cumulative nonempty buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE ex_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("ex_ns_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ex_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ex_ns_sum 1005"), std::string::npos);
  EXPECT_NE(text.find("ex_ns_count 2"), std::string::npos);

  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ex_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(MetricsRegistry, ResetForTestingDropsEverything) {
  MetricsRegistry registry;
  auto c = registry.NewCounter("gone_total", "help");
  c->Increment(1);
  registry.ResetForTesting();
  EXPECT_TRUE(registry.Names().empty());
  // The live instrument still works and its later death must not crash.
  c->Increment(1);
  c.reset();
  EXPECT_TRUE(registry.Names().empty());
}

// ------------------------------------------------------------ trace ring

TEST(TraceRing, BoundedMemoryOldestFirstAndDropCount) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 6; ++i) {
    ring.Record("test", "event", "", i, 0);
  }
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg0, i + 2);  // 0 and 1 were overwritten.
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
    }
  }
  EXPECT_NE(ring.DumpText().find("test/event"), std::string::npos);
  EXPECT_NE(ring.DumpJson().find("\"dropped\":2"), std::string::npos);
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, TruncatesOversizedDetail) {
  TraceRing ring(2);
  ring.Record("test", "big", std::string(1000, 'x'));
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail.size(), TraceRing::kMaxDetailBytes + 3);
  EXPECT_EQ(events[0].detail.substr(events[0].detail.size() - 3), "...");
}

// ------------------------------------------------------------ JSON writer

TEST(JsonWriter, ShapesAndEscaping) {
  JsonWriter w;
  w.BeginObject()
      .Key("a")
      .String("x\"y\\z\n\x01")
      .Key("n")
      .Uint(5)
      .Key("arr")
      .BeginArray()
      .Int(-3)
      .Double(0.5)
      .Bool(true)
      .Null()
      .EndArray()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":\"x\\\"y\\\\z\\n\\u0001\",\"n\":5,"
            "\"arr\":[-3,0.5,true,null]}");
}

TEST(JsonWriter, FormatDoubleRoundTripsAndRejectsNonFinite) {
  EXPECT_EQ(JsonWriter::FormatDouble(3.0), "3");
  EXPECT_EQ(JsonWriter::FormatDouble(0.5), "0.5");
  EXPECT_EQ(JsonWriter::FormatDouble(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::FormatDouble(HUGE_VAL), "null");
  for (const double v : {0.1, 1.0 / 3.0, 1e300, -2.5e-9}) {
    EXPECT_EQ(std::strtod(JsonWriter::FormatDouble(v).c_str(), nullptr), v);
  }
}

// ----------------------------------------------------- privacy ledger

TEST(PrivacyBudgetLedger, TracksMaxVolumeAndForwardsToHook) {
  PrivacyBudgetLedger ledger;
  std::vector<std::string> hook_scopes;
  double hook_eps_sum = 0.0;
  ledger.SetSpendHook([&](double eps, uint64_t reports,
                          std::string_view scope) {
    hook_scopes.emplace_back(scope);
    hook_eps_sum += eps * static_cast<double>(reports);
  });
  ledger.RecordSpend(0.5, 10, "tenant_a");
  ledger.RecordSpend(0.25, 5);
  EXPECT_DOUBLE_EQ(ledger.MaxEpsilon(), 0.5);
  EXPECT_DOUBLE_EQ(ledger.WeightedEpsilonVolume(), 6.25);
  EXPECT_EQ(ledger.ReportsAccounted(), 15u);
  ASSERT_EQ(hook_scopes.size(), 2u);
  EXPECT_EQ(hook_scopes[0], "tenant_a");
  EXPECT_EQ(hook_scopes[1], "");
  EXPECT_DOUBLE_EQ(hook_eps_sum, 6.25);
  ledger.SetSpendHook(nullptr);
  ledger.RecordSpend(1.0, 1);
  EXPECT_EQ(hook_scopes.size(), 2u);  // Cleared hook no longer fires.
}

TEST(PrivacyBudgetLedger, GlobalLedgerDrivesTheEpsilonGauge) {
  PrivacyBudgetLedger::Global().ResetForTesting();
  PrivacyBudgetLedger::Global().RecordSpend(2.5, 4);
  const std::string text = MetricsRegistry::Global().DumpText();
  EXPECT_NE(text.find("ldphh_privacy_epsilon_spent 2.5"), std::string::npos);
  EXPECT_NE(text.find("ldphh_privacy_reports_accounted_total"),
            std::string::npos);
  PrivacyBudgetLedger::Global().ResetForTesting();
}

// ------------------------------------------- end-to-end exposition sweep

// Runs a miniature instance of every instrumented layer against the global
// registry, then asserts (a) each required metric family is exposed and
// (b) every name the registry reports is actually present in DumpText().
TEST(Exposition, EveryExportedNameAppearsInDumpText) {
  const ProtocolConfig config =
      testutil::OracleConfig("hadamard_response", 64, 0.5);
  const std::vector<WireReport> reports =
      testutil::EncodeSkewedReports(config, 2048, 11, 64);

  // Ingest.
  ShardedAggregatorOptions agg_opts;
  agg_opts.num_shards = 2;
  auto service = std::move(ShardedAggregator::Create(config, agg_opts)).value();
  ASSERT_TRUE(service->Start().ok());
  ASSERT_TRUE(service->SubmitBatch(reports).ok());
  ASSERT_TRUE(service->Drain().ok());

  // Store (and the checkpoint log under it) + epochs + replica.
  const std::string dir = "/tmp/ldphh_obs_test_store";
  fs::remove_all(dir);
  CheckpointStoreOptions store_opts;
  store_opts.segment_max_bytes = 8 << 10;
  auto store = std::move(CheckpointStore::Open(dir, store_opts)).value();
  EpochManagerOptions epoch_opts;
  epoch_opts.reports_per_epoch = 512;
  epoch_opts.aggregator.num_shards = 2;
  auto primary =
      std::move(EpochManager::Create(config, store.get(), epoch_opts)).value();
  ASSERT_TRUE(primary->Start().ok());
  for (const WireReport& r : reports) ASSERT_TRUE(primary->Submit(r).ok());
  ASSERT_TRUE(primary->CloseEpoch().ok());
  auto replica = std::move(ReplicaStore::Open(dir, {})).value();

  const std::string text = MetricsRegistry::Global().DumpText();
  for (const char* required : {
           // Ingest.
           "ldphh_ingest_submitted_reports_total",
           "ldphh_ingest_batch_aggregate_duration_ns",
           "ldphh_ingest_queue_depth{shard=\"0\"}",
           // Checkpoint log (the fsync histogram).
           "ldphh_log_appends_total",
           "ldphh_log_sync_duration_ns",
           // Epochs.
           "ldphh_epoch_close_duration_ns",
           "ldphh_epoch_closed_total",
           // Store.
           "ldphh_store_puts_total",
           "ldphh_store_put_duration_ns",
           "ldphh_store_group_commits_total",
           "ldphh_store_manifest_installs_total",
           "ldphh_store_manifest_sequence",
           "ldphh_store_dead_bytes",
           "ldphh_store_sealed_bytes",
           "ldphh_store_rewritten_bytes_total",
           // Replica.
           "ldphh_replica_refreshes_total",
           "ldphh_replica_snapshots_installed_total",
           "ldphh_replica_poll_duration_ns",
           "ldphh_replica_lag_generations",
           // Privacy.
           "ldphh_privacy_epsilon_spent",
           "ldphh_privacy_reports_accounted_total",
       }) {
    EXPECT_NE(text.find(required), std::string::npos)
        << "metric missing from DumpText: " << required;
  }

  // Whatever the registry says it exports must actually be in the text.
  for (const std::string& name : MetricsRegistry::Global().Names()) {
    EXPECT_NE(text.find(name), std::string::npos)
        << "exported name missing from DumpText: " << name;
  }

  ASSERT_TRUE(primary->Close().ok());
  replica.reset();
  store.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace ldphh
