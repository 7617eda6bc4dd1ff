// Tests for src/server/epoch_manager: epoch-windowed continuous heavy
// hitters over the segment store. The acceptance criterion asserts == (not
// near): WindowedQuery over persisted epochs must match a fresh
// single-threaded aggregation of the same epochs' reports bit for bit, and
// recovery after a kill at any compaction phase must lose no closed epoch.

#include "src/server/epoch_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/obs/json_reader.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/statusz.h"
#include "src/protocols/registry.h"
#include "src/server/report_codec.h"
#include "tests/serving_test_util.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

using testutil::AllEstimates;
using testutil::DirectAggregate;
using testutil::EncodeSkewedReports;
using testutil::ExpectSameEstimates;
using testutil::OlhConfig;
using testutil::OracleConfig;

class EpochManagerTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/ldphh_epoch_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<CheckpointStore> OpenStore(
      size_t segment_max_bytes = 1 << 16) {
    CheckpointStoreOptions o;
    o.segment_max_bytes = segment_max_bytes;
    o.background_compaction = false;
    auto store_or = CheckpointStore::Open(dir_, o);
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    return std::move(store_or).value();
  }

  std::unique_ptr<EpochManager> OpenManager(const ProtocolConfig& config,
                                            CheckpointStore* store,
                                            const EpochManagerOptions& opts) {
    auto mgr_or = EpochManager::Create(config, store, opts);
    EXPECT_TRUE(mgr_or.ok()) << mgr_or.status().ToString();
    LDPHH_CHECK(mgr_or.ok(), "test: EpochManager::Create failed");
    return std::move(mgr_or).value();
  }

  std::string dir_;
};

// Domain size of an oracle config (the value range reports draw from).
uint64_t DomainOf(const ProtocolConfig& config) {
  return config.GetUintOr("domain", 0);
}

std::vector<WireReport> EncodeReports(const ProtocolConfig& config, uint64_t n,
                                      uint64_t seed) {
  return EncodeSkewedReports(config, n, seed, DomainOf(config));
}

TEST_F(EpochManagerTest, WindowedQueryMatchesFreshAggregation) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  const uint64_t kEpochSize = 5000;
  const auto reports = EncodeReports(config, 6 * kEpochSize, 404);

  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 4;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
  EXPECT_EQ(mgr->current_epoch(), 6u);
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));

  // Sliding window [2, 4] and the full range [0, 5].
  auto window_or = mgr->WindowedQuery(2, 4);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 2 * kEpochSize, 5 * kEpochSize);
  ExpectSameEstimates(*window, *want);

  auto all_or = mgr->WindowedQuery(0, 5);
  ASSERT_TRUE(all_or.ok());
  auto all = std::move(all_or).value();
  auto want_all = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*all, *want_all);

  // A single-epoch window too.
  auto one_or = mgr->WindowedQuery(5, 5);
  ASSERT_TRUE(one_or.ok());
  auto one = std::move(one_or).value();
  auto want_one =
      DirectAggregate(config, reports, 5 * kEpochSize, 6 * kEpochSize);
  ExpectSameEstimates(*one, *want_one);

  ASSERT_TRUE(mgr->Close().ok());
}

TEST_F(EpochManagerTest, WindowedQueryExactForUserIndexSensitiveOracle) {
  // OLH's estimator depends on user identity, and the epoch layer merges
  // states across time: the composition must still be exact.
  const ProtocolConfig config = OlhConfig(16, 1.0, 77);
  const uint64_t kEpochSize = 2000;
  const auto reports = EncodeReports(config, 4 * kEpochSize, 11);

  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 4;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());

  auto window_or = mgr->WindowedQuery(1, 3);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, kEpochSize, 4 * kEpochSize);
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

TEST_F(EpochManagerTest, QueryingOpenOrMissingEpochFails) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 24, 1.0);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 100;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  const auto reports = EncodeReports(config, 150, 5);
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
  // Epoch 0 closed; epoch 1 open with 50 reports.
  EXPECT_EQ(mgr->current_epoch(), 1u);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 50u);
  EXPECT_TRUE(mgr->WindowedQuery(0, 0).ok());
  EXPECT_EQ(mgr->WindowedQuery(0, 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mgr->WindowedQuery(3, 2).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(mgr->Close().ok());
  // Close() persisted the 50-report partial epoch as epoch 1.
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1}));
}

TEST_F(EpochManagerTest, EmptyEpochMergesAsIdentity) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 1000;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  const auto reports = EncodeReports(config, 1000, 21);
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
  ASSERT_TRUE(mgr->CloseEpoch().ok());  // Epoch 1: zero reports.
  auto window_or = mgr->WindowedQuery(0, 1);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

TEST_F(EpochManagerTest, RecoveryResumesEpochClockAndKeepsClosedEpochs) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.5);
  const uint64_t kEpochSize = 1500;
  const auto reports = EncodeReports(config, 6 * kEpochSize, 99);

  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 2;

  // Run 3.5 epochs, then "crash" (drop the manager and the store): the 3
  // closed epochs are durable, the half-open epoch's reports are not.
  {
    auto store = OpenStore();
    auto mgr = OpenManager(config, store.get(), opts);
    ASSERT_TRUE(mgr->Start().ok());
    for (size_t i = 0; i < 3 * kEpochSize + kEpochSize / 2; ++i) {
      ASSERT_TRUE(mgr->Submit(reports[i]).ok());
    }
  }

  // Recover: the epoch clock resumes at 3; clients replay everything after
  // the last closed epoch (reports from index 3 * kEpochSize on).
  auto store = OpenStore();
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  EXPECT_EQ(mgr->current_epoch(), 3u);
  for (size_t i = 3 * kEpochSize; i < reports.size(); ++i) {
    ASSERT_TRUE(mgr->Submit(reports[i]).ok());
  }
  EXPECT_EQ(mgr->current_epoch(), 6u);

  auto all_or = mgr->WindowedQuery(0, 5);
  ASSERT_TRUE(all_or.ok());
  auto all = std::move(all_or).value();
  auto want = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*all, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

// A manager configured differently from the persisted epochs must refuse
// the window with a descriptive error instead of silently merging: the
// config embedded in each epoch blob is the guard.
TEST_F(EpochManagerTest, WindowedQueryRejectsConfigMismatch) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  EpochManagerOptions opts;
  opts.reports_per_epoch = 100;
  {
    auto store = OpenStore();
    auto mgr = OpenManager(config, store.get(), opts);
    ASSERT_TRUE(mgr->Start().ok());
    const auto reports = EncodeReports(config, 100, 9);
    for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
    ASSERT_TRUE(mgr->Close().ok());
  }
  // Same store, different epsilon: the persisted epoch 0 does not belong
  // to this manager's protocol.
  auto store = OpenStore();
  const ProtocolConfig other = OracleConfig("hadamard_response", 32, 2.0);
  auto mgr = OpenManager(other, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  const Status st = mgr->WindowedQuery(0, 0).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("written under"), std::string::npos)
      << st.ToString();
  ASSERT_TRUE(mgr->Close().ok());
}

// The wall-clock roll policy (alongside the count-based one), driven by an
// injected fake clock: an epoch open longer than epoch_max_duration closes
// on the next Submit, and the persisted partial epoch is still exact.
TEST_F(EpochManagerTest, WallClockRollClosesEpochMidCount) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const auto reports = EncodeReports(config, 200, 17);

  auto fake_now = std::make_shared<std::chrono::steady_clock::time_point>();
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 1 << 20;  // Count policy never fires here.
  opts.epoch_max_duration = std::chrono::milliseconds(1000);
  opts.clock = [fake_now] { return *fake_now; };
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());

  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(mgr->Submit(reports[i]).ok());
  EXPECT_EQ(mgr->current_epoch(), 0u);  // Not enough time has passed.

  *fake_now += std::chrono::milliseconds(1500);
  ASSERT_TRUE(mgr->Submit(reports[10]).ok());  // The straw that rolls it.
  EXPECT_EQ(mgr->current_epoch(), 1u);
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0}));

  auto window_or = mgr->WindowedQuery(0, 0);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, 11);
  ExpectSameEstimates(*window, *want);

  // The clock restarts with the new epoch: no immediate re-roll.
  ASSERT_TRUE(mgr->Submit(reports[11]).ok());
  EXPECT_EQ(mgr->current_epoch(), 1u);
  ASSERT_TRUE(mgr->Close().ok());
}

// PollClock rolls quiet epochs without any Submit traffic — including a
// zero-report epoch (a quiet period is still an epoch).
TEST_F(EpochManagerTest, PollClockRollsQuietEpochs) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const auto reports = EncodeReports(config, 20, 23);

  auto fake_now = std::make_shared<std::chrono::steady_clock::time_point>();
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 1 << 20;
  opts.epoch_max_duration = std::chrono::milliseconds(1000);
  opts.clock = [fake_now] { return *fake_now; };
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());

  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(mgr->Submit(reports[i]).ok());
  auto rolled_or = mgr->PollClock();
  ASSERT_TRUE(rolled_or.ok());
  EXPECT_FALSE(rolled_or.value());  // Too early.
  EXPECT_EQ(mgr->current_epoch(), 0u);

  *fake_now += std::chrono::milliseconds(1001);
  rolled_or = mgr->PollClock();
  ASSERT_TRUE(rolled_or.ok());
  EXPECT_TRUE(rolled_or.value());
  EXPECT_EQ(mgr->current_epoch(), 1u);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 0u);

  // A fully quiet period closes as an empty epoch and merges as identity.
  *fake_now += std::chrono::milliseconds(1001);
  rolled_or = mgr->PollClock();
  ASSERT_TRUE(rolled_or.ok());
  EXPECT_TRUE(rolled_or.value());
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1}));

  auto window_or = mgr->WindowedQuery(0, 1);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, 5);
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

TEST_F(EpochManagerTest, PruneDropsOldEpochsDurably) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const uint64_t kEpochSize = 500;
  const auto reports = EncodeReports(config, 6 * kEpochSize, 31);
  auto store = OpenStore(1 << 12);
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());

  ASSERT_TRUE(mgr->PruneEpochsBefore(4).ok());
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(mgr->WindowedQuery(3, 5).status().code(), StatusCode::kOutOfRange);
  auto kept_or = mgr->WindowedQuery(4, 5);
  ASSERT_TRUE(kept_or.ok());
  auto kept = std::move(kept_or).value();
  auto want = DirectAggregate(config, reports, 4 * kEpochSize, 6 * kEpochSize);
  ExpectSameEstimates(*kept, *want);
  ASSERT_TRUE(mgr->Close().ok());

  // Compaction reclaims the pruned epochs; recovery does not resurrect
  // them, and the clock still resumes after the last kept epoch.
  ASSERT_TRUE(store->Compact().ok());
  store.reset();
  auto reopened_store = OpenStore(1 << 12);
  auto again = OpenManager(config, reopened_store.get(), opts);
  ASSERT_TRUE(again->Start().ok());
  EXPECT_EQ(again->PersistedEpochs(), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(again->current_epoch(), 6u);
}

TEST_F(EpochManagerTest, EpochClockSurvivesPruningEverything) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  EpochManagerOptions opts;
  opts.reports_per_epoch = 100;
  {
    auto store = OpenStore();
    auto mgr = OpenManager(config, store.get(), opts);
    ASSERT_TRUE(mgr->Start().ok());
    const auto reports = EncodeReports(config, 500, 3);
    for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
    EXPECT_EQ(mgr->current_epoch(), 5u);
    // Retention drops every persisted epoch; the ids 0..4 were still
    // issued and must never be reused.
    ASSERT_TRUE(mgr->PruneEpochsBefore(5).ok());
    EXPECT_TRUE(mgr->PersistedEpochs().empty());
    ASSERT_TRUE(store->Compact().ok());
  }
  auto store = OpenStore();
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  EXPECT_EQ(mgr->current_epoch(), 5u);
  EXPECT_TRUE(mgr->PersistedEpochs().empty());
  EXPECT_EQ(mgr->WindowedQuery(UINT64_MAX, UINT64_MAX).status().code(),
            StatusCode::kInvalidArgument);
}

// reports[lo, hi) as one wire frame stamped for \p config's protocol.
std::string Frame(const ProtocolConfig& config,
                  const std::vector<WireReport>& reports, size_t lo,
                  size_t hi) {
  const auto wire_id_or =
      ProtocolRegistry::Global().WireIdOf(config.protocol());
  LDPHH_CHECK(wire_id_or.ok(), "test: protocol has no wire id");
  return EncodeReportBatch(
      std::vector<WireReport>(reports.begin() + static_cast<ptrdiff_t>(lo),
                              reports.begin() + static_cast<ptrdiff_t>(hi)),
      wire_id_or.value());
}

// The report count in the header of epoch \p epoch's persisted blob.
uint64_t PersistedReportCount(const CheckpointStore& store, uint64_t epoch) {
  std::string blob;
  EXPECT_TRUE(store.Get(epoch, &blob).ok()) << "epoch " << epoch;
  ByteReader reader(blob);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint64_t id = 0, count = 0;
  EXPECT_TRUE(reader.ReadU32(&magic).ok());
  EXPECT_TRUE(reader.ReadU16(&version).ok());
  EXPECT_TRUE(reader.ReadU64(&id).ok());
  EXPECT_TRUE(reader.ReadU64(&count).ok());
  EXPECT_EQ(magic, kEpochBlobMagic);
  EXPECT_EQ(id, epoch);
  return count;
}

// 7-report frames into 10-report epochs: most frames straddle an epoch
// boundary, so SubmitWire hands the shards two slices with a close between
// them. Every epoch closed by count holds exactly 10 reports, and each one
// is bit for bit a single-threaded aggregation of its own reports.
void CheckStraddlingFrames(EpochManager& mgr, const CheckpointStore& store,
                           const ProtocolConfig& config) {
  constexpr uint64_t kFrame = 7, kEpoch = 10, kEpochs = 14;  // 20 frames.
  const auto reports = EncodeReports(config, kEpochs * kEpoch, 55);
  ASSERT_TRUE(mgr.Start().ok());
  for (uint64_t lo = 0; lo < reports.size(); lo += kFrame) {
    const uint64_t hi = lo + kFrame;
    ASSERT_TRUE(mgr.SubmitWire(Frame(config, reports, lo, hi)).ok());
    EXPECT_EQ(mgr.current_epoch(), hi / kEpoch);
    EXPECT_EQ(mgr.reports_in_current_epoch(), hi % kEpoch);
  }
  ASSERT_EQ(mgr.PersistedEpochs().size(), kEpochs);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(PersistedReportCount(store, e), kEpoch) << "epoch " << e;
    auto window_or = mgr.WindowedQuery(e, e);
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
    auto window = std::move(window_or).value();
    auto want = DirectAggregate(config, reports, e * kEpoch, (e + 1) * kEpoch);
    ExpectSameEstimates(*window, *want);
  }
  ASSERT_TRUE(mgr.Close().ok());
}

TEST_F(EpochManagerTest, SubmitWireStraddlingFramesHadamardResponse) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 10;
  opts.aggregator.num_shards = 3;
  auto mgr = OpenManager(config, store.get(), opts);
  CheckStraddlingFrames(*mgr, *store, config);
}

TEST_F(EpochManagerTest, SubmitWireStraddlingFramesOlh) {
  // OLH's estimator depends on user identity: the split must keep every
  // report with its own user index.
  const ProtocolConfig config = OlhConfig(16, 1.0, 77);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 10;
  opts.aggregator.num_shards = 3;
  auto mgr = OpenManager(config, store.get(), opts);
  CheckStraddlingFrames(*mgr, *store, config);
}

// A corrupt frame and a frame stamped for another protocol are each
// rejected whole: no report reaches a shard and the open epoch's count
// does not move.
TEST_F(EpochManagerTest, SubmitWireRejectsBadFramesWhole) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const auto reports = EncodeReports(config, 14, 29);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 10;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  ASSERT_TRUE(mgr->SubmitWire(Frame(config, reports, 0, 7)).ok());

  std::string corrupt = Frame(config, reports, 7, 14);
  corrupt.back() ^= 0x01;  // Payload byte: the CRC no longer matches.
  EXPECT_EQ(mgr->SubmitWire(corrupt).code(), StatusCode::kDecodeFailure);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 7u);

  const ProtocolConfig other = OracleConfig("k_rr", 32, 1.0);
  EXPECT_EQ(mgr->SubmitWire(Frame(other, reports, 7, 14)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 7u);
  EXPECT_EQ(mgr->current_epoch(), 0u);

  ASSERT_TRUE(mgr->CloseEpoch().ok());
  EXPECT_EQ(PersistedReportCount(*store, 0), 7u);
  auto window_or = mgr->WindowedQuery(0, 0);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, 7);
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

// The value of the unlabeled sample \p name in the /metrics exposition.
double ScrapeMetric(const std::string& name) {
  const std::string text = obs::MetricsRegistry::Global().DumpText();
  const std::string prefix = "\n" + name + " ";
  const size_t at = text.find(prefix);
  return at == std::string::npos
             ? 0.0
             : std::stod(text.substr(at + prefix.size()));
}

// The durable network path decodes through the aggregator's instrumented
// decode, so its frames show in the wire instruments, the
// ingest.submit_wire span family and /statusz like any other ingest.
TEST_F(EpochManagerTest, SubmitWireFeedsWireInstruments) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const auto reports = EncodeReports(config, 7, 37);
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 10;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());

  const std::shared_ptr<obs::SpanFamily> spans =
      obs::SpanSampler::Global().Family("ingest.submit_wire");
  const double bytes_before = ScrapeMetric("ldphh_ingest_wire_bytes_total");
  const double decodes_before =
      ScrapeMetric("ldphh_ingest_wire_decode_duration_ns_count");
  const double rejected_before =
      ScrapeMetric("ldphh_ingest_wire_rejected_batches_total");
  const uint64_t spans_before = spans->Count();

  const std::string frame = Frame(config, reports, 0, 7);
  ASSERT_TRUE(mgr->SubmitWire(frame).ok());
  EXPECT_EQ(ScrapeMetric("ldphh_ingest_wire_bytes_total") - bytes_before,
            static_cast<double>(frame.size()));
  EXPECT_EQ(
      ScrapeMetric("ldphh_ingest_wire_decode_duration_ns_count") -
          decodes_before,
      1.0);
  EXPECT_EQ(spans->Count() - spans_before, 1u);

  // /statusz: the open epoch's ingest section counts the frame's bits.
  obs::JsonValue statusz;
  ASSERT_TRUE(
      obs::ParseJson(obs::StatuszRegistry::Global().DumpJson(), &statusz).ok());
  const obs::JsonValue* sections = statusz.Find("sections");
  ASSERT_NE(sections, nullptr);
  const obs::JsonValue* ingest = sections->Find("ingest");
  ASSERT_NE(ingest, nullptr);
  ASSERT_EQ(ingest->array.size(), 1u);
  const obs::JsonValue* pm = ingest->array[0].Find("protocol_metrics");
  ASSERT_NE(pm, nullptr);
  ASSERT_NE(pm->Find("comm_bits_total"), nullptr);
  EXPECT_EQ(pm->Find("comm_bits_total")->number_value,
            static_cast<double>(8 * frame.size()));

  const ProtocolConfig other = OracleConfig("k_rr", 32, 1.0);
  EXPECT_FALSE(mgr->SubmitWire(Frame(other, reports, 0, 7)).ok());
  EXPECT_EQ(
      ScrapeMetric("ldphh_ingest_wire_rejected_batches_total") -
          rejected_before,
      1.0);
  EXPECT_EQ(ScrapeMetric("ldphh_ingest_wire_bytes_total") - bytes_before,
            static_cast<double>(frame.size()));
  ASSERT_TRUE(mgr->Close().ok());
}

// On SubmitWire the wall-clock roll is checked once per slice: a frame that
// arrives after the deadline lands whole in the old epoch, which then
// closes. (Submit is a slice of one, so it still rolls right after the
// first late report: WallClockRollClosesEpochMidCount.)
TEST_F(EpochManagerTest, SubmitWireWallClockRollKeepsFrameWhole) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 32, 1.0);
  const auto reports = EncodeReports(config, 14, 41);

  auto fake_now = std::make_shared<std::chrono::steady_clock::time_point>();
  auto store = OpenStore();
  EpochManagerOptions opts;
  opts.reports_per_epoch = 1 << 20;  // Count policy never fires here.
  opts.epoch_max_duration = std::chrono::milliseconds(1000);
  opts.clock = [fake_now] { return *fake_now; };
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());

  ASSERT_TRUE(mgr->SubmitWire(Frame(config, reports, 0, 7)).ok());
  EXPECT_EQ(mgr->current_epoch(), 0u);
  *fake_now += std::chrono::milliseconds(1500);
  ASSERT_TRUE(mgr->SubmitWire(Frame(config, reports, 7, 14)).ok());
  EXPECT_EQ(mgr->current_epoch(), 1u);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 0u);
  EXPECT_EQ(PersistedReportCount(*store, 0), 14u);

  auto window_or = mgr->WindowedQuery(0, 0);
  ASSERT_TRUE(window_or.ok());
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, 14);
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

// An epoch close is one durable write: the epoch blob and its clock record
// ride the store's group-commit lane as one member, so each CloseEpoch adds
// exactly one file sync. Default store options; their 1 MB segment never
// rolls here, so no roll's sync can hide in the count.
TEST_F(EpochManagerTest, CloseEpochPaysOneFileSync) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  FaultInjectingFileSystem fault_fs;
  CheckpointStoreOptions store_opts;
  store_opts.file_system = &fault_fs;
  auto store_or = CheckpointStore::Open("/faultfs/epochs", store_opts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  EpochManagerOptions opts;
  opts.reports_per_epoch = 1 << 20;  // Only the explicit closes below.
  opts.aggregator.num_shards = 2;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  const auto reports = EncodeReports(config, 3 * 400, 5);
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    for (size_t i = epoch * 400; i < (epoch + 1) * 400; ++i) {
      ASSERT_TRUE(mgr->Submit(reports[i]).ok());
    }
    const uint64_t before = fault_fs.file_sync_count();
    ASSERT_TRUE(mgr->CloseEpoch().ok());
    EXPECT_EQ(fault_fs.file_sync_count() - before, 1u) << "epoch " << epoch;
  }
  EXPECT_EQ(store->Stats().live_segments, 1u);  // Nothing rolled.
  EXPECT_EQ(store->Stats().group_commits, 3u);
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1, 2}));
  ASSERT_TRUE(mgr->Close().ok());
}

// A close whose store write fails must not wedge ingest. The sealed epoch
// is kept; while the fault lasts every later call retries its write and
// answers busy without ingesting; once the write lands the epoch persists
// holding exactly its own reports, and ingest carries on.
TEST_F(EpochManagerTest, FailedCloseIsRetriedThenIngestResumes) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  constexpr uint64_t kEpoch = 100;
  const auto reports = EncodeReports(config, 3 * kEpoch, 29);
  FaultInjectingFileSystem fault_fs;
  CheckpointStoreOptions store_opts;
  store_opts.file_system = &fault_fs;
  auto store_or = CheckpointStore::Open("/faultfs/failed_close", store_opts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpoch;
  opts.aggregator.num_shards = 2;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  for (uint64_t i = 0; i + 1 < kEpoch; ++i) {
    ASSERT_TRUE(mgr->Submit(reports[i]).ok());
  }

  fault_fs.set_fail_file_syncs(true);
  const Status failed = mgr->Submit(reports[kEpoch - 1]);  // Fills epoch 0.
  EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
  EXPECT_EQ(mgr->Submit(reports[kEpoch]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr->SubmitWire(Frame(config, reports, kEpoch, kEpoch + 7)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr->CloseEpoch().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr->PollClock().status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr->Close().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(mgr->PersistedEpochs().empty());
  EXPECT_EQ(mgr->current_epoch(), 0u);

  fault_fs.set_fail_file_syncs(false);
  // The first call lands epoch 0, then ingests into epoch 1.
  ASSERT_TRUE(mgr->SubmitWire(Frame(config, reports, kEpoch, kEpoch + 7)).ok());
  EXPECT_EQ(mgr->current_epoch(), 1u);
  EXPECT_EQ(mgr->reports_in_current_epoch(), 7u);
  for (uint64_t i = kEpoch + 7; i < 3 * kEpoch; ++i) {
    ASSERT_TRUE(mgr->Submit(reports[i]).ok()) << "report " << i;
  }
  ASSERT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1, 2}));
  for (uint64_t e = 0; e < 3; ++e) {
    EXPECT_EQ(PersistedReportCount(*store, e), kEpoch) << "epoch " << e;
    auto window_or = mgr->WindowedQuery(e, e);
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
    auto window = std::move(window_or).value();
    auto want = DirectAggregate(config, reports, e * kEpoch, (e + 1) * kEpoch);
    std::string got_state, want_state;
    ASSERT_TRUE(window->SerializeState(&got_state).ok());
    ASSERT_TRUE(want->SerializeState(&want_state).ok());
    EXPECT_EQ(got_state, want_state) << "epoch " << e;
    ExpectSameEstimates(*window, *want);
  }
  ASSERT_TRUE(mgr->Close().ok());
}

// The ISSUE acceptance criterion: a kill at every compaction phase loses no
// closed epoch — the windowed query over all epochs still matches the fresh
// aggregation bit for bit after recovery.
class EpochCompactionCrashTest
    : public EpochManagerTest,
      public testing::WithParamInterface<CheckpointStore::CompactionCrashPoint> {};

TEST_P(EpochCompactionCrashTest, NoClosedEpochLost) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  const uint64_t kEpochSize = 800;
  const uint64_t kEpochs = 8;
  const auto reports = EncodeReports(config, kEpochs * kEpochSize, 7);

  // Tiny segments so the epochs spread across many sealed segments.
  {
    auto store = OpenStore(1 << 10);
    EpochManagerOptions opts;
    opts.reports_per_epoch = kEpochSize;
    opts.aggregator.num_shards = 2;
    auto mgr = OpenManager(config, store.get(), opts);
    ASSERT_TRUE(mgr->Start().ok());
    for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
    ASSERT_GT(store->Stats().sealed_segments, 2u);

    store->set_crash_point_for_testing(GetParam());
    ASSERT_TRUE(store->Compact().ok());
    // Kill: neither the manager nor the store get a clean shutdown past
    // this point (the manager's open epoch holds zero reports here).
  }

  auto store = OpenStore(1 << 10);
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 2;
  auto mgr = OpenManager(config, store.get(), opts);
  ASSERT_TRUE(mgr->Start().ok());
  EXPECT_EQ(mgr->current_epoch(), kEpochs);

  std::vector<uint64_t> want_epochs;
  for (uint64_t e = 0; e < kEpochs; ++e) want_epochs.push_back(e);
  EXPECT_EQ(mgr->PersistedEpochs(), want_epochs);

  auto all_or = mgr->WindowedQuery(0, kEpochs - 1);
  ASSERT_TRUE(all_or.ok()) << all_or.status().ToString();
  auto all = std::move(all_or).value();
  auto want = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*all, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, EpochCompactionCrashTest,
    testing::Values(
        CheckpointStore::CompactionCrashPoint::kAfterConsolidatedSegment,
        CheckpointStore::CompactionCrashPoint::kAfterTempManifest,
        CheckpointStore::CompactionCrashPoint::kAfterManifestInstall));

}  // namespace
}  // namespace ldphh
