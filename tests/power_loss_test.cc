// Power-loss simulation suite (the ISSUE 3 acceptance criterion): every
// byte-to-disk path runs over FaultInjectingFileSystem, which drops all
// unsynced bytes and unsynced directory entries on SimulatePowerLoss().
// With SyncMode::kFull (or kData) the store must lose no acknowledged Put
// and no closed epoch — at every store mutation point, at every compaction
// phase, at every group-commit phase, and with torn unsynced tails.
// SyncMode::kNone is the negative control: unsynced data is allowed (and
// expected) to vanish, but never to corrupt.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/common/random.h"
#include "src/server/epoch_manager.h"
#include "src/server/replica_view.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"
#include "tests/serving_test_util.h"

namespace ldphh {
namespace {

using testutil::DirectAggregate;
using testutil::ExpectSameEstimates;
using testutil::MustCreate;
using testutil::OracleConfig;

// Uniform reports over the config's domain through a registry client.
std::vector<WireReport> UniformReports(const ProtocolConfig& config,
                                       uint64_t n, uint64_t seed) {
  const uint64_t domain = config.GetUintOr("domain", 64);
  auto client = MustCreate(config);
  Rng rng(seed);
  std::vector<WireReport> reports;
  reports.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    reports.push_back(
        client->Encode(i, DomainItem(rng.UniformU64(domain)), rng).value());
  }
  return reports;
}

constexpr char kDir[] = "/faultfs/store";

std::string Blob(uint64_t key, size_t size = 40) {
  std::string b = "blob-" + std::to_string(key) + "-";
  while (b.size() < size) b.push_back(static_cast<char>('a' + key % 26));
  return b;
}

CheckpointStoreOptions FaultOptions(FaultInjectingFileSystem* fs,
                                    SyncMode mode = SyncMode::kFull,
                                    size_t segment_max_bytes = 256) {
  CheckpointStoreOptions o;
  o.segment_max_bytes = segment_max_bytes;  // Small: rolls at every point.
  o.background_compaction = false;
  o.sync_mode = mode;
  o.file_system = fs;
  return o;
}

std::unique_ptr<CheckpointStore> MustOpen(const CheckpointStoreOptions& o) {
  auto store_or = CheckpointStore::Open(kDir, o);
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  return std::move(store_or).value();
}

// One deterministic store mutation: puts with overwrites and periodic
// deletes, mirrored into \p model.
struct Op {
  bool is_delete;
  uint64_t key;
  std::string blob;
};

std::vector<Op> MutationScript(size_t n) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    if (j % 5 == 4) {
      ops.push_back({true, j % 7, ""});
    } else {
      ops.push_back({false, j % 9, Blob(j, 32 + j % 48)});
    }
  }
  return ops;
}

void ApplyTo(CheckpointStore* store, std::map<uint64_t, std::string>* model,
             const Op& op) {
  if (op.is_delete) {
    ASSERT_TRUE(store->Delete(op.key).ok());
    model->erase(op.key);
  } else {
    ASSERT_TRUE(store->Put(op.key, op.blob).ok());
    (*model)[op.key] = op.blob;
  }
}

void ExpectMatchesModel(CheckpointStore* store,
                        const std::map<uint64_t, std::string>& model,
                        const std::string& context) {
  std::vector<uint64_t> want_keys;
  for (const auto& [key, blob] : model) want_keys.push_back(key);
  EXPECT_EQ(store->Keys(), want_keys) << context;
  for (const auto& [key, blob] : model) {
    std::string got;
    ASSERT_TRUE(store->Get(key, &got).ok()) << context << " key " << key;
    EXPECT_EQ(got, blob) << context << " key " << key;
  }
}

// ---------------------------------------------------------------- store ----

// Drop unsynced state after every single acknowledged mutation (the script
// crosses several segment rolls and MANIFEST installs): nothing acked may
// be lost, under full and under data-only sync.
class StorePowerLossEveryPointTest
    : public testing::TestWithParam<SyncMode> {};

TEST_P(StorePowerLossEveryPointTest, AckedMutationsSurvive) {
  const std::vector<Op> ops = MutationScript(48);
  for (size_t upto = 1; upto <= ops.size(); ++upto) {
    FaultInjectingFileSystem fs;
    std::map<uint64_t, std::string> model;
    {
      auto store = MustOpen(FaultOptions(&fs, GetParam()));
      for (size_t j = 0; j < upto; ++j) {
        ApplyTo(store.get(), &model, ops[j]);
      }
    }
    fs.SimulatePowerLoss();
    auto recovered = MustOpen(FaultOptions(&fs, GetParam()));
    ExpectMatchesModel(recovered.get(), model,
                       "power loss after op " + std::to_string(upto));
    // The store must stay fully writable after the loss.
    ASSERT_TRUE(recovered->Put(999, "post-loss").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(FullAndData, StorePowerLossEveryPointTest,
                         testing::Values(SyncMode::kFull, SyncMode::kData));

// Crash-phase matrix × power loss: kill the process at each compaction
// phase, then lose power on top of it. The MANIFEST install discipline
// (temp synced before rename, parent directory synced after) must make
// recovery land on exactly the acknowledged contents — a post-rename loss
// cannot resurrect the old MANIFEST or leave the new one dangling.
class CompactionPowerLossTest
    : public testing::TestWithParam<CheckpointStore::CompactionCrashPoint> {};

TEST_P(CompactionPowerLossTest, NoAckedEntryLostAcrossPhases) {
  FaultInjectingFileSystem fs;
  std::map<uint64_t, std::string> model;
  {
    auto store = MustOpen(FaultOptions(&fs));
    for (uint64_t k = 0; k < 40; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
      model[k] = Blob(k);
    }
    for (uint64_t k = 0; k < 40; k += 4) {
      ASSERT_TRUE(store->Put(k, Blob(k + 500)).ok());
      model[k] = Blob(k + 500);
    }
    ASSERT_TRUE(store->Delete(39).ok());
    model.erase(39);
    ASSERT_GT(store->Stats().sealed_segments, 2u);

    store->set_crash_point_for_testing(GetParam());
    ASSERT_TRUE(store->Compact().ok());
  }  // Kill: drop the store with files as-is...
  fs.SimulatePowerLoss();  // ...then the power goes too.

  auto recovered = MustOpen(FaultOptions(&fs));
  ExpectMatchesModel(recovered.get(), model, "compaction crash + power loss");

  // Converges and keeps working.
  ASSERT_TRUE(recovered->Compact().ok());
  EXPECT_EQ(recovered->Stats().sealed_segments, 1u);
  ASSERT_TRUE(recovered->Put(1000, "after").ok());
  recovered.reset();
  fs.SimulatePowerLoss();
  auto again = MustOpen(FaultOptions(&fs));
  model[1000] = "after";
  ExpectMatchesModel(again.get(), model, "second power loss");
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, CompactionPowerLossTest,
    testing::Values(
        CheckpointStore::CompactionCrashPoint::kNone,  // Completed pass.
        CheckpointStore::CompactionCrashPoint::kAfterConsolidatedSegment,
        CheckpointStore::CompactionCrashPoint::kAfterTempManifest,
        CheckpointStore::CompactionCrashPoint::kAfterManifestInstall));

// A torn unsynced tail — the prefix of an in-flight, never-acknowledged
// record that reached a sector before the lights went out — must read as a
// clean (or droppable) active-segment end, never cost an acked record, and
// stay gone across a *second* power loss (the recovery truncation is
// itself synced).
TEST(StorePowerLossTest, TornUnsyncedTailNeverCostsAckedPuts) {
  for (size_t keep = 0; keep < 64; keep += 3) {
    FaultInjectingFileSystem fs;
    {
      // Big segments: all writes land in one active segment file.
      auto store = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 20));
      ASSERT_TRUE(store->Put(1, Blob(1)).ok());
      ASSERT_TRUE(store->Put(2, Blob(2)).ok());
    }
    // The in-flight record the crash interrupted: unsynced bytes appended
    // to the active segment that no caller was ever acked for.
    {
      auto file_or =
          fs.NewWritableFile(std::string(kDir) + "/000001.seg");
      ASSERT_TRUE(file_or.ok());
      auto file = std::move(file_or).value();
      std::string in_flight(64, '\x5a');
      ASSERT_TRUE(file->Append(in_flight).ok());  // No Sync: in flight.
      ASSERT_TRUE(file->Close().ok());
    }
    fs.SimulatePowerLoss(keep);
    auto recovered = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 20));
    std::string blob;
    ASSERT_TRUE(recovered->Get(1, &blob).ok()) << "keep " << keep;
    EXPECT_EQ(blob, Blob(1));
    ASSERT_TRUE(recovered->Get(2, &blob).ok()) << "keep " << keep;
    EXPECT_EQ(blob, Blob(2));
    EXPECT_EQ(recovered->Keys().size(), 2u) << "keep " << keep;
    recovered.reset();
    fs.SimulatePowerLoss();  // The truncated tail must not resurrect.
    auto again = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 20));
    ASSERT_TRUE(again->Get(2, &blob).ok()) << "keep " << keep;
    EXPECT_EQ(blob, Blob(2));
  }
}

// Regression (found by the store model suite, tests/store_model_test.cc):
// a process restart leaves an empty active segment whose directory entry
// was created by the previous incarnation but never synced (no record was
// ever written to it). The re-opened writer must still sync the entry
// before acknowledging records — "the file exists" in the volatile
// namespace proves nothing — or every fsync'd record vanishes with the
// file on power loss.
TEST(StorePowerLossTest, RestartWithEmptyActiveSegmentThenPowerLoss) {
  FaultInjectingFileSystem fs;
  std::map<uint64_t, std::string> model;
  {
    auto store = MustOpen(FaultOptions(&fs));
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
      model[k] = Blob(k);
    }
  }
  // Restart twice with no writes in between: the second Open keeps the
  // first restart's rolled-but-empty active segment (created, entry never
  // synced). No power loss yet — the volatile namespace carries the entry.
  { auto store = MustOpen(FaultOptions(&fs)); }
  {
    auto store = MustOpen(FaultOptions(&fs));
    ASSERT_TRUE(store->Put(50, "post-restart").ok());
    ASSERT_TRUE(store->Delete(0).ok());
    model[50] = "post-restart";
    model.erase(0);
  }
  fs.SimulatePowerLoss();
  auto recovered = MustOpen(FaultOptions(&fs));
  ExpectMatchesModel(recovered.get(), model,
                     "restart + empty active + power loss");
}

// Negative control: under SyncMode::kNone nothing is ever synced, so a
// power loss may take everything — but recovery must still come up clean
// (an empty store, not a corrupt one), and no fsync may have been issued.
TEST(StorePowerLossTest, SyncModeNoneLosesUnsyncedDataCleanly) {
  FaultInjectingFileSystem fs;
  {
    auto store = MustOpen(FaultOptions(&fs, SyncMode::kNone));
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    }
  }
  EXPECT_EQ(fs.file_sync_count(), 0u);
  EXPECT_EQ(fs.dir_sync_count(), 0u);
  fs.SimulatePowerLoss();
  auto recovered = MustOpen(FaultOptions(&fs, SyncMode::kNone));
  EXPECT_TRUE(recovered->Keys().empty());
}

// ---------------------------------------------------------- group commit ----

CheckpointStoreOptions GroupFaultOptions(FaultInjectingFileSystem* fs) {
  CheckpointStoreOptions o = FaultOptions(fs, SyncMode::kFull, 1 << 12);
  o.group_max_records = 16;  // Small: groups cross the bound mid-hammer.
  return o;
}

// N concurrent writers — even-numbered ones issuing single Puts, odd ones
// two-intent Apply batches — while the group-commit lane is killed at each
// phase (group formed, a torn leader append, appended-but-unsynced,
// synced-but-never-acknowledged) and the power then goes out, optionally
// tearing the unsynced tail mid-record. Invariants after recovery: every
// write that observed ok() survives byte-for-byte; an acked Apply batch
// survives whole; nothing survives that was never written; and within a
// batch the on-disk survival is a prefix — the second intent never
// outlives the first. kNone is the control: no kill, everything acked.
class GroupCommitPowerLossTest
    : public testing::TestWithParam<CheckpointStore::GroupCrashPoint> {};

TEST_P(GroupCommitPowerLossTest, AckedGroupWritesSurviveEveryPhase) {
  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 48;
  constexpr uint64_t kPairStride = 100000;
  for (const size_t keep : {size_t{0}, size_t{23}}) {
    FaultInjectingFileSystem fs;
    std::vector<std::vector<uint64_t>> acked(kWriters);
    std::map<uint64_t, std::string> baseline;
    {
      auto store = MustOpen(GroupFaultOptions(&fs));
      // Committed state from before the crash window: must never be lost.
      for (uint64_t k = 0; k < 8; ++k) {
        ASSERT_TRUE(store->Put(900000 + k, Blob(900000 + k)).ok());
        baseline[900000 + k] = Blob(900000 + k);
      }
      store->set_group_crash_point_for_testing(GetParam());
      std::vector<std::thread> writers;
      writers.reserve(kWriters);
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          for (int i = 0; i < kOpsPerWriter; ++i) {
            const uint64_t key = static_cast<uint64_t>(w) * 1000 + i;
            Status st;
            if (w % 2 == 0) {
              st = store->Put(key, Blob(key));
            } else {
              const std::string first = Blob(key);
              const std::string second = Blob(key + kPairStride);
              std::vector<StoreWrite> batch(2);
              batch[0].key = key;
              batch[0].blob = first;
              batch[1].key = key + kPairStride;
              batch[1].blob = second;
              st = store->Apply(batch);
            }
            if (!st.ok()) break;  // Simulated kill: the store is down.
            acked[w].push_back(key);
          }
        });
      }
      for (std::thread& t : writers) t.join();
    }  // Drop the killed store with files as-is...
    fs.SimulatePowerLoss(keep);  // ...then the power goes too.

    const std::string context = "phase " +
                                std::to_string(static_cast<int>(GetParam())) +
                                " keep " + std::to_string(keep);
    auto recovered = MustOpen(GroupFaultOptions(&fs));
    for (const auto& [key, blob] : baseline) {
      std::string got;
      ASSERT_TRUE(recovered->Get(key, &got).ok()) << context << " key " << key;
      EXPECT_EQ(got, blob) << context;
    }
    for (int w = 0; w < kWriters; ++w) {
      for (uint64_t key : acked[w]) {
        std::string got;
        ASSERT_TRUE(recovered->Get(key, &got).ok())
            << context << " acked key " << key << " writer " << w;
        EXPECT_EQ(got, Blob(key)) << context;
        if (w % 2 == 1) {
          // An acked batch is durable whole, never half.
          ASSERT_TRUE(recovered->Get(key + kPairStride, &got).ok())
              << context << " acked batch sibling of " << key;
          EXPECT_EQ(got, Blob(key + kPairStride)) << context;
        }
      }
    }

    // Whatever else survived (synced-but-unacked groups, torn-tail debris
    // recovery replayed) must be something a writer actually attempted,
    // with the exact bytes that writer wrote.
    std::set<uint64_t> attempted;
    for (const auto& [key, blob] : baseline) attempted.insert(key);
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const uint64_t key = static_cast<uint64_t>(w) * 1000 + i;
        attempted.insert(key);
        if (w % 2 == 1) attempted.insert(key + kPairStride);
      }
    }
    for (uint64_t key : recovered->Keys()) {
      EXPECT_EQ(attempted.count(key), 1u) << context << " alien key " << key;
      std::string got;
      ASSERT_TRUE(recovered->Get(key, &got).ok()) << context;
      EXPECT_EQ(got, Blob(key)) << context << " key " << key;
    }
    // Batch records land contiguously in one segment, so survival within a
    // batch is a prefix: the second intent never outlives the first.
    for (int w = 1; w < kWriters; w += 2) {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const uint64_t key = static_cast<uint64_t>(w) * 1000 + i;
        if (recovered->Contains(key + kPairStride)) {
          EXPECT_TRUE(recovered->Contains(key))
              << context << " half-applied batch at key " << key;
        }
      }
    }

    // The recovered store keeps writing through the lane.
    ASSERT_TRUE(recovered->Put(999999, "post-loss").ok());

    if (GetParam() == CheckpointStore::GroupCrashPoint::kNone) {
      // Control: nothing was killed, so every op was acked.
      for (int w = 0; w < kWriters; ++w) {
        EXPECT_EQ(acked[w].size(), static_cast<size_t>(kOpsPerWriter))
            << context;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, GroupCommitPowerLossTest,
    testing::Values(CheckpointStore::GroupCrashPoint::kNone,
                    CheckpointStore::GroupCrashPoint::kAfterEnqueue,
                    CheckpointStore::GroupCrashPoint::kAfterPartialAppend,
                    CheckpointStore::GroupCrashPoint::kAfterAppendPreSync,
                    CheckpointStore::GroupCrashPoint::kAfterSyncPreNotify));

// ---------------------------------------------------------------- epochs ----

// The durability contract of the epoch layer under power loss: every
// closed epoch survives, bit for bit — the windowed query over the
// recovered store matches a fresh single-threaded aggregation.
TEST(EpochPowerLossTest, ClosedEpochsSurviveBitForBit) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  const uint64_t kEpochSize = 700;
  const auto reports = UniformReports(config, 4 * kEpochSize, 7);

  FaultInjectingFileSystem fs;
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 2;
  {
    auto store = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 10));
    auto mgr = std::move(EpochManager::Create(config, store.get(), opts)).value();
    ASSERT_TRUE(mgr->Start().ok());
    // 3 closed epochs plus half an open one; the open half is unacked.
    for (size_t i = 0; i < 3 * kEpochSize + kEpochSize / 2; ++i) {
      ASSERT_TRUE(mgr->Submit(reports[i]).ok());
    }
  }
  fs.SimulatePowerLoss();

  auto store = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 10));
  auto mgr = std::move(EpochManager::Create(config, store.get(), opts)).value();
  ASSERT_TRUE(mgr->Start().ok());
  EXPECT_EQ(mgr->current_epoch(), 3u);
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1, 2}));

  auto window_or = mgr->WindowedQuery(0, 2);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, 3 * kEpochSize);
  ExpectSameEstimates(*window, *want);
  ASSERT_TRUE(mgr->Close().ok());
}

// --------------------------------------------------------------- replica ----

ReplicaStoreOptions FaultReplicaOptions(FaultInjectingFileSystem* fs) {
  ReplicaStoreOptions o;
  o.file_system = fs;
  return o;
}

void ExpectReplicaMatchesModel(ReplicaStore* replica,
                               const std::map<uint64_t, std::string>& model,
                               const std::string& context) {
  std::vector<uint64_t> want_keys;
  for (const auto& [key, blob] : model) want_keys.push_back(key);
  EXPECT_EQ(replica->Keys(), want_keys) << context;
  for (const auto& [key, blob] : model) {
    std::string got;
    ASSERT_TRUE(replica->Get(key, &got).ok()) << context << " key " << key;
    EXPECT_EQ(got, blob) << context << " key " << key;
  }
}

// Kill the primary after every single acknowledged mutation — crossing
// segment rolls and MANIFEST installs — while a replica is mid-tail, then
// lose power on top. The replica (both the survivor re-polling the
// post-loss directory and a fresh one opened on the crash debris, before
// any primary recovery) must land on exactly the acknowledged state: it
// can never observe a state the primary never durably committed, and every
// mid-tail snapshot it served along the way was one of the committed
// prefixes.
TEST(ReplicaPowerLossTest, TailNeverObservesUncommittedState) {
  const std::vector<Op> ops = MutationScript(48);
  for (size_t upto = 1; upto <= ops.size(); upto += 3) {
    FaultInjectingFileSystem fs;
    std::map<uint64_t, std::string> model;
    std::unique_ptr<ReplicaStore> replica;
    {
      auto store = MustOpen(FaultOptions(&fs));
      auto replica_or = ReplicaStore::Open(kDir, FaultReplicaOptions(&fs));
      ASSERT_TRUE(replica_or.ok()) << replica_or.status().ToString();
      replica = std::move(replica_or).value();
      for (size_t j = 0; j < upto; ++j) {
        ApplyTo(store.get(), &model, ops[j]);
        if (j % 5 == 2) {
          // Mid-tail poll between acknowledged ops: the snapshot must be
          // exactly the committed state at this point.
          ASSERT_TRUE(replica->Refresh().ok());
          ExpectReplicaMatchesModel(
              replica.get(), model,
              "mid-tail op " + std::to_string(j) + "/" + std::to_string(upto));
        }
      }
    }  // Kill the primary with files as-is...
    fs.SimulatePowerLoss();  // ...then the power goes too.

    // The surviving replica re-polls the post-loss directory.
    auto refreshed_or = replica->Refresh();
    ASSERT_TRUE(refreshed_or.ok()) << refreshed_or.status().ToString();
    ExpectReplicaMatchesModel(replica.get(), model,
                              "survivor after op " + std::to_string(upto));

    // A fresh replica serves straight off the crash debris — torn active
    // tails, uninstalled MANIFEST.tmp, orphan segments and all — with no
    // primary recovery having run.
    auto fresh_or = ReplicaStore::Open(kDir, FaultReplicaOptions(&fs));
    ASSERT_TRUE(fresh_or.ok()) << fresh_or.status().ToString();
    ExpectReplicaMatchesModel(fresh_or.value().get(), model,
                              "fresh on debris after op " +
                                  std::to_string(upto));

    // The primary recovers (sweeps, seals, rolls) and keeps writing; both
    // replicas follow.
    auto recovered = MustOpen(FaultOptions(&fs));
    ASSERT_TRUE(recovered->Put(999, "post-loss").ok());
    model[999] = "post-loss";
    ASSERT_TRUE(replica->Refresh().ok());
    ExpectReplicaMatchesModel(replica.get(), model,
                              "survivor after recovery");
  }
}

// Crash-phase matrix × power loss with a replica mid-tail: kill the
// primary at each compaction phase while the replica tails, lose power,
// and check the replica (survivor and fresh-on-debris) against the model
// at every stage — including after the primary recovers and converges.
class ReplicaCompactionPowerLossTest
    : public testing::TestWithParam<CheckpointStore::CompactionCrashPoint> {};

TEST_P(ReplicaCompactionPowerLossTest, ReplicaRidesEveryPhase) {
  FaultInjectingFileSystem fs;
  std::map<uint64_t, std::string> model;
  std::unique_ptr<ReplicaStore> replica;
  {
    auto store = MustOpen(FaultOptions(&fs));
    auto replica_or = ReplicaStore::Open(kDir, FaultReplicaOptions(&fs));
    ASSERT_TRUE(replica_or.ok());
    replica = std::move(replica_or).value();
    for (uint64_t k = 0; k < 40; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
      model[k] = Blob(k);
      if (k % 10 == 5) {
        ASSERT_TRUE(replica->Refresh().ok());
      }
    }
    for (uint64_t k = 0; k < 40; k += 4) {
      ASSERT_TRUE(store->Put(k, Blob(k + 500)).ok());
      model[k] = Blob(k + 500);
    }
    ASSERT_TRUE(store->Delete(39).ok());
    model.erase(39);
    ASSERT_GT(store->Stats().sealed_segments, 2u);

    store->set_crash_point_for_testing(GetParam());
    ASSERT_TRUE(store->Compact().ok());
    // The replica polls the directory the interrupted compaction left.
    ASSERT_TRUE(replica->Refresh().ok());
    ExpectReplicaMatchesModel(replica.get(), model, "post-crash-point tail");
  }  // Kill the primary...
  fs.SimulatePowerLoss();  // ...and the power.

  ASSERT_TRUE(replica->Refresh().ok());
  ExpectReplicaMatchesModel(replica.get(), model, "survivor post-loss");
  auto fresh_or = ReplicaStore::Open(kDir, FaultReplicaOptions(&fs));
  ASSERT_TRUE(fresh_or.ok()) << fresh_or.status().ToString();
  ExpectReplicaMatchesModel(fresh_or.value().get(), model, "fresh on debris");

  // Primary recovery converges the directory; the replicas follow through
  // the recovery-installed MANIFEST and the completed re-compaction.
  auto recovered = MustOpen(FaultOptions(&fs));
  ASSERT_TRUE(recovered->Compact().ok());
  ASSERT_TRUE(recovered->Put(1000, "after").ok());
  model[1000] = "after";
  ASSERT_TRUE(replica->Refresh().ok());
  ExpectReplicaMatchesModel(replica.get(), model, "survivor post-recovery");
  ASSERT_TRUE(fresh_or.value()->Refresh().ok());
  ExpectReplicaMatchesModel(fresh_or.value().get(), model,
                            "fresh post-recovery");
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, ReplicaCompactionPowerLossTest,
    testing::Values(
        CheckpointStore::CompactionCrashPoint::kNone,
        CheckpointStore::CompactionCrashPoint::kAfterConsolidatedSegment,
        CheckpointStore::CompactionCrashPoint::kAfterTempManifest,
        CheckpointStore::CompactionCrashPoint::kAfterManifestInstall));

// Epoch-level: a ReplicaView keeps serving closed epochs bit-for-bit across
// the primary's death and a power loss — the windowed answer over the
// post-loss directory equals a crash-free single-threaded aggregation.
TEST(EpochPowerLossTest, ReplicaViewServesClosedEpochsAcrossPowerLoss) {
  const ProtocolConfig config = OracleConfig("hadamard_response", 64, 1.0);
  const uint64_t kEpochSize = 500;
  const auto reports = UniformReports(config, 3 * kEpochSize, 21);

  FaultInjectingFileSystem fs;
  EpochManagerOptions opts;
  opts.reports_per_epoch = kEpochSize;
  opts.aggregator.num_shards = 2;
  std::unique_ptr<ReplicaStore> replica;
  {
    auto store = MustOpen(FaultOptions(&fs, SyncMode::kFull, 1 << 10));
    auto mgr = std::move(EpochManager::Create(config, store.get(), opts)).value();
    ASSERT_TRUE(mgr->Start().ok());
    for (size_t i = 0; i < reports.size(); ++i) {
      ASSERT_TRUE(mgr->Submit(reports[i]).ok());
      if (i == kEpochSize + 3) {
        // Tail up mid-stream, one closed epoch in.
        auto replica_or = ReplicaStore::Open(kDir, FaultReplicaOptions(&fs));
        ASSERT_TRUE(replica_or.ok());
        replica = std::move(replica_or).value();
      }
    }
  }
  fs.SimulatePowerLoss();

  // The view needs no protocol config: the epoch blobs are self-describing.
  ReplicaView view(replica.get());
  ASSERT_TRUE(view.Refresh().ok());
  EXPECT_EQ(view.PersistedEpochs(), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(view.next_epoch(), 3u);
  auto window_or = view.WindowedQuery(0, 2);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  auto window = std::move(window_or).value();
  auto want = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*window, *want);
}

}  // namespace
}  // namespace ldphh
