// Model-based randomized property test for the storage stack: thousands of
// seeded random Put/Delete/Compact/Keys/reopen operations driven against an
// in-memory reference map, on both a real POSIX temp directory and the
// fault-injecting in-memory filesystem (where reopens come with simulated
// power loss). After every recovery — and at checkpoints in between — the
// store must match the reference exactly: same keys, same bytes. A replica
// tails the same directory throughout and must match the reference at every
// refresh.
//
// Hand-enumerated scenarios (checkpoint_store_test, power_loss_test) pin
// down the known-interesting points; this suite walks the state space the
// enumeration cannot: random interleavings of rolls, compactions,
// tombstones, recoveries, and power cuts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/common/random.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

constexpr uint64_t kKeySpace = 32;   // Small: overwrites and re-deletes hit.
constexpr int kOpsPerSeed = 1200;
const uint64_t kSeeds[] = {7, 99, 1234, 0xdeadbeef};

std::string RandomBlob(Rng& rng) {
  const size_t size = rng.UniformU64(120);
  std::string blob;
  blob.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    blob.push_back(static_cast<char>(rng.UniformU64(256)));
  }
  return blob;
}

// One run of the state machine. `fault_fs` null means the POSIX temp dir.
class ModelRun {
 public:
  ModelRun(std::string dir, FaultInjectingFileSystem* fault_fs, uint64_t seed)
      : dir_(std::move(dir)), fault_fs_(fault_fs), rng_(seed) {}

  void Run() {
    Reopen("initial open");
    ReplicaStoreOptions ro;
    ro.file_system = fault_fs_;
    auto replica_or = ReplicaStore::Open(dir_, ro);
    ASSERT_TRUE(replica_or.ok()) << replica_or.status().ToString();
    replica_ = std::move(replica_or).value();

    for (int i = 0; i < kOpsPerSeed; ++i) {
      const uint64_t r = rng_.UniformU64(100);
      const std::string at = "op " + std::to_string(i);
      if (r < 55) {
        const uint64_t key = rng_.UniformU64(kKeySpace);
        const std::string blob = RandomBlob(rng_);
        ASSERT_TRUE(store_->Put(key, blob).ok()) << at;
        model_[key] = blob;
      } else if (r < 70) {
        const uint64_t key = rng_.UniformU64(kKeySpace);
        ASSERT_TRUE(store_->Delete(key).ok()) << at;
        model_.erase(key);
      } else if (r < 76) {
        ASSERT_TRUE(store_->Compact().ok()) << at;
      } else if (r < 82) {
        // Process restart: drop the store object, recover from disk.
        store_.reset();
        Reopen(at + " (reopen)");
        VerifyStore(at + " after reopen");
      } else if (r < 88 && fault_fs_ != nullptr) {
        // The lights go out: everything unsynced vanishes (plus a torn
        // prefix of an unsynced tail, sector-style), then recovery.
        store_.reset();
        fault_fs_->SimulatePowerLoss(rng_.UniformU64(48));
        Reopen(at + " (power loss)");
        VerifyStore(at + " after power loss");
      } else if (r < 94) {
        VerifyStore(at + " checkpoint");
      } else {
        VerifyReplica(at);
      }
      if (testing::Test::HasFatalFailure()) return;
    }

    // Final recovery + full equivalence, store and replica.
    store_.reset();
    if (fault_fs_ != nullptr) fault_fs_->SimulatePowerLoss();
    Reopen("final open");
    VerifyStore("final");
    VerifyReplica("final");
  }

 private:
  void Reopen(const std::string& context) {
    CheckpointStoreOptions o;
    o.segment_max_bytes = 300;  // A handful of records per segment.
    // Background compaction on odd seeds: the random walk also races the
    // compactor thread. Durability mode per backend: the POSIX run models
    // process crashes (no power loss), so flush-grade is enough and keeps
    // the walk fast; the fault run exercises the full fsync discipline.
    o.background_compaction = (rng_.UniformU64(2) == 1);
    o.sync_mode = fault_fs_ != nullptr ? SyncMode::kFull : SyncMode::kNone;
    o.file_system = fault_fs_;
    auto store_or = CheckpointStore::Open(dir_, o);
    ASSERT_TRUE(store_or.ok()) << context << ": " << store_or.status().ToString();
    store_ = std::move(store_or).value();
  }

  void VerifyStore(const std::string& context) {
    ASSERT_TRUE(store_ != nullptr) << context;
    std::vector<uint64_t> want_keys;
    for (const auto& [key, blob] : model_) want_keys.push_back(key);
    ASSERT_EQ(store_->Keys(), want_keys) << context;
    for (const auto& [key, blob] : model_) {
      std::string got;
      ASSERT_TRUE(store_->Get(key, &got).ok()) << context << " key " << key;
      ASSERT_EQ(got, blob) << context << " key " << key;
    }
    for (uint64_t key = 0; key < kKeySpace; ++key) {
      if (model_.count(key) == 0) {
        ASSERT_FALSE(store_->Contains(key)) << context << " key " << key;
      }
    }
  }

  void VerifyReplica(const std::string& context) {
    ASSERT_TRUE(store_ != nullptr);
    ASSERT_TRUE(store_->WaitForCompaction().ok()) << context;
    auto refreshed_or = replica_->Refresh();
    ASSERT_TRUE(refreshed_or.ok())
        << context << ": " << refreshed_or.status().ToString();
    std::vector<uint64_t> want_keys;
    for (const auto& [key, blob] : model_) want_keys.push_back(key);
    ASSERT_EQ(replica_->Keys(), want_keys) << context << " (replica)";
    for (const auto& [key, blob] : model_) {
      std::string got;
      ASSERT_TRUE(replica_->Get(key, &got).ok())
          << context << " (replica) key " << key;
      ASSERT_EQ(got, blob) << context << " (replica) key " << key;
    }
  }

  const std::string dir_;
  FaultInjectingFileSystem* const fault_fs_;
  Rng rng_;
  std::map<uint64_t, std::string> model_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<ReplicaStore> replica_;
};

class StoreModelTest : public testing::TestWithParam<bool> {};

TEST_P(StoreModelTest, RandomWalkMatchesReferenceModel) {
  const bool fault = GetParam();
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (fault) {
      FaultInjectingFileSystem ffs;
      ModelRun run("/faultfs/model", &ffs, seed);
      run.Run();
    } else {
      const std::string dir = testing::TempDir() + "/ldphh_model_" +
                              std::to_string(seed) + "_" +
                              std::to_string(::getpid());
      fs::remove_all(dir);
      ModelRun run(dir, nullptr, seed);
      run.Run();
      fs::remove_all(dir);
    }
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(PosixAndFaultInjected, StoreModelTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "FaultInjectedPowerLoss"
                                                   : "PosixTempDir";
                         });

// ------------------------------------------------ concurrent model walks ----

// Seeded multi-threaded Put/Delete/Apply walks: each thread owns a disjoint
// key range, so its private reference model stays exact with no cross-thread
// coordination, while the main thread compacts and scans the store under the
// writers' feet. Runs on POSIX and on the fault FS; after the walk — and
// again after a restart, with a simulated power loss on the fault FS — the
// store must equal the union of the thread models. (This is also the suite
// the TSan CI job runs against the group-commit leader/follower handoff.)
void RunConcurrentWalk(const std::string& dir,
                       FaultInjectingFileSystem* fault_fs, uint64_t seed) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 250;
  constexpr uint64_t kRangePerThread = 64;

  CheckpointStoreOptions o;
  o.segment_max_bytes = 1 << 10;  // Rolls mid-walk, also mid-group.
  o.background_compaction = true;
  o.sync_mode = fault_fs != nullptr ? SyncMode::kFull : SyncMode::kNone;
  o.file_system = fault_fs;
  o.group_max_records = 8;  // Small: the bound-crossing path runs too.
  auto store_or = CheckpointStore::Open(dir, o);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  std::vector<std::map<uint64_t, std::string>> models(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 131 + static_cast<uint64_t>(t));
      std::map<uint64_t, std::string>& model = models[t];
      const uint64_t base = static_cast<uint64_t>(t) * kRangePerThread;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t r = rng.UniformU64(100);
        const uint64_t key = base + rng.UniformU64(kRangePerThread);
        const std::string at =
            "thread " + std::to_string(t) + " op " + std::to_string(i);
        if (r < 50) {
          const std::string blob = RandomBlob(rng);
          ASSERT_TRUE(store->Put(key, blob).ok()) << at;
          model[key] = blob;
        } else if (r < 68) {
          ASSERT_TRUE(store->Delete(key).ok()) << at;
          model.erase(key);
        } else if (r < 84) {
          // A two-intent batch riding the lane as one member.
          const uint64_t other = base + rng.UniformU64(kRangePerThread);
          const std::string blob = RandomBlob(rng);
          std::vector<StoreWrite> batch(2);
          batch[0].key = key;
          batch[0].blob = blob;
          batch[1].is_delete = true;
          batch[1].key = other;
          ASSERT_TRUE(store->Apply(batch).ok()) << at;
          model[key] = blob;
          model.erase(other);  // In batch order: a self-pair ends deleted.
        } else {
          // Owner read: no other thread mutates this range, so the store
          // must agree with the private model even mid-hammer.
          const auto it = model.find(key);
          if (it != model.end()) {
            std::string got;
            ASSERT_TRUE(store->Get(key, &got).ok()) << at;
            ASSERT_EQ(got, it->second) << at;
          } else {
            ASSERT_FALSE(store->Contains(key)) << at;
          }
        }
      }
    });
  }
  // The main thread churns compactions and scans against the writers.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Compact().ok()) << "main compact " << i;
    (void)store->Keys();
    std::this_thread::yield();
  }
  for (std::thread& t : threads) t.join();
  if (testing::Test::HasFatalFailure()) return;

  std::map<uint64_t, std::string> merged;
  for (const auto& model : models) merged.insert(model.begin(), model.end());
  const auto verify = [&](CheckpointStore* s, const std::string& context) {
    std::vector<uint64_t> want_keys;
    for (const auto& [key, blob] : merged) want_keys.push_back(key);
    ASSERT_EQ(s->Keys(), want_keys) << context;
    for (const auto& [key, blob] : merged) {
      std::string got;
      ASSERT_TRUE(s->Get(key, &got).ok()) << context << " key " << key;
      ASSERT_EQ(got, blob) << context << " key " << key;
    }
  };
  verify(store.get(), "after walk");
  const CheckpointStoreStats stats = store->Stats();
  EXPECT_GT(stats.group_commit_writes, 0u);
  EXPECT_GE(stats.group_commit_writes, stats.group_commits);

  // Restart (with the lights going out on the fault FS): recovery must land
  // on exactly the acknowledged union.
  store.reset();
  if (fault_fs != nullptr) fault_fs->SimulatePowerLoss();
  store_or = CheckpointStore::Open(dir, o);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  verify(store_or.value().get(), "after restart");
}

class ConcurrentStoreModelTest : public testing::TestWithParam<bool> {};

TEST_P(ConcurrentStoreModelTest, ConcurrentWalkMatchesReferenceModel) {
  const bool fault = GetParam();
  for (const uint64_t seed : {uint64_t{11}, uint64_t{0xc0ffee}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (fault) {
      FaultInjectingFileSystem ffs;
      RunConcurrentWalk("/faultfs/concurrent", &ffs, seed);
    } else {
      const std::string dir = testing::TempDir() + "/ldphh_concurrent_" +
                              std::to_string(seed) + "_" +
                              std::to_string(::getpid());
      fs::remove_all(dir);
      RunConcurrentWalk(dir, nullptr, seed);
      fs::remove_all(dir);
    }
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConcurrentStoreModelTest, testing::Values(false, true),
    [](const testing::TestParamInfo<bool>& param_info) {
      return std::string(param_info.param ? "FaultInjected" : "PosixTempDir");
    });

}  // namespace
}  // namespace ldphh
