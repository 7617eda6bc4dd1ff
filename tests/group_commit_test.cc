// The group-commit lane of CheckpointStore (the leveldb writer-queue
// idiom), the store's only write path: deterministic sync-coalescing
// contract (one fsync for a whole batch), failed-group semantics (one bad
// sync fails every member, trips the write-health latch so /healthz goes
// 503, heals on the next good group), crash-abort semantics, single-writer
// equivalence with a reference model, and a multi-writer hammer the TSan
// CI job runs against the leader/follower handoff.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/server/admin_server.h"
#include "src/store/checkpoint_store.h"

namespace ldphh {
namespace {

constexpr char kDir[] = "/faultfs/group";

std::string Blob(uint64_t key, size_t size = 48) {
  std::string b = "group-" + std::to_string(key) + "-";
  while (b.size() < size) b.push_back(static_cast<char>('a' + key % 26));
  return b;
}

CheckpointStoreOptions GroupOptions(FaultInjectingFileSystem* fs,
                                    size_t segment_max_bytes = 1 << 20) {
  CheckpointStoreOptions o;
  o.segment_max_bytes = segment_max_bytes;
  o.background_compaction = false;
  o.sync_mode = SyncMode::kFull;
  o.file_system = fs;
  return o;
}

std::unique_ptr<CheckpointStore> MustOpen(const std::string& dir,
                                          const CheckpointStoreOptions& o) {
  auto store_or = CheckpointStore::Open(dir, o);
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  return std::move(store_or).value();
}

// Minimal HTTP client for the /healthz assertions (the AdminServer always
// closes the connection, so read-to-EOF terminates).
std::string HttpGet(uint16_t port, const std::string& path) {
  const std::string raw = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

int StatusCodeOf(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.substr(9, 3).c_str());
}

// The heart of the perf claim, pinned deterministically: a multi-intent
// batch through the lane costs exactly ONE file sync under kFull, not one
// per intent.
TEST(GroupCommit, BatchCostsOneSync) {
  std::vector<StoreWrite> writes(5);
  std::vector<std::string> blobs;
  blobs.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    blobs.push_back(Blob(i));
    writes[i].key = i;
    writes[i].blob = blobs[i];
  }

  FaultInjectingFileSystem grouped_fs;
  {
    auto store = MustOpen("/faultfs/grouped", GroupOptions(&grouped_fs));
    const uint64_t before = grouped_fs.file_sync_count();
    ASSERT_TRUE(store->Apply(writes).ok());
    EXPECT_EQ(grouped_fs.file_sync_count() - before, 1u);
    const CheckpointStoreStats stats = store->Stats();
    EXPECT_EQ(stats.group_commits, 1u);
    EXPECT_EQ(stats.group_commit_writes, writes.size());
    EXPECT_EQ(stats.entries, writes.size());
  }
}

// A batch bigger than group_max_records still commits whole — the bounds
// stop a group from absorbing MORE writers, they never split one member.
TEST(GroupCommit, OversizedBatchCommitsWhole) {
  FaultInjectingFileSystem fs;
  CheckpointStoreOptions o = GroupOptions(&fs);
  o.group_max_records = 4;
  auto store = MustOpen(kDir, o);
  std::vector<std::string> blobs;
  std::vector<StoreWrite> writes(10);
  blobs.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    blobs.push_back(Blob(i));
    writes[i].key = i;
    writes[i].blob = blobs[i];
  }
  ASSERT_TRUE(store->Apply(writes).ok());
  const CheckpointStoreStats stats = store->Stats();
  EXPECT_EQ(stats.group_commits, 1u);
  EXPECT_EQ(stats.group_commit_writes, writes.size());
  EXPECT_EQ(store->Keys().size(), writes.size());
}

// With a single writer every group is a group of one: the store must land
// on exactly the state of a reference map driven by the same script, across
// segment rolls, tombstones and a power loss.
TEST(GroupCommit, SingleWriterMatchesReferenceModelExactly) {
  std::map<uint64_t, std::string> model;
  FaultInjectingFileSystem fs;
  {
    auto store = MustOpen(kDir, GroupOptions(&fs, size_t{1} << 11));
    for (uint64_t k = 0; k < 60; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
      model[k] = Blob(k);
    }
    for (uint64_t k = 0; k < 60; k += 3) {
      ASSERT_TRUE(store->Delete(k).ok());
      model.erase(k);
    }
    for (uint64_t k = 1; k < 60; k += 6) {
      ASSERT_TRUE(store->Put(k, Blob(k + 77)).ok());
      model[k] = Blob(k + 77);
    }
    const CheckpointStoreStats stats = store->Stats();
    EXPECT_EQ(stats.group_commits, stats.group_commit_writes);
    EXPECT_GT(stats.live_segments, 1u);  // The script crossed a roll.
  }
  fs.SimulatePowerLoss();
  auto recovered = MustOpen(kDir, GroupOptions(&fs, size_t{1} << 11));
  std::map<uint64_t, std::string> state;
  for (uint64_t key : recovered->Keys()) {
    std::string blob;
    EXPECT_TRUE(recovered->Get(key, &blob).ok());
    state[key] = blob;
  }
  EXPECT_EQ(state, model);
  EXPECT_FALSE(state.empty());
}

// One failed group sync surfaces an error Status to EVERY writer parked in
// that group, trips the store write-health latch — /healthz goes 503 and
// names the store — and the latch heals on the next successful group.
TEST(GroupCommit, FailedGroupSyncFailsEveryMemberTripsHealthzAndHeals) {
  auto server_or = AdminServer::Start({});
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();
  const uint16_t port = server->port();

  FaultInjectingFileSystem fs;
  const std::string dir = "/faultfs/group-health";
  auto store = MustOpen(dir, GroupOptions(&fs));
  ASSERT_TRUE(store->Put(1, "healthy").ok());
  EXPECT_EQ(StatusCodeOf(HttpGet(port, "/healthz")), 200);

  // The disk stops honoring fsync. Every concurrent writer must see its
  // own error — followers included: the leader's failed sync is theirs too.
  fs.set_fail_file_syncs(true);
  constexpr int kWriters = 6;
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const uint64_t key = 100 + static_cast<uint64_t>(w);
        if (!store->Put(key, Blob(key)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  EXPECT_EQ(failures.load(), kWriters);
  {
    const std::string response = HttpGet(port, "/healthz");
    EXPECT_EQ(StatusCodeOf(response), 503) << response;
    EXPECT_NE(response.find("store:" + dir), std::string::npos) << response;
  }

  // The fault clears: the next groups commit, every writer is acked, and
  // the health latch heals.
  fs.set_fail_file_syncs(false);
  std::atomic<int> successes{0};
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const uint64_t key = 200 + static_cast<uint64_t>(w);
        if (store->Put(key, Blob(key)).ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  EXPECT_EQ(successes.load(), kWriters);
  EXPECT_EQ(StatusCodeOf(HttpGet(port, "/healthz")), 200);

  // Nothing acked before the fault was harmed, and the healed writes are
  // durable: a power loss keeps them all.
  store.reset();
  fs.SimulatePowerLoss();
  auto recovered = MustOpen(dir, GroupOptions(&fs));
  std::string got;
  ASSERT_TRUE(recovered->Get(1, &got).ok());
  EXPECT_EQ(got, "healthy");
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t key = 200 + static_cast<uint64_t>(w);
    ASSERT_TRUE(recovered->Get(key, &got).ok()) << "key " << key;
    EXPECT_EQ(got, Blob(key));
  }
}

// An armed group crash point aborts the consuming group AND every writer
// parked behind it, and the store refuses further group writes until
// reopened — the in-memory state no longer matches the log.
TEST(GroupCommit, CrashPointAbortsAllQueuedWritersUntilReopen) {
  FaultInjectingFileSystem fs;
  auto store = MustOpen(kDir, GroupOptions(&fs));
  ASSERT_TRUE(store->Put(1, "before").ok());
  store->set_group_crash_point_for_testing(
      CheckpointStore::GroupCrashPoint::kAfterAppendPreSync);
  EXPECT_FALSE(store->Put(2, "doomed").ok());
  EXPECT_FALSE(store->Put(3, "also down").ok());  // Down until reopen.
  store.reset();

  auto reopened = MustOpen(kDir, GroupOptions(&fs));
  std::string got;
  ASSERT_TRUE(reopened->Get(1, &got).ok());
  EXPECT_EQ(got, "before");
  // The doomed record was never acked; appended-but-unsynced bytes may or
  // may not land (here, no power loss, so the in-memory FS kept them) —
  // either way the value must be exact and the store writable.
  if (reopened->Contains(2)) {
    ASSERT_TRUE(reopened->Get(2, &got).ok());
    EXPECT_EQ(got, "doomed");
  }
  ASSERT_TRUE(reopened->Put(4, "after").ok());
}

// Multi-writer hammer across segment rolls and group bounds (the TSan CI
// target): disjoint per-thread key ranges hammered through Put/Delete/
// Apply, with every intent accounted for in the lane counters and the
// whole state surviving a power loss.
TEST(GroupCommit, HammerNothingLostAndEveryIntentCounted) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  constexpr uint64_t kRange = 1000;

  FaultInjectingFileSystem fs;
  CheckpointStoreOptions o = GroupOptions(&fs, size_t{1} << 12);
  o.group_max_records = 8;
  auto store = MustOpen(kDir, o);

  std::vector<std::map<uint64_t, std::string>> models(kThreads);
  std::atomic<uint64_t> intents{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::map<uint64_t, std::string>& model = models[t];
        const uint64_t base = static_cast<uint64_t>(t) * kRange;
        for (int i = 0; i < kOpsPerThread; ++i) {
          const uint64_t key = base + static_cast<uint64_t>(i) % 37;
          if (i % 7 == 3) {
            ASSERT_TRUE(store->Delete(key).ok());
            model.erase(key);
            intents.fetch_add(1, std::memory_order_relaxed);
          } else if (i % 7 == 5) {
            const std::string first = Blob(key + 7000);
            const std::string second = Blob(key + 9000);
            std::vector<StoreWrite> batch(2);
            batch[0].key = key;
            batch[0].blob = first;
            batch[1].key = key + 500;
            batch[1].blob = second;
            ASSERT_TRUE(store->Apply(batch).ok());
            model[key] = first;
            model[key + 500] = second;
            intents.fetch_add(2, std::memory_order_relaxed);
          } else {
            ASSERT_TRUE(store->Put(key, Blob(key + i)).ok());
            model[key] = Blob(key + i);
            intents.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_FALSE(testing::Test::HasFatalFailure());

  const CheckpointStoreStats stats = store->Stats();
  EXPECT_EQ(stats.group_commit_writes, intents.load());
  EXPECT_GE(stats.group_commit_writes, stats.group_commits);
  EXPECT_GT(stats.group_commits, 0u);

  std::map<uint64_t, std::string> merged;
  for (const auto& model : models) merged.insert(model.begin(), model.end());
  store.reset();
  fs.SimulatePowerLoss();
  auto recovered = MustOpen(kDir, o);
  std::vector<uint64_t> want_keys;
  for (const auto& [key, blob] : merged) want_keys.push_back(key);
  ASSERT_EQ(recovered->Keys(), want_keys);
  for (const auto& [key, blob] : merged) {
    std::string got;
    ASSERT_TRUE(recovered->Get(key, &got).ok()) << "key " << key;
    EXPECT_EQ(got, blob) << "key " << key;
  }
}

}  // namespace
}  // namespace ldphh
