// Storage-path throughput: checkpoint (epoch) writes, recovery replay, and
// segment compaction through CheckpointStore, plus the CRC32C kernel that
// sits under every record append and replay.
//
//   ./bench_store --benchmark_counters_tabular=true
//
// The acceptance metrics are BM_StorePut (epochs/s = items_per_second,
// MB/s = bytes_per_second), BM_StoreRecovery (replayed epochs/s), and
// BM_StoreCompaction (consolidated MB/s). BM_StorePut runs one column per
// SyncMode (none/data/full) so the fsync cost of power-loss durability is
// on the record — see docs/storage.md for reference numbers. The
// BM_StorePutGroupCommit columns measure 1 and 8 concurrent
// acknowledged-durable writers through the group-commit lane (every store
// write's path); their syncs_per_put counter is the coalescing ratio
// (group commits per acked intent). The replica
// columns (BM_ReplicaTailCatchup / BM_ReplicaIdlePoll / BM_ReplicaGet)
// measure the read-only follower: tail-lag absorption per poll, the idle
// poll floor, and snapshot read throughput.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/metrics_dump.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

// A representative epoch snapshot: the serialized state of a 64-bin oracle
// plus the envelope is O(1 KB); the 16 KB variant models wide-domain or
// hashtogram-backed epochs.
std::string EpochBlob(uint64_t epoch, size_t size) {
  std::string blob;
  blob.reserve(size);
  Rng rng(epoch ^ 0xb10b);
  while (blob.size() < size) {
    blob.push_back(static_cast<char>(rng.UniformU64(256)));
  }
  return blob;
}

std::string BenchDir(const char* name) {
  return fs::temp_directory_path().string() + "/ldphh_bench_store_" + name +
         "_" + std::to_string(::getpid());
}

CheckpointStoreOptions BenchOptions(SyncMode sync_mode = SyncMode::kNone) {
  CheckpointStoreOptions o;
  o.segment_max_bytes = 1 << 20;
  o.background_compaction = false;  // Measured explicitly below.
  o.sync_mode = sync_mode;
  return o;
}

// Checkpoint-write throughput per SyncMode for one writer (so every group
// is one Put): none (flush-to-OS, the pre-fsync contract), data (fdatasync
// per Put), full (fsync per Put). The none→full gap is the price of
// power-loss durability. Timed in wall-clock time: a Put's fsync wait is
// off-CPU, so per-CPU-second rates would leave out exactly that price.
void BM_StorePut(benchmark::State& state) {
  const size_t blob_size = static_cast<size_t>(state.range(0));
  const SyncMode sync_mode = static_cast<SyncMode>(state.range(1));
  const std::string dir = BenchDir("put");
  uint64_t epoch = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    auto store =
        std::move(CheckpointStore::Open(dir, BenchOptions(sync_mode))).value();
    state.ResumeTiming();
    for (int e = 0; e < 256; ++e) {
      if (!store->Put(epoch, EpochBlob(epoch, blob_size)).ok()) {
        state.SkipWithError("Put failed");
        break;
      }
      ++epoch;
    }
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetBytesProcessed(state.iterations() * 256 *
                          static_cast<int64_t>(blob_size));
  state.SetLabel(std::string("sync=") + SyncModeName(sync_mode));
}
BENCHMARK(BM_StorePut)
    ->Args({1 << 10, 0})->Args({1 << 10, 1})->Args({1 << 10, 2})
    ->Args({1 << 14, 0})->Args({1 << 14, 1})->Args({1 << 14, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Concurrent acknowledged-durable writers against one store, kFull @1 KB —
// the group-commit lane's reason to exist. Every thread's Put must be
// durable on return; the queue leader coalesces every waiting writer into
// one append + one sync. syncs_per_put (group commits / acked intents, from
// the store's own counters) is the coalescing evidence: 1.0 for one writer,
// and <0.3 at 8 writers means groups average more than 3 intents.
std::unique_ptr<CheckpointStore> shared_put_store;
std::string shared_put_dir;

void BM_StorePutGroupCommit(benchmark::State& state) {
  constexpr size_t kBlob = 1 << 10;
  if (state.thread_index() == 0) {
    shared_put_dir = BenchDir("put_group");
    fs::remove_all(shared_put_dir);
    shared_put_store =
        std::move(CheckpointStore::Open(shared_put_dir,
                                        BenchOptions(SyncMode::kFull)))
            .value();
  }
  // Pre-built blobs: the timed region measures the store, not the RNG.
  std::vector<std::string> blobs;
  for (uint64_t b = 0; b < 64; ++b) blobs.push_back(EpochBlob(b, kBlob));
  const uint64_t base = static_cast<uint64_t>(state.thread_index() + 1) << 32;
  uint64_t i = 0;
  for (auto _ : state) {
    if (!shared_put_store->Put(base + (i & 4095), blobs[i & 63]).ok()) {
      state.SkipWithError("Put failed");
      break;
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kBlob));
  state.SetLabel("sync=full");
  if (state.thread_index() == 0) {
    const CheckpointStoreStats stats = shared_put_store->Stats();
    state.counters["syncs_per_put"] =
        static_cast<double>(stats.group_commits) /
        std::max<double>(1.0, static_cast<double>(stats.group_commit_writes));
    shared_put_store.reset();
    fs::remove_all(shared_put_dir);
  }
}
BENCHMARK(BM_StorePutGroupCommit)
    ->Threads(1)->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_StoreRecovery(benchmark::State& state) {
  const size_t blob_size = static_cast<size_t>(state.range(0));
  constexpr int kEpochs = 512;
  const std::string dir = BenchDir("recovery");
  fs::remove_all(dir);
  uint64_t bytes = 0;
  {
    auto store = std::move(CheckpointStore::Open(dir, BenchOptions())).value();
    for (uint64_t e = 0; e < kEpochs; ++e) {
      const std::string blob = EpochBlob(e, blob_size);
      bytes += blob.size();
      if (!store->Put(e, blob).ok()) state.SkipWithError("Put failed");
    }
  }
  for (auto _ : state) {
    auto store_or = CheckpointStore::Open(dir, BenchOptions());
    if (!store_or.ok()) state.SkipWithError("Open failed");
    benchmark::DoNotOptimize(store_or);
    // Each Open seals the previous active segment and rolls a fresh one;
    // the replayed byte count is unchanged, so iterations are comparable.
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * kEpochs);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_StoreRecovery)->Arg(1 << 10)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_StoreCompaction(benchmark::State& state) {
  // Half the epochs are superseded once, so compaction both merges and
  // drops — the steady-state shape under a sliding retention window.
  constexpr int kEpochs = 256;
  constexpr size_t kBlob = 1 << 12;
  const std::string dir = BenchDir("compact");
  CheckpointStoreOptions options = BenchOptions();
  options.segment_max_bytes = 1 << 16;  // Many sealed inputs per pass.
  uint64_t consolidated_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    {
      auto store = std::move(CheckpointStore::Open(dir, options)).value();
      for (uint64_t e = 0; e < kEpochs; ++e) {
        if (!store->Put(e, EpochBlob(e, kBlob)).ok()) {
          state.SkipWithError("Put failed");
        }
      }
      for (uint64_t e = 0; e < kEpochs; e += 2) {
        if (!store->Put(e, EpochBlob(e + 1000, kBlob)).ok()) {
          state.SkipWithError("Put failed");
        }
      }
      consolidated_bytes = kEpochs * kBlob;
      state.ResumeTiming();
      if (!store->Compact().ok()) state.SkipWithError("Compact failed");
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * kEpochs);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(consolidated_bytes));
}
BENCHMARK(BM_StoreCompaction)->Unit(benchmark::kMillisecond);

// Replica tail catch-up: one Refresh() after the primary wrote `batch`
// 1 KB puts. items_per_second is the write rate a tailing replica can
// absorb; the batch column maps to poll cadence (how much lag one poll
// swallows). Sealed segments come from the replica's cache, so the pass
// replays only what the primary appended since the last poll.
void BM_ReplicaTailCatchup(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr size_t kBlob = 1 << 10;
  const std::string dir = BenchDir("replica_tail");
  fs::remove_all(dir);
  auto store = std::move(CheckpointStore::Open(dir, BenchOptions())).value();
  auto replica =
      std::move(ReplicaStore::Open(dir, ReplicaStoreOptions())).value();
  uint64_t key = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < batch; ++i) {
      if (!store->Put(key % 4096, EpochBlob(key, kBlob)).ok()) {
        state.SkipWithError("Put failed");
        return;  // Resume/PauseTiming after a skip aborts the binary.
      }
      ++key;
    }
    state.ResumeTiming();
    auto advanced_or = replica->Refresh();
    if (!advanced_or.ok()) {
      state.SkipWithError("Refresh failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetBytesProcessed(state.iterations() * batch *
                          static_cast<int64_t>(kBlob));
  store.reset();
  replica.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ReplicaTailCatchup)->Arg(1)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The steady-state idle poll — nothing new since the last refresh. This is
// the floor a tight poll_interval costs: one MANIFEST read plus one stat.
void BM_ReplicaIdlePoll(benchmark::State& state) {
  const std::string dir = BenchDir("replica_idle");
  fs::remove_all(dir);
  auto store = std::move(CheckpointStore::Open(dir, BenchOptions())).value();
  for (uint64_t e = 0; e < 64; ++e) {
    if (!store->Put(e, EpochBlob(e, 1 << 10)).ok()) {
      state.SkipWithError("Put failed");
      return;
    }
  }
  auto replica =
      std::move(ReplicaStore::Open(dir, ReplicaStoreOptions())).value();
  for (auto _ : state) {
    auto advanced_or = replica->Refresh();
    if (!advanced_or.ok() || advanced_or.value()) {
      state.SkipWithError("idle poll observed a change");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  store.reset();
  replica.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ReplicaIdlePoll);

// Replica snapshot read throughput: Gets against the immutable snapshot
// (pointer chase + blob copy, no lock shared with the tail).
void BM_ReplicaGet(benchmark::State& state) {
  constexpr uint64_t kEntries = 1024;
  constexpr size_t kBlob = 1 << 10;
  const std::string dir = BenchDir("replica_get");
  fs::remove_all(dir);
  auto store = std::move(CheckpointStore::Open(dir, BenchOptions())).value();
  for (uint64_t e = 0; e < kEntries; ++e) {
    if (!store->Put(e, EpochBlob(e, kBlob)).ok()) {
      state.SkipWithError("Put failed");
      return;
    }
  }
  auto replica =
      std::move(ReplicaStore::Open(dir, ReplicaStoreOptions())).value();
  uint64_t key = 0;
  std::string blob;
  for (auto _ : state) {
    if (!replica->Get(key, &blob).ok()) {
      state.SkipWithError("Get failed");
      return;
    }
    benchmark::DoNotOptimize(blob);
    key = (key + 1) % kEntries;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kBlob));
  store.reset();
  replica.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ReplicaGet);

void BM_Crc32c(benchmark::State& state) {
  const bool hardware = state.range(0) != 0;
  if (hardware && !internal::Crc32cHardwareAvailable()) {
    state.SkipWithError("no hardware CRC32C on this CPU");
    return;
  }
  const std::string buf = EpochBlob(7, 1 << 16);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = hardware ? Crc32c(buf.data(), buf.size(), crc)
                   : internal::Crc32cSoftware(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel(hardware ? "dispatched" : "table");
}
BENCHMARK(BM_Crc32c)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ldphh
