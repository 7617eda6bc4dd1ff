// Tests for src/store/checkpoint_store: durable keyed blobs over segment
// files + MANIFEST, background/foreground compaction, and crash-safe
// recovery from every compaction phase (the docs/storage.md invariants).

#include "src/store/checkpoint_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/obs/json_reader.h"
#include "src/obs/metrics.h"
#include "src/obs/statusz.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

class CheckpointStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/ldphh_store_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Small segments and no background thread: tests control compaction.
  CheckpointStoreOptions SmallSegments(size_t max_bytes = 256) {
    CheckpointStoreOptions o;
    o.segment_max_bytes = max_bytes;
    o.background_compaction = false;
    return o;
  }

  std::unique_ptr<CheckpointStore> MustOpen(const CheckpointStoreOptions& o) {
    auto store_or = CheckpointStore::Open(dir_, o);
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    return std::move(store_or).value();
  }

  size_t SegmentFilesOnDisk() const {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".seg") ++n;
    }
    return n;
  }

  // The segment currently receiving appends (largest number on disk is the
  // active one in every scenario these tests build).
  fs::path NewestSegmentPath() const {
    fs::path newest;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() != ".seg") continue;
      if (newest.empty() || e.path().filename() > newest.filename()) {
        newest = e.path();
      }
    }
    return newest;
  }

  std::string dir_;
};

std::string Blob(uint64_t key, size_t size = 40) {
  std::string b = "blob-" + std::to_string(key) + "-";
  while (b.size() < size) b.push_back(static_cast<char>('a' + key % 26));
  return b;
}

TEST_F(CheckpointStoreTest, PutGetDeleteRoundTrip) {
  auto store = MustOpen(SmallSegments(1 << 20));
  ASSERT_TRUE(store->Put(7, "seven").ok());
  ASSERT_TRUE(store->Put(3, "three").ok());
  ASSERT_TRUE(store->Put(7, "seven-v2").ok());  // Last write wins.

  std::string blob;
  ASSERT_TRUE(store->Get(7, &blob).ok());
  EXPECT_EQ(blob, "seven-v2");
  ASSERT_TRUE(store->Get(3, &blob).ok());
  EXPECT_EQ(blob, "three");
  EXPECT_EQ(store->Get(99, &blob).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store->Keys(), (std::vector<uint64_t>{3, 7}));

  ASSERT_TRUE(store->Delete(3).ok());
  ASSERT_TRUE(store->Delete(99).ok());  // Absent key is fine.
  EXPECT_FALSE(store->Contains(3));
  EXPECT_EQ(store->Keys(), (std::vector<uint64_t>{7}));
}

TEST_F(CheckpointStoreTest, ReopenRecoversEverything) {
  {
    auto store = MustOpen(SmallSegments());
    for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    ASSERT_TRUE(store->Put(10, "overwritten").ok());
    ASSERT_TRUE(store->Delete(20).ok());
    EXPECT_GT(store->Stats().live_segments, 2u);  // Small segments rolled.
  }
  auto store = MustOpen(SmallSegments());
  EXPECT_EQ(store->Keys().size(), 49u);
  std::string blob;
  ASSERT_TRUE(store->Get(10, &blob).ok());
  EXPECT_EQ(blob, "overwritten");
  EXPECT_FALSE(store->Contains(20));
  ASSERT_TRUE(store->Get(49, &blob).ok());
  EXPECT_EQ(blob, Blob(49));
  EXPECT_GT(store->Stats().recovered_records, 0u);
}

TEST_F(CheckpointStoreTest, CompactionConsolidatesAndDeletesInputs) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 60; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  for (uint64_t k = 0; k < 60; k += 2) {
    ASSERT_TRUE(store->Put(k, Blob(k + 1000)).ok());  // Supersede half.
  }
  for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Delete(k).ok());
  const auto before = store->Stats();
  ASSERT_GT(before.sealed_segments, 3u);

  ASSERT_TRUE(store->Compact().ok());
  const auto after = store->Stats();
  EXPECT_EQ(after.compactions, 1u);
  // One consolidated snapshot segment + the active segment.
  EXPECT_EQ(after.sealed_segments, 1u);
  EXPECT_EQ(SegmentFilesOnDisk(), after.live_segments);

  // Contents unchanged, on disk too.
  auto reopened = MustOpen(SmallSegments());
  EXPECT_EQ(reopened->Keys().size(), 50u);
  std::string blob;
  ASSERT_TRUE(reopened->Get(12, &blob).ok());
  EXPECT_EQ(blob, Blob(1012));
  ASSERT_TRUE(reopened->Get(13, &blob).ok());
  EXPECT_EQ(blob, Blob(13));
  EXPECT_FALSE(reopened->Contains(4));
}

// Bytes of one store record holding a Blob(k) (k < 10^9): CRC header,
// (key, sequence), 40-byte blob.
constexpr uint64_t kBlobRecordBytes = kCheckpointRecordHeaderSize + 16 + 40;
constexpr uint64_t kTombstoneBytes = kCheckpointRecordHeaderSize + 16;

// The background pass waits for garbage: live history is never recopied,
// however many segments it spans; once at least half of the sealed bytes
// are dead, a pass runs and leaves less than half dead.
TEST_F(CheckpointStoreTest, BackgroundCompactionWaitsForHalfDead) {
  CheckpointStoreOptions o;
  o.segment_max_bytes = 256;  // Four Blob records per segment.
  o.background_compaction = true;
  auto store = MustOpen(o);
  for (uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  ASSERT_TRUE(store->WaitForCompaction().ok());
  CheckpointStoreStats stats = store->Stats();
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.sealed_segments, 50u);  // Every roll's segment still listed.
  EXPECT_EQ(SegmentFilesOnDisk(), stats.live_segments);
  EXPECT_EQ(stats.sealed_bytes, 200 * kBlobRecordBytes);
  EXPECT_EQ(stats.dead_bytes, 0u);

  // Overwrite half the keys and delete the other half.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(store->Put(k, Blob(k + 1000)).ok());
  }
  for (uint64_t k = 100; k < 200; ++k) ASSERT_TRUE(store->Delete(k).ok());
  ASSERT_TRUE(store->WaitForCompaction().ok());
  stats = store->Stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GT(stats.sealed_bytes, 0u);
  EXPECT_LT(2 * stats.dead_bytes, stats.sealed_bytes);
  EXPECT_EQ(SegmentFilesOnDisk(), stats.live_segments);
  std::string blob;
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(store->Get(k, &blob).ok()) << k;
    EXPECT_EQ(blob, Blob(k + 1000)) << k;
  }
  for (uint64_t k = 100; k < 200; ++k) EXPECT_FALSE(store->Contains(k)) << k;
  store.reset();
  auto reopened = MustOpen(SmallSegments());
  EXPECT_EQ(reopened->Keys().size(), 100u);
  ASSERT_TRUE(reopened->Get(99, &blob).ok());
  EXPECT_EQ(blob, Blob(1099));
}

// Recovery re-derives the dead-byte bookkeeping from the segments alone and
// lands on exactly what the write path counted: superseded and deleted
// records plus every tombstone.
TEST_F(CheckpointStoreTest, DeadBytesMatchAcrossReopenAndCompaction) {
  CheckpointStoreStats before;
  {
    auto store = MustOpen(SmallSegments());
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    }
    // Four overwrites fill (and seal) exactly one segment.
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k + 1000)).ok());
    }
    before = store->Stats();
    EXPECT_EQ(before.sealed_bytes, 204 * kBlobRecordBytes);
    EXPECT_EQ(before.dead_bytes, 4 * kBlobRecordBytes);
    // Two deletes leave their tombstones in the (unsealed) active segment.
    ASSERT_TRUE(store->Delete(10).ok());
    ASSERT_TRUE(store->Delete(11).ok());
    before = store->Stats();
    EXPECT_EQ(before.dead_bytes, 6 * kBlobRecordBytes);
  }
  auto store = MustOpen(SmallSegments());
  // Open sealed the old active segment: its tombstones join the count.
  const CheckpointStoreStats after = store->Stats();
  EXPECT_EQ(after.sealed_bytes, before.sealed_bytes + 2 * kTombstoneBytes);
  EXPECT_EQ(after.dead_bytes, before.dead_bytes + 2 * kTombstoneBytes);

  ASSERT_TRUE(store->Compact().ok());
  const CheckpointStoreStats compacted = store->Stats();
  EXPECT_EQ(compacted.dead_bytes, 0u);
  EXPECT_EQ(compacted.sealed_bytes, 198 * kBlobRecordBytes);
}

double ScrapeMetric(const std::string& name) {
  const std::string text = obs::MetricsRegistry::Global().DumpText();
  const std::string prefix = "\n" + name + " ";
  const size_t at = text.find(prefix);
  return at == std::string::npos
             ? -1.0
             : std::stod(text.substr(at + prefix.size()));
}

// Garbage is observable: /statusz shows the trigger's input next to the
// sealed bytes it is compared against, and the rewritten-byte counter
// grows by exactly what a pass writes.
TEST_F(CheckpointStoreTest, GarbageIsObservable) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 8; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(store->Put(k, Blob(k + 1000)).ok());
  }
  const CheckpointStoreStats stats = store->Stats();
  ASSERT_EQ(stats.sealed_bytes, 12 * kBlobRecordBytes);
  ASSERT_EQ(stats.dead_bytes, 4 * kBlobRecordBytes);

  obs::JsonValue statusz;
  ASSERT_TRUE(
      obs::ParseJson(obs::StatuszRegistry::Global().DumpJson(), &statusz).ok());
  const obs::JsonValue* sections = statusz.Find("sections");
  ASSERT_NE(sections, nullptr);
  const obs::JsonValue* stores = sections->Find("store");
  ASSERT_NE(stores, nullptr);
  const obs::JsonValue* mine = nullptr;
  for (const obs::JsonValue& section : stores->array) {
    const obs::JsonValue* dir = section.Find("dir");
    if (dir != nullptr && dir->string_value == dir_) mine = &section;
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_NE(mine->Find("dead_bytes"), nullptr);
  EXPECT_EQ(mine->Find("dead_bytes")->number_value,
            static_cast<double>(stats.dead_bytes));
  ASSERT_NE(mine->Find("sealed_bytes"), nullptr);
  EXPECT_EQ(mine->Find("sealed_bytes")->number_value,
            static_cast<double>(stats.sealed_bytes));

  ASSERT_GE(ScrapeMetric("ldphh_store_dead_bytes"), 0.0);
  ASSERT_GE(ScrapeMetric("ldphh_store_sealed_bytes"), 0.0);
  const double rewritten = ScrapeMetric("ldphh_store_rewritten_bytes_total");
  ASSERT_GE(rewritten, 0.0);
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(ScrapeMetric("ldphh_store_rewritten_bytes_total") - rewritten,
            static_cast<double>(8 * kBlobRecordBytes));
  EXPECT_EQ(store->Stats().dead_bytes, 0u);
}

// Counts every byte appended to any file — segments and MANIFESTs alike —
// on its way to the wrapped filesystem.
class ByteCountingFileSystem : public FileSystem {
 public:
  explicit ByteCountingFileSystem(FileSystem* base) : base_(base) {}
  uint64_t bytes_written() const { return bytes_written_.load(); }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file_or = base_->NewWritableFile(path);
    LDPHH_RETURN_IF_ERROR(file_or.status());
    return std::unique_ptr<WritableFile>(
        new CountingFile(std::move(file_or).value(), &bytes_written_));
  }
  StatusOr<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  StatusOr<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status ListDirectory(const std::string& dir,
                       std::vector<std::string>* names) override {
    return base_->ListDirectory(dir, names);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDirectories(const std::string& dir) override {
    return base_->CreateDirectories(dir);
  }
  Status SyncDirectory(const std::string& dir) override {
    return base_->SyncDirectory(dir);
  }

 private:
  class CountingFile : public WritableFile {
   public:
    CountingFile(std::unique_ptr<WritableFile> base,
                 std::atomic<uint64_t>* bytes)
        : base_(std::move(base)), bytes_(bytes) {}
    Status Append(std::string_view data) override {
      bytes_->fetch_add(data.size());
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync(SyncMode mode) override { return base_->Sync(mode); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    std::atomic<uint64_t>* bytes_;
  };

  FileSystem* const base_;
  std::atomic<uint64_t> bytes_written_{0};
};

// Write amplification on the epoch layer's pattern: 1000 write-once 64 KB
// blobs, each committed with an overwrite of one clock key, into 256 KB
// segments with the background compactor on. Every 50 epochs the bytes
// written to files (segments, compaction output, MANIFESTs) per blob byte
// the client wrote must stay under \p bound — flat in history length.
// With \p retain > 0, epoch e - retain is deleted after epoch e (sliding
// retention), so garbage accrues and passes must run.
void ExpectBoundedWriteAmplification(uint64_t retain, double bound) {
  constexpr uint64_t kEpochs = 1000;
  constexpr uint64_t kClockKey = UINT64_MAX;
  FaultInjectingFileSystem ffs;
  ByteCountingFileSystem counting(&ffs);
  CheckpointStoreOptions o;
  o.segment_max_bytes = 256 << 10;
  o.background_compaction = true;
  // Durability plays no part in the byte count; kNone spares the fault
  // filesystem a durable copy of every file.
  o.sync_mode = SyncMode::kNone;
  o.file_system = &counting;
  auto store_or = CheckpointStore::Open("/faultfs/write_amp", o);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  const std::string blob(64 << 10, 'e');
  uint64_t client_bytes = 0;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    std::string clock(8, '\0');
    std::memcpy(clock.data(), &e, sizeof(e));
    std::vector<StoreWrite> writes(2);
    writes[0].key = e;
    writes[0].blob = blob;
    writes[1].key = kClockKey;
    writes[1].blob = clock;
    ASSERT_TRUE(store->Apply(writes).ok()) << "epoch " << e;
    client_bytes += blob.size() + clock.size();
    if (retain > 0 && e >= retain) {
      ASSERT_TRUE(store->Delete(e - retain).ok()) << "epoch " << e;
    }
    if ((e + 1) % 50 == 0) {
      ASSERT_TRUE(store->WaitForCompaction().ok());
      const double amp = static_cast<double>(counting.bytes_written()) /
                         static_cast<double>(client_bytes);
      EXPECT_LE(amp, bound) << "after " << e + 1 << " epochs, "
                            << store->Stats().compactions << " passes";
    }
  }
  EXPECT_EQ(store->Keys().size(),
            (retain > 0 ? retain : kEpochs) + 1);  // Plus the clock key.
  if (retain > 0) {
    EXPECT_GE(store->Stats().compactions, 1u);
  } else {
    EXPECT_EQ(store->Stats().compactions, 0u);
  }
}

TEST_F(CheckpointStoreTest, WriteOnceHistoryIsNeverRecopied) {
  ExpectBoundedWriteAmplification(/*retain=*/0, /*bound=*/1.05);
}

TEST_F(CheckpointStoreTest, SlidingRetentionRewritesAtMostWhatClientsWrote) {
  ExpectBoundedWriteAmplification(/*retain=*/50, /*bound=*/2.1);
}

TEST_F(CheckpointStoreTest, ConcurrentPutsDuringCompactionLoseNothing) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 40; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  std::thread writer([&] {
    for (uint64_t k = 1000; k < 1200; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    }
  });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(store->Compact().ok());
  writer.join();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->Keys().size(), 240u);
  auto reopened = MustOpen(SmallSegments());
  EXPECT_EQ(reopened->Keys().size(), 240u);
}

// ------------------------------------------------------- crash injection --

// Crash mid-append: a torn record at the end of the active segment must
// cost only the unacknowledged record, at every truncation point.
TEST_F(CheckpointStoreTest, TornActiveTailRecoversAcknowledgedPuts) {
  std::string bytes;
  {
    auto store = MustOpen(SmallSegments(1 << 20));
    for (uint64_t k = 0; k < 5; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  const fs::path active = NewestSegmentPath();
  {
    std::ifstream in(active, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Keep the first record intact; chop the file at every later byte.
  const size_t first_end = kCheckpointRecordHeaderSize + 16 + Blob(0).size();
  for (size_t cut = first_end; cut < bytes.size(); cut += 7) {
    std::ofstream out(active, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();

    auto store = MustOpen(SmallSegments(1 << 20));
    std::string blob;
    ASSERT_TRUE(store->Get(0, &blob).ok()) << "cut at " << cut;
    EXPECT_EQ(blob, Blob(0));
    // Write after recovery, then verify the new put survives another open.
    ASSERT_TRUE(store->Put(777, "post-crash").ok());
    store.reset();
    auto again = MustOpen(SmallSegments(1 << 20));
    ASSERT_TRUE(again->Get(777, &blob).ok()) << "cut at " << cut;
    EXPECT_EQ(blob, "post-crash");
    again.reset();
    // Restore the full file for the next truncation point.
    std::ofstream restore(active, std::ios::binary | std::ios::trunc);
    restore.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

TEST_F(CheckpointStoreTest, CorruptActiveTailDropsOnlyTheTail) {
  {
    auto store = MustOpen(SmallSegments(1 << 20));
    ASSERT_TRUE(store->Put(1, Blob(1)).ok());
    ASSERT_TRUE(store->Put(2, Blob(2)).ok());
  }
  const fs::path active = NewestSegmentPath();
  // Flip a byte inside the second record's payload: complete but corrupt.
  const auto size = fs::file_size(active);
  std::fstream f(active, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(size - 3));
  char c;
  f.seekg(static_cast<std::streamoff>(size - 3));
  f.get(c);
  f.seekp(static_cast<std::streamoff>(size - 3));
  f.put(static_cast<char>(c ^ 0x40));
  f.close();

  auto store = MustOpen(SmallSegments(1 << 20));
  EXPECT_TRUE(store->Contains(1));
  EXPECT_FALSE(store->Contains(2));  // The corrupt tail record is dropped...
  EXPECT_EQ(store->Stats().dropped_tail_records, 1u);
}

TEST_F(CheckpointStoreTest, CorruptSealedSegmentFailsOpen) {
  {
    auto store = MustOpen(SmallSegments(128));
    for (uint64_t k = 0; k < 20; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    ASSERT_GT(store->Stats().sealed_segments, 1u);
  }
  // Corrupt a byte in the OLDEST segment — sealed, so damage there is real
  // corruption, not crash debris.
  fs::path oldest;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() != ".seg") continue;
    if (oldest.empty() || e.path().filename() < oldest.filename()) {
      oldest = e.path();
    }
  }
  std::fstream f(oldest, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(kCheckpointRecordHeaderSize + 2);
  f.put('\x5a');
  f.close();
  auto store_or = CheckpointStore::Open(dir_, SmallSegments(128));
  EXPECT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kDecodeFailure);
}

// Every disk write must route through the injected FileSystem: a store
// opened over the in-memory fault filesystem works end to end while the
// real directory never materializes. Any write path still on stdio or
// std::filesystem would show up as a real file here.
TEST_F(CheckpointStoreTest, AllIoRoutesThroughInjectedFileSystem) {
  FaultInjectingFileSystem ffs;
  CheckpointStoreOptions o = SmallSegments();
  o.file_system = &ffs;
  auto store = MustOpen(o);
  for (uint64_t k = 0; k < 30; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  ASSERT_TRUE(store->Delete(7).ok());
  ASSERT_TRUE(store->Compact().ok());
  std::string blob;
  ASSERT_TRUE(store->Get(3, &blob).ok());
  EXPECT_EQ(blob, Blob(3));
  store.reset();

  EXPECT_FALSE(fs::exists(dir_));  // No real I/O happened.

  auto reopened = MustOpen(o);
  EXPECT_EQ(reopened->Keys().size(), 29u);
  EXPECT_FALSE(reopened->Contains(7));
}

// The sync_mode knob is honored: kFull syncs on every acked mutation (and
// the MANIFEST installs sync the directory); kNone never syncs anything.
TEST_F(CheckpointStoreTest, SyncModeKnobControlsFsyncs) {
  FaultInjectingFileSystem full_fs;
  {
    CheckpointStoreOptions o = SmallSegments();
    o.file_system = &full_fs;
    o.sync_mode = SyncMode::kFull;
    auto store = MustOpen(o);
    for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  EXPECT_GE(full_fs.file_sync_count(), 10u);  // At least one per acked Put.
  EXPECT_GE(full_fs.dir_sync_count(), 1u);

  FaultInjectingFileSystem none_fs;
  {
    CheckpointStoreOptions o = SmallSegments();
    o.file_system = &none_fs;
    o.sync_mode = SyncMode::kNone;
    auto store = MustOpen(o);
    for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  EXPECT_EQ(none_fs.file_sync_count(), 0u);
  EXPECT_EQ(none_fs.dir_sync_count(), 0u);
}

TEST_F(CheckpointStoreTest, SegmentsWithoutManifestRefused) {
  fs::create_directories(dir_);
  std::ofstream(dir_ + "/000001.seg").put('x');
  auto store_or = CheckpointStore::Open(dir_, SmallSegments());
  EXPECT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kFailedPrecondition);
}

// The three compaction crash points. After each simulated kill the next
// Open must land on exactly the pre-compaction contents (no loss, no
// resurrection) and sweep all debris.
class CompactionCrashTest
    : public CheckpointStoreTest,
      public testing::WithParamInterface<CheckpointStore::CompactionCrashPoint> {};

TEST_P(CompactionCrashTest, RecoversAllEntriesAndSweepsDebris) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 40; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  for (uint64_t k = 0; k < 40; k += 4) {
    ASSERT_TRUE(store->Put(k, Blob(k + 500)).ok());
  }
  ASSERT_TRUE(store->Delete(39).ok());
  ASSERT_GT(store->Stats().sealed_segments, 2u);

  store->set_crash_point_for_testing(GetParam());
  ASSERT_TRUE(store->Compact().ok());
  store.reset();  // "Kill": drop the in-memory store with files as-is.

  auto recovered = MustOpen(SmallSegments());
  EXPECT_EQ(recovered->Keys().size(), 39u);
  std::string blob;
  for (uint64_t k = 0; k < 39; ++k) {
    ASSERT_TRUE(recovered->Get(k, &blob).ok()) << "key " << k;
    EXPECT_EQ(blob, k % 4 == 0 ? Blob(k + 500) : Blob(k)) << "key " << k;
  }
  EXPECT_FALSE(recovered->Contains(39));
  // Debris swept: no temp files, and every on-disk segment is live.
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
  EXPECT_EQ(SegmentFilesOnDisk(), recovered->Stats().live_segments);

  // The store stays fully functional: compaction converges after recovery.
  ASSERT_TRUE(recovered->Compact().ok());
  EXPECT_EQ(recovered->Stats().sealed_segments, 1u);
  ASSERT_TRUE(recovered->Put(1000, "after").ok());
  EXPECT_EQ(recovered->Keys().size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, CompactionCrashTest,
    testing::Values(
        CheckpointStore::CompactionCrashPoint::kAfterConsolidatedSegment,
        CheckpointStore::CompactionCrashPoint::kAfterTempManifest,
        CheckpointStore::CompactionCrashPoint::kAfterManifestInstall));

}  // namespace
}  // namespace ldphh
