/// \file checkpoint_store.h
/// \brief Durable, compacting store of checkpoint blobs keyed by u64.
///
/// The storage engine under the epoch layer (src/server/epoch_manager.h):
/// a directory of numbered segment files of CRC-guarded records (the
/// checkpoint_log format) governed by a MANIFEST, in the leveldb idiom
/// scaled down to whole-blob values:
///
///   <dir>/MANIFEST       one kStoreManifest record: format version,
///                        install sequence, incarnation id, next segment
///                        number, the active segment, and the live list
///   <dir>/NNNNNN.seg     segment: a run of kStoreEntry / kStoreTombstone
///                        records, each carrying (key, sequence, blob)
///
/// The file names, MANIFEST codec, and segment replay live in
/// store_format.h, shared with the read-only follower (replica_store.h)
/// that tails a live store directory by polling its MANIFEST.
///
/// Writes go to the single *active* segment; when it exceeds
/// `segment_max_bytes` it is sealed and a fresh active segment is opened.
/// A background (or foreground) compaction merges every sealed segment
/// into one consolidated snapshot segment — last write per key wins, by
/// global sequence number; deleted keys vanish — then atomically installs
/// a MANIFEST listing the new segment set and deletes the superseded files.
/// The background pass runs only once dead records (superseded, deleted,
/// or tombstones) make up at least half of the sealed segments' bytes, so
/// write-once history is never recopied and compaction rewrites at most
/// what clients wrote (docs/storage.md derives the bound).
///
/// Crash-safety invariants (docs/storage.md derives them in full):
///   I1. The MANIFEST is only ever replaced atomically: written complete to
///       MANIFEST.tmp, synced, then rename(2)d over MANIFEST with the
///       parent directory synced after the rename.
///   I2. An *active* segment is listed in the MANIFEST before its first
///       record is written; a *consolidated* segment is written complete
///       before the MANIFEST listing it is installed.
///   I3. Therefore any .seg file not listed in the current MANIFEST is
///       garbage (an uninstalled compaction output, or a compaction input
///       whose deletion did not finish) and is deleted at Open.
///   I4. Only the active segment may have a damaged tail (a crash
///       mid-append); Open truncates it at the last clean record and never
///       appends after recovered bytes (the recovered segment is sealed and
///       a fresh active segment rolled). Damage in any other live segment
///       is real corruption and fails Open.
///
/// Writes: Put, Delete and Apply all enter one group-commit lane (the
/// leveldb writer-queue idiom). Concurrent callers enqueue their intents;
/// the queue-front writer becomes the *leader*, coalesces the queue into
/// one log append + one sync, and acknowledges the whole group — so N
/// concurrent acknowledged-durable writes cost ~1 sync instead of N. Every
/// writer still returns only after its own records are durable per
/// sync_mode, and a failed group sync surfaces to every member.
///
/// Durability (docs/storage.md has the full derivation): every byte goes
/// through the file layer (src/common/file.h) and `CheckpointStoreOptions::
/// sync_mode` picks the contract. Under kFull (default) / kData an acked
/// Put/Delete/Apply is power-loss durable: each group's append is
/// fsync/fdatasync'd before any member is acknowledged, a created segment's
/// directory entry is synced before its first record is acknowledged, the
/// MANIFEST temp file is synced before the rename and the parent directory
/// after it, and a consolidated compaction segment is fully synced (data +
/// entry) before the MANIFEST naming it installs. Under kNone writes only
/// reach the OS (fflush-grade): crash-of-process safe, not power-loss safe
/// — the pre-fsync contract, kept as a knob because a sync per group is the
/// price of the guarantee (bench_store measures it).

#ifndef LDPHH_STORE_CHECKPOINT_STORE_H_
#define LDPHH_STORE_CHECKPOINT_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/statusz.h"
#include "src/server/checkpoint_log.h"
#include "src/store/store_format.h"

namespace ldphh {

/// Tuning for CheckpointStore.
struct CheckpointStoreOptions {
  /// Seal the active segment once it exceeds this many bytes.
  size_t segment_max_bytes = 1 << 20;
  /// Spawn the background compaction thread, which compacts once half of
  /// the sealed bytes are dead. Off, compaction only happens via explicit
  /// Compact() calls.
  bool background_compaction = true;
  /// How far an acknowledged write is pushed toward the platter before
  /// Put/Delete/CloseEpoch return. kFull/kData: power-loss durable (fsync /
  /// fdatasync plus the directory syncs). kNone: flushed to the OS only —
  /// process-crash safe, the pre-fsync contract.
  SyncMode sync_mode = SyncMode::kFull;
  /// File layer to write through; null = FileSystem::Default() (POSIX).
  /// Tests inject a FaultInjectingFileSystem to simulate power loss.
  FileSystem* file_system = nullptr;
  /// A forming group stops absorbing queued writers past either bound (the
  /// member that crosses a bound still commits whole; writers left behind
  /// lead the next group).
  size_t group_max_records = 128;
  size_t group_max_bytes = 4 << 20;
};

/// One write intent for CheckpointStore::Apply — a Put (key, blob) or a
/// Delete (key). The referenced blob must outlive the Apply call.
struct StoreWrite {
  bool is_delete = false;
  uint64_t key = 0;
  std::string_view blob;  ///< Ignored for deletes.
};

/// Counters for tests, benchmarks, and operators — a thin consistent
/// snapshot of this store's registry instruments (Stats() assembles it).
struct CheckpointStoreStats {
  uint64_t live_segments = 0;    ///< Segments in the current MANIFEST.
  uint64_t sealed_segments = 0;  ///< Live segments no longer written to.
  uint64_t entries = 0;          ///< Distinct live keys.
  uint64_t compactions = 0;      ///< Compactions completed since Open.
  uint64_t manifest_installs = 0;///< MANIFEST replacements since Open.
  uint64_t recovered_records = 0;///< Records replayed by Open.
  uint64_t recovered_bytes = 0;  ///< Segment bytes scanned by Open.
  uint64_t dropped_tail_records = 0;  ///< Torn/corrupt active-tail records
                                      ///< discarded by Open.
  uint64_t manifest_sequence = 0;///< Install generation of the current
                                 ///< MANIFEST (what a replica tails).
  uint64_t group_commits = 0;    ///< Groups committed (≈ write-path syncs
                                 ///< issued) since Open.
  uint64_t group_commit_writes = 0;  ///< Write intents acknowledged since
                                     ///< Open (every write rides the lane).
  uint64_t sealed_bytes = 0;     ///< Record bytes in sealed segments.
  uint64_t dead_bytes = 0;       ///< Of those, bytes of dead records — the
                                 ///< background compaction trigger's input.
};

/// \brief The durable keyed blob store.
///
/// Thread-safe: Put/Delete/Apply/Get/Keys/Compact may be called
/// concurrently.
/// Blobs are cached in memory (they are the epoch working set the windowed
/// queries read); the segment files are the durable copy replayed at Open.
class CheckpointStore {
 public:
  /// Crash-injection points for the compaction test suite: when set,
  /// Compact() abandons the pass right after the named phase exactly as a
  /// kill would — files are left as-is and the in-memory store must be
  /// discarded (reopen the directory to observe recovery).
  enum class CompactionCrashPoint {
    kNone = 0,
    kAfterConsolidatedSegment,  ///< Output fully written; MANIFEST untouched.
    kAfterTempManifest,         ///< MANIFEST.tmp written; rename not done.
    kAfterManifestInstall,      ///< New MANIFEST live; inputs not yet deleted.
  };

  /// Crash-injection points for the group-commit power-loss matrix: when
  /// armed (one-shot), the next group leader abandons the commit right
  /// after the named phase exactly as a power cut would — the log is left
  /// with whatever bytes reached it, every queued writer (this group and
  /// any writers behind it) gets kAborted, further group writes fail, and
  /// the in-memory store must be discarded (reopen to observe recovery).
  enum class GroupCrashPoint {
    kNone = 0,
    kAfterEnqueue,          ///< Group formed; nothing appended.
    kAfterPartialAppend,    ///< Roughly half the group's bytes appended.
    kAfterAppendPreSync,    ///< Whole group appended; sync not issued.
    kAfterSyncPreNotify,    ///< Group durable; no member ever acknowledged.
  };

  /// Opens (creating if needed) the store at \p dir and recovers its state
  /// from the MANIFEST and live segments. Fails on real corruption, never
  /// on the debris of a crash.
  static StatusOr<std::unique_ptr<CheckpointStore>> Open(
      const std::string& dir, const CheckpointStoreOptions& options);

  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Stores \p blob under \p key (replacing any previous value); durable
  /// per sync_mode before returning. May seal the active segment.
  Status Put(uint64_t key, std::string_view blob);

  /// Removes \p key (a durable tombstone; compaction reclaims the space).
  /// Deleting an absent key is OK.
  Status Delete(uint64_t key);

  /// Applies every intent in \p writes, in order, and returns only after
  /// all of them are durable per sync_mode. The whole batch is one member
  /// of the group-commit lane — one append + one sync for the batch,
  /// possibly shared with concurrent writers (the epoch layer commits an
  /// epoch blob and its clock record this way). Put and Delete are
  /// one-intent batches.
  Status Apply(const std::vector<StoreWrite>& writes);

  /// Fetches the blob stored under \p key; kOutOfRange if absent.
  Status Get(uint64_t key, std::string* blob) const;

  bool Contains(uint64_t key) const;

  /// All live keys, ascending.
  std::vector<uint64_t> Keys() const;

  /// Merges every sealed segment into one consolidated snapshot segment and
  /// deletes the inputs, whatever their dead share. No-op without sealed
  /// segments.
  Status Compact();

  /// Blocks until no compaction is running and, if the background thread is
  /// enabled, less than half of the sealed bytes are dead. For tests and
  /// benchmarks.
  Status WaitForCompaction();

  CheckpointStoreStats Stats() const;

  const std::string& dir() const { return dir_; }

  /// Arms the crash injection for the next Compact() pass (test-only).
  void set_crash_point_for_testing(CompactionCrashPoint p) {
    crash_point_.store(p);
  }

  /// Arms the crash injection for the next group commit (test-only;
  /// one-shot — the leader that consumes it simulates the kill).
  void set_group_crash_point_for_testing(GroupCrashPoint p) {
    group_crash_point_.store(p);
  }

  /// Segment file name for segment number \p n ("NNNNNN.seg").
  static std::string SegmentFileName(uint64_t n) {
    return StoreSegmentFileName(n);
  }

 private:
  CheckpointStore(std::string dir, CheckpointStoreOptions options);

  /// Runs at Open before any other thread exists; takes mu_ anyway so the
  /// guarded-member writes stay inside the analyzed discipline.
  Status Recover() REQUIRES(mu_);
  Status ReplaySegment(uint64_t segment, bool is_active,
                       std::map<uint64_t, StoreSegmentEntry>* entries,
                       std::map<uint64_t, uint64_t>* tombstones);
  /// Writes the MANIFEST describing the given state to MANIFEST.tmp and
  /// renames it into place. Caller holds mu_. With \p abandon_before_rename
  /// the tmp file is left uninstalled — the kAfterTempManifest kill.
  Status InstallManifestLocked(const std::set<uint64_t>& live,
                               uint64_t next_segment, uint64_t active_segment,
                               bool abandon_before_rename = false)
      REQUIRES(mu_);
  /// Seals the active segment and opens a fresh one. Caller holds mu_.
  Status RollActiveLocked() REQUIRES(mu_);
  /// Re-sums the sealed segments' bytes after segment_bytes_ or the active
  /// segment changed, and publishes them to the gauges.
  void UpdateSealedBytesLocked() REQUIRES(mu_);
  /// The background compaction trigger: at least half of the sealed bytes
  /// are dead.
  bool GarbageDueLocked() const REQUIRES(mu_);
  /// One writer parked in the group-commit queue: its intents, their
  /// pre-computed on-disk size, and the condition it sleeps on until the
  /// group leader reports the outcome.
  struct PendingWrite {
    PendingWrite(Mutex* mu, const StoreWrite* w, size_t n, size_t b)
        : cv(mu), writes(w), count(n), bytes(b) {}
    CondVar cv;
    const StoreWrite* writes;
    size_t count;
    size_t bytes;  ///< Encoded size (headers included) of all intents.
    Status status;
    bool done = false;
  };

  /// The one write path behind Put, Delete and Apply: commits \p writes
  /// through GroupWrite, then latches write health, counts the acked
  /// intents and wakes the compactor if a roll met its trigger.
  Status Commit(const StoreWrite* writes, size_t count, obs::Span& span);
  /// The group-commit lane: enqueues \p writes, then either waits for a
  /// leader to commit them (follower) or, on reaching the queue front,
  /// leads the commit itself. Returns the writer's durable outcome.
  Status GroupWrite(const StoreWrite* writes, size_t count, obs::Span& span);
  /// Called by the queue-front writer with mu_ held: coalesces the queue
  /// head into one group, appends + syncs it with mu_ released (the
  /// queue-front position is the exclusive-writer token while unlocked),
  /// applies the group in memory, and wakes every member.
  Status LeadGroupCommit(PendingWrite* self, obs::Span& span) REQUIRES(mu_);
  /// Wakes the background compactor if the garbage trigger is met. Commit
  /// calls it after the lane released mu_.
  void MaybeSignalCompaction();

  /// Latches \p status as the store's write health: an error makes
  /// /healthz fail until a later write succeeds (last write wins, so the
  /// store self-heals when the fault clears).
  void RecordWriteHealth(const Status& status);
  /// What the registered health check reports.
  Status WriteHealth() const;
  Status CompactPass(bool respect_trigger);
  void BackgroundLoop();
  int SealedCountLocked() const REQUIRES(mu_) {
    return static_cast<int>(live_.size()) - 1;  // All live but the active.
  }
  std::string PathOf(uint64_t segment) const;
  /// Directory-entry sync, skipped under SyncMode::kNone.
  Status SyncDirIfDurable();

  const std::string dir_;
  const CheckpointStoreOptions options_;
  FileSystem* const fs_;

  mutable Mutex mu_;
  std::map<uint64_t, StoreSegmentEntry> entries_ GUARDED_BY(mu_);
  /// Live segment numbers (incl. active).
  std::set<uint64_t> live_ GUARDED_BY(mu_);
  uint64_t active_segment_ GUARDED_BY(mu_) = 0;
  /// Record bytes one live segment holds, and how many of them belong to
  /// dead records: superseded, deleted, or tombstones.
  struct SegmentBytes {
    uint64_t bytes = 0;
    uint64_t dead = 0;
  };
  /// Per live segment that holds records (the active one gains its entry
  /// with its first group); compaction erases its inputs' entries.
  std::map<uint64_t, SegmentBytes> segment_bytes_ GUARDED_BY(mu_);
  /// Sums of segment_bytes_ over the sealed segments (all but the active).
  uint64_t sealed_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t sealed_dead_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t next_segment_ GUARDED_BY(mu_) = 1;
  uint64_t next_sequence_ GUARDED_BY(mu_) = 1;
  uint64_t manifest_sequence_ GUARDED_BY(mu_) = 0;
  /// Random id of this Open, stamped into every MANIFEST this instance
  /// installs (see StoreManifest::incarnation). The recovery-time install
  /// puts it on disk before any record is acknowledged.
  uint64_t incarnation_ = 0;
  CheckpointWriter active_writer_ GUARDED_BY(mu_);

  /// Writers parked in the group-commit lane, in arrival order; the front
  /// writer is (or becomes) the leader. Entries live on their owners'
  /// stacks — a writer only leaves GroupWrite after done is set.
  std::deque<PendingWrite*> group_queue_ GUARDED_BY(mu_);
  /// Records in the most recently led group — the oscillation-damping
  /// hint in LeadGroupCommit (yield once when the queue is thinner than
  /// the group that just committed).
  size_t last_group_records_ GUARDED_BY(mu_) = 1;
  /// Set by a simulated group-commit crash: the in-memory store no longer
  /// matches the log, so every later group write fails until reopen.
  bool group_crashed_ GUARDED_BY(mu_) = false;

  // Registry instruments; CheckpointStoreStats snapshots them. Counters are
  // per-instance (since Open), gauges track the current on-disk shape.
  std::shared_ptr<obs::Counter> puts_;
  std::shared_ptr<obs::Counter> deletes_;
  std::shared_ptr<obs::Counter> appended_bytes_;
  std::shared_ptr<obs::Counter> compactions_;
  std::shared_ptr<obs::Counter> rewritten_bytes_;
  std::shared_ptr<obs::Counter> manifest_installs_;
  std::shared_ptr<obs::Counter> recovered_records_;
  std::shared_ptr<obs::Counter> recovered_bytes_;
  std::shared_ptr<obs::Counter> dropped_tail_records_;
  std::shared_ptr<obs::Counter> group_commits_;
  std::shared_ptr<obs::Counter> group_follower_writes_;
  std::shared_ptr<obs::Counter> group_commit_writes_;
  std::shared_ptr<obs::Histogram> group_size_;
  std::shared_ptr<obs::Histogram> put_duration_ns_;
  std::shared_ptr<obs::Histogram> compaction_duration_ns_;
  std::shared_ptr<obs::Gauge> live_segments_gauge_;
  std::shared_ptr<obs::Gauge> sealed_segments_gauge_;
  std::shared_ptr<obs::Gauge> sealed_bytes_gauge_;
  std::shared_ptr<obs::Gauge> dead_bytes_gauge_;
  std::shared_ptr<obs::Gauge> entries_gauge_;
  std::shared_ptr<obs::Gauge> manifest_sequence_gauge_;

  Mutex compaction_mu_;     ///< Serializes compaction passes.
  CondVar work_cv_{&mu_};   ///< Wakes the background thread.
  CondVar idle_cv_{&mu_};   ///< Signals WaitForCompaction.
  bool compacting_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread compactor_;

  std::atomic<CompactionCrashPoint> crash_point_{CompactionCrashPoint::kNone};
  std::atomic<GroupCrashPoint> group_crash_point_{GroupCrashPoint::kNone};

  /// Slow-span families for the write path (served at /spanz).
  std::shared_ptr<obs::SpanFamily> put_spans_;
  std::shared_ptr<obs::SpanFamily> delete_spans_;

  /// Write-health latch: set by the first failing write, cleared by the
  /// next succeeding one. The atomic keeps the registered check to one
  /// relaxed load in the healthy steady state.
  std::atomic<bool> has_health_error_{false};
  mutable Mutex health_mu_;
  Status health_error_ GUARDED_BY(health_mu_);

  /// Declared last: unregister (stopping admin-plane callbacks into this
  /// object) before any member the callbacks read is destroyed.
  obs::HealthRegistry::Registration health_;
  obs::StatuszRegistry::Registration statusz_;
};

}  // namespace ldphh

#endif  // LDPHH_STORE_CHECKPOINT_STORE_H_
