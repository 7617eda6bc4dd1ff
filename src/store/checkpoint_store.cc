#include "src/store/checkpoint_store.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "src/common/serde.h"
#include "src/common/timer.h"
#include "src/obs/trace.h"

namespace ldphh {

namespace {

// The background pass runs once dead records make up at least this share of
// the sealed segments' bytes. A pass then writes at most half of what it
// reads, so over any history compaction rewrites at most what clients wrote
// (docs/storage.md).
constexpr double kCompactionDeadShare = 0.5;

// On-disk size of one store record: CRC header, (key, sequence), then the
// blob (empty for a tombstone).
size_t RecordBytes(size_t blob_bytes) {
  return kCheckpointRecordHeaderSize + 16 + blob_bytes;
}

// A fresh id per Open. Entropy from random_device, mixed with the clock in
// case the device is deterministic on some platform: two incarnations
// colliding would let a replica trust a rolled-back-and-reissued MANIFEST
// generation.
uint64_t DrawIncarnation() {
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // 0 is reserved: it marks a v1 MANIFEST (no incarnation field), which
  // replicas refuse to tail.
  return id != 0 ? id : 1;
}

}  // namespace

std::string CheckpointStore::PathOf(uint64_t segment) const {
  return dir_ + "/" + StoreSegmentFileName(segment);
}

Status CheckpointStore::SyncDirIfDurable() {
  if (options_.sync_mode == SyncMode::kNone) return Status::OK();
  return fs_->SyncDirectory(dir_);
}

CheckpointStore::CheckpointStore(std::string dir, CheckpointStoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      fs_(options.file_system != nullptr ? options.file_system
                                         : FileSystem::Default()),
      incarnation_(DrawIncarnation()) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  puts_ = reg.NewCounter("ldphh_store_puts_total", "Put operations acked");
  deletes_ = reg.NewCounter("ldphh_store_deletes_total",
                            "Delete operations acked (tombstones)");
  appended_bytes_ = reg.NewCounter(
      "ldphh_store_appended_bytes_total",
      "Record bytes (header + payload) appended to segments", "bytes");
  compactions_ = reg.NewCounter("ldphh_store_compactions_total",
                                "Compaction passes completed");
  rewritten_bytes_ = reg.NewCounter(
      "ldphh_store_rewritten_bytes_total",
      "Record bytes compaction passes wrote into consolidated segments",
      "bytes");
  manifest_installs_ = reg.NewCounter("ldphh_store_manifest_installs_total",
                                      "MANIFEST replacements installed");
  recovered_records_ = reg.NewCounter("ldphh_store_recovered_records_total",
                                      "Records replayed at Open");
  recovered_bytes_ = reg.NewCounter("ldphh_store_recovered_bytes_total",
                                    "Segment bytes scanned at Open", "bytes");
  dropped_tail_records_ = reg.NewCounter(
      "ldphh_store_dropped_tail_records_total",
      "Torn/corrupt active-tail records discarded at Open");
  group_commits_ = reg.NewCounter(
      "ldphh_store_group_commits_total",
      "Group commits (one shared append + sync per group)");
  group_follower_writes_ = reg.NewCounter(
      "ldphh_store_group_follower_writes_total",
      "Write intents acknowledged by another writer's group commit");
  group_commit_writes_ = reg.NewCounter(
      "ldphh_store_group_commit_writes_total",
      "Write intents acknowledged through the group-commit lane");
  group_size_ = reg.NewHistogram(
      "ldphh_store_group_size", "Write intents coalesced per group commit",
      "records");
  put_duration_ns_ = reg.NewHistogram(
      "ldphh_store_put_duration_ns",
      "Put latency (append + sync per sync_mode, possible segment roll)",
      "ns");
  compaction_duration_ns_ = reg.NewHistogram(
      "ldphh_store_compaction_duration_ns",
      "Completed compaction pass duration (write + install + delete)", "ns");
  live_segments_gauge_ =
      reg.NewGauge("ldphh_store_live_segments",
                   "Segments in the current MANIFEST", "segments");
  sealed_segments_gauge_ =
      reg.NewGauge("ldphh_store_sealed_segments",
                   "Live segments no longer written to", "segments");
  sealed_bytes_gauge_ = reg.NewGauge(
      "ldphh_store_sealed_bytes", "Record bytes in sealed segments", "bytes");
  dead_bytes_gauge_ = reg.NewGauge(
      "ldphh_store_dead_bytes",
      "Dead record bytes in sealed segments (compaction runs at half the "
      "sealed bytes)",
      "bytes");
  entries_gauge_ =
      reg.NewGauge("ldphh_store_entries", "Distinct live keys", "keys");
  manifest_sequence_gauge_ =
      reg.NewGauge("ldphh_store_manifest_sequence",
                   "Install generation of the current MANIFEST");
  put_spans_ = obs::SpanSampler::Global().Family("store.put");
  delete_spans_ = obs::SpanSampler::Global().Family("store.delete");
}

StatusOr<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    const std::string& dir, const CheckpointStoreOptions& options) {
  if (options.segment_max_bytes < 1) {
    return Status::InvalidArgument("checkpoint store: segment_max_bytes < 1");
  }
  std::unique_ptr<CheckpointStore> store(
      new CheckpointStore(dir, options));
  {
    // Single-threaded here (no worker exists yet); locked so Recover's
    // guarded-member writes stay inside the analyzed discipline.
    MutexLock lk(&store->mu_);
    LDPHH_RETURN_IF_ERROR(store->Recover());
  }
  if (options.background_compaction) {
    store->compactor_ = std::thread([s = store.get()] { s->BackgroundLoop(); });
  }
  // Admin-plane registrations, installed only once recovery succeeded (a
  // store that never opened is not "unhealthy" — it does not exist).
  store->health_ = obs::HealthRegistry::Global().Register(
      "store:" + dir, [s = store.get()] { return s->WriteHealth(); });
  store->statusz_ = obs::StatuszRegistry::Global().Register(
      "store", [s = store.get()](obs::JsonWriter& w) {
        const CheckpointStoreStats stats = s->Stats();
        w.BeginObject();
        w.Key("dir").String(s->dir_);
        w.Key("sync_mode").String(SyncModeName(s->options_.sync_mode));
        w.Key("live_segments").Uint(stats.live_segments);
        w.Key("sealed_segments").Uint(stats.sealed_segments);
        w.Key("sealed_bytes").Uint(stats.sealed_bytes);
        w.Key("dead_bytes").Uint(stats.dead_bytes);
        w.Key("entries").Uint(stats.entries);
        w.Key("manifest_sequence").Uint(stats.manifest_sequence);
        w.Key("compactions").Uint(stats.compactions);
        w.Key("manifest_installs").Uint(stats.manifest_installs);
        w.Key("puts").Uint(s->puts_->Value());
        w.Key("deletes").Uint(s->deletes_->Value());
        w.Key("appended_bytes").Uint(s->appended_bytes_->Value());
        w.Key("group_commits").Uint(s->group_commits_->Value());
        w.Key("group_commit_writes").Uint(s->group_commit_writes_->Value());
        const Status health = s->WriteHealth();
        w.Key("write_health").String(health.ok() ? "ok" : health.message());
        w.EndObject();
      });
  return store;
}

CheckpointStore::~CheckpointStore() {
  {
    MutexLock lk(&mu_);
    stop_ = true;
    work_cv_.SignalAll();
    idle_cv_.SignalAll();
  }
  if (compactor_.joinable()) compactor_.join();
  IgnoreStatus(active_writer_.Close(),
               "acknowledged writes were already synced per sync_mode; a"
               " destructor has no caller to report to");
}

// ---------------------------------------------------------------- recovery --

Status CheckpointStore::Recover() {
  LDPHH_RETURN_IF_ERROR(fs_->CreateDirectories(dir_));

  // Phase 1: sweep crash debris — a temp MANIFEST whose rename never
  // happened is simply an uninstalled proposal.
  std::vector<std::string> names;
  LDPHH_RETURN_IF_ERROR(fs_->ListDirectory(dir_, &names));
  bool swept = false;
  for (const std::string& name : names) {
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, kStoreTempSuffix) == 0) {
      LDPHH_RETURN_IF_ERROR(fs_->RemoveFile(dir_ + "/" + name));
      swept = true;
    }
  }

  // Phase 2: the MANIFEST names the live segment set.
  const std::string manifest_path = dir_ + "/" + kStoreManifestName;
  auto have_manifest_or = fs_->FileExists(manifest_path);
  LDPHH_RETURN_IF_ERROR(have_manifest_or.status());
  const bool have_manifest = have_manifest_or.value();
  if (have_manifest) {
    StoreManifest manifest;
    LDPHH_RETURN_IF_ERROR(ReadStoreManifest(fs_, manifest_path, &manifest));
    manifest_sequence_ = manifest.sequence;
    next_segment_ = manifest.next_segment;
    active_segment_ = manifest.active_segment;
    live_ = std::move(manifest.live);
  }

  // Phase 3: any segment file the MANIFEST does not list is garbage — an
  // uninstalled compaction output or a superseded input whose deletion did
  // not finish (invariant I3). Without a MANIFEST the directory must hold
  // no segments at all: refuse to guess (and to delete) otherwise.
  for (const std::string& name : names) {
    uint64_t seg = 0;
    if (!ParseStoreSegmentFileName(name, &seg)) continue;
    if (!have_manifest) {
      return Status::FailedPrecondition(
          "checkpoint store: segment files present but no MANIFEST in " + dir_);
    }
    if (live_.count(seg) == 0) {
      LDPHH_RETURN_IF_ERROR(fs_->RemoveFile(dir_ + "/" + name));
      swept = true;
    }
  }
  if (swept) LDPHH_RETURN_IF_ERROR(SyncDirIfDurable());

  if (!have_manifest) {
    // Fresh store: install the first MANIFEST before the active segment
    // receives any record (invariant I2).
    active_segment_ = 1;
    next_segment_ = 2;
    live_.insert(active_segment_);
    LDPHH_RETURN_IF_ERROR(
        InstallManifestLocked(live_, next_segment_, active_segment_));
    return active_writer_.Open(PathOf(active_segment_), fs_,
                               options_.sync_mode);
  }

  // Phase 4: replay every live segment. Order does not matter for
  // correctness — the per-record sequence number decides the winner per key
  // — but ascending order keeps the scan cache-friendly.
  std::map<uint64_t, StoreSegmentEntry> entries;
  std::map<uint64_t, uint64_t> tombstones;
  for (uint64_t seg : live_) {
    LDPHH_RETURN_IF_ERROR(
        ReplaySegment(seg, seg == active_segment_, &entries, &tombstones));
  }
  const uint64_t max_sequence =
      ResolveReplayedEntries(&entries, tombstones, &entries_);
  next_sequence_ = std::max(next_sequence_, max_sequence + 1);
  // ReplaySegment recorded each segment's clean record bytes; whatever no
  // surviving winner accounts for is dead (superseded records, shadowed
  // entries, every tombstone).
  for (auto& [seg, bytes] : segment_bytes_) bytes.dead = bytes.bytes;
  for (const auto& [key, entry] : entries_) {
    segment_bytes_[entry.segment].dead -= RecordBytes(entry.blob.size());
  }

  // Phase 5: never append after recovered bytes — if the old active segment
  // holds data, seal it and roll a fresh one (invariant I4).
  uint64_t active_size = 0;
  auto active_exists_or = fs_->FileExists(PathOf(active_segment_));
  LDPHH_RETURN_IF_ERROR(active_exists_or.status());
  if (active_exists_or.value()) {
    auto size_or = fs_->FileSize(PathOf(active_segment_));
    LDPHH_RETURN_IF_ERROR(size_or.status());
    active_size = size_or.value();
  }
  if (active_size > 0) {
    active_segment_ = next_segment_++;
    live_.insert(active_segment_);
  }
  UpdateSealedBytesLocked();
  // Install a MANIFEST on every recovery, even when nothing rolled (an
  // empty active segment is kept as-is): the bumped install generation
  // tells a tailing replica that a new incarnation owns the directory. A
  // power loss can shrink the active file (dropping unsynced bytes) and a
  // later write regrow it to a size a replica already saw — only the
  // generation bump keeps its "same generation + same size = same content"
  // fast path sound.
  LDPHH_RETURN_IF_ERROR(
      InstallManifestLocked(live_, next_segment_, active_segment_));
  obs::TraceRing::Global().Record("store", "recover", dir_,
                                  recovered_records_->Value(),
                                  manifest_sequence_);
  return active_writer_.Open(PathOf(active_segment_), fs_, options_.sync_mode);
}

Status CheckpointStore::ReplaySegment(uint64_t segment, bool is_active,
                                      std::map<uint64_t, StoreSegmentEntry>* entries,
                                      std::map<uint64_t, uint64_t>* tombstones) {
  const std::string path = PathOf(segment);
  auto exists_or = fs_->FileExists(path);
  LDPHH_RETURN_IF_ERROR(exists_or.status());
  if (!exists_or.value()) {
    // Only the active segment may legitimately not exist yet: it is listed
    // in the MANIFEST before its first byte is written. (A power loss can
    // also drop a created-but-never-synced segment file whole — only ever
    // the active one, whose records were then never acknowledged.)
    if (is_active) return Status::OK();
    return Status::Internal("checkpoint store: live segment missing: " + path);
  }

  StoreSegmentReplayResult replay;
  LDPHH_RETURN_IF_ERROR(ReplayStoreSegment(fs_, path, segment,
                                           /*tolerate_damaged_tail=*/is_active,
                                           entries, tombstones, &replay));
  recovered_records_->Increment(replay.records);
  recovered_bytes_->Increment(replay.clean_end);
  segment_bytes_[segment].bytes = replay.clean_end;
  dropped_tail_records_->Increment(replay.dropped_tail_records);
  if (replay.dropped_tail_records > 0) {
    obs::TraceRing::Global().Record("store", "recovery_dropped_tail", path,
                                    replay.dropped_tail_records,
                                    replay.clean_end);
  }
  const uint64_t clean_end = replay.clean_end;

  // Truncate the active segment at the last clean record so the damaged
  // region cannot shadow future appends (it is sealed right after anyway;
  // the truncation keeps every later replay deterministic — and is
  // idempotent, so a power loss that undoes it is re-handled next Open).
  if (is_active) {
    auto size_or = fs_->FileSize(path);
    if (size_or.ok() && size_or.value() > clean_end) {
      LDPHH_RETURN_IF_ERROR(fs_->Truncate(path, clean_end));
      if (options_.sync_mode != SyncMode::kNone) {
        // Make the truncation stick: the segment is sealed right after,
        // and a resurrected torn tail in a *sealed* segment would read as
        // real corruption on the Open after the next power loss.
        auto file_or = fs_->NewWritableFile(path);
        LDPHH_RETURN_IF_ERROR(file_or.status());
        std::unique_ptr<WritableFile> file = std::move(file_or).value();
        LDPHH_RETURN_IF_ERROR(file->Sync(SyncMode::kFull));
        LDPHH_RETURN_IF_ERROR(file->Close());
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- manifest --

Status CheckpointStore::InstallManifestLocked(const std::set<uint64_t>& live,
                                              uint64_t next_segment,
                                              uint64_t active_segment,
                                              bool abandon_before_rename) {
  const std::string manifest_path = dir_ + "/" + kStoreManifestName;
  const std::string tmp_path = manifest_path + kStoreTempSuffix;
  LDPHH_RETURN_IF_ERROR(fs_->RemoveFile(tmp_path));

  StoreManifest manifest;
  manifest.sequence = manifest_sequence_ + 1;
  manifest.incarnation = incarnation_;
  manifest.next_segment = next_segment;
  manifest.active_segment = active_segment;
  manifest.live = live;
  const std::string payload = EncodeStoreManifest(manifest);

  // The MANIFEST is tiny and installed rarely: always full-sync it (unless
  // the store as a whole opted out of durability). The temp file is synced
  // before the rename so the bytes the new MANIFEST entry points at cannot
  // be lost while the entry survives; the parent directory is synced after
  // the rename so the entry itself cannot be lost (or un-renamed) either.
  const SyncMode manifest_mode = options_.sync_mode == SyncMode::kNone
                                     ? SyncMode::kNone
                                     : SyncMode::kFull;
  CheckpointWriter writer;
  LDPHH_RETURN_IF_ERROR(writer.Open(tmp_path, fs_, manifest_mode));
  LDPHH_RETURN_IF_ERROR(writer.Append(kStoreManifestRecord, payload));
  LDPHH_RETURN_IF_ERROR(writer.Sync());
  LDPHH_RETURN_IF_ERROR(writer.Close());
  if (abandon_before_rename) return Status::OK();

  // Atomic install (invariant I1).
  if (options_.sync_mode == SyncMode::kNone) {
    LDPHH_RETURN_IF_ERROR(fs_->RenameFile(tmp_path, manifest_path));
  } else {
    LDPHH_RETURN_IF_ERROR(fs_->RenameAndSync(tmp_path, manifest_path));
  }
  ++manifest_sequence_;
  manifest_installs_->Increment();
  manifest_sequence_gauge_->Set(static_cast<double>(manifest_sequence_));
  live_segments_gauge_->Set(static_cast<double>(live.size()));
  sealed_segments_gauge_->Set(
      live.empty() ? 0.0 : static_cast<double>(live.size() - 1));
  obs::TraceRing::Global().Record("store", "manifest_install", "",
                                  manifest_sequence_, live.size());
  return Status::OK();
}

// ------------------------------------------------------------------ writes --

Status CheckpointStore::RollActiveLocked() {
  LDPHH_RETURN_IF_ERROR(active_writer_.Close());
  active_segment_ = next_segment_++;
  live_.insert(active_segment_);
  UpdateSealedBytesLocked();  // The old active segment is sealed now.
  // Listed-then-written (invariant I2): the MANIFEST names the new active
  // segment before the segment file exists.
  LDPHH_RETURN_IF_ERROR(
      InstallManifestLocked(live_, next_segment_, active_segment_));
  LDPHH_RETURN_IF_ERROR(
      active_writer_.Open(PathOf(active_segment_), fs_, options_.sync_mode));
  obs::TraceRing::Global().Record("store", "segment_roll", "", active_segment_,
                                  live_.size());
  return Status::OK();
}

void CheckpointStore::UpdateSealedBytesLocked() {
  sealed_bytes_ = 0;
  sealed_dead_bytes_ = 0;
  for (const auto& [seg, bytes] : segment_bytes_) {
    if (seg == active_segment_) continue;
    sealed_bytes_ += bytes.bytes;
    sealed_dead_bytes_ += bytes.dead;
  }
  sealed_bytes_gauge_->Set(static_cast<double>(sealed_bytes_));
  dead_bytes_gauge_->Set(static_cast<double>(sealed_dead_bytes_));
}

bool CheckpointStore::GarbageDueLocked() const {
  return sealed_bytes_ > 0 &&
         static_cast<double>(sealed_dead_bytes_) >=
             kCompactionDeadShare * static_cast<double>(sealed_bytes_);
}

// -------------------------------------------------------------- group lane --

namespace {

/// On-disk size of one encoded store record for a write intent.
size_t EncodedSizeOf(const StoreWrite& w) {
  return RecordBytes(w.is_delete ? 0 : w.blob.size());
}

}  // namespace

Status CheckpointStore::GroupWrite(const StoreWrite* writes, size_t count,
                                   obs::Span& span) {
  size_t bytes = 0;
  for (size_t i = 0; i < count; ++i) bytes += EncodedSizeOf(writes[i]);

  MutexLock lk(&mu_);
  if (!active_writer_.is_open()) {
    return Status::FailedPrecondition("checkpoint store: not open");
  }
  if (group_crashed_) {
    return Status::Internal(
        "checkpoint store: store is down after a simulated group-commit "
        "crash (reopen to recover)");
  }
  PendingWrite w(&mu_, writes, count, bytes);
  group_queue_.push_back(&w);
  {
    // Park until a leader commits this writer's records (done) or the
    // writer reaches the queue front and must lead the next group itself.
    const obs::Span::ChildScope wait = span.Child("group_wait");
    while (!w.done && group_queue_.front() != &w) w.cv.Wait();
  }
  if (w.done) return w.status;
  return LeadGroupCommit(&w, span);
}

Status CheckpointStore::LeadGroupCommit(PendingWrite* self, obs::Span& span) {
  // Oscillation damping: when a full group commits, every member wakes at
  // once, and the first writer to loop back would otherwise lead a group
  // of one — paying a whole sync — while its peers are still mid-wakeup.
  // If the queue is thinner than the group that just committed, give the
  // stragglers one scheduler turn to enqueue before freezing membership.
  // Holding the queue-front position across the unlock keeps this safe
  // (parked writers cannot commit past the leader), and a steadily lone
  // writer never yields: last_group_records_ settles to 1 after one
  // solo commit.
  {
    size_t queued = 0;
    for (const PendingWrite* w : group_queue_) queued += w->count;
    if (queued < last_group_records_) {
      mu_.Unlock();
      std::this_thread::yield();
      mu_.Lock();
    }
  }

  // Coalesce the queue head into one group. The leader (queue front) joins
  // unconditionally — a batch bigger than the bounds still commits whole —
  // and later writers join until a bound would be crossed; whoever is left
  // behind leads the next group.
  std::vector<PendingWrite*> group;
  size_t records = 0;
  size_t bytes = 0;
  for (PendingWrite* w : group_queue_) {
    if (!group.empty() && (records + w->count > options_.group_max_records ||
                           bytes + w->bytes > options_.group_max_bytes)) {
      break;
    }
    group.push_back(w);
    records += w->count;
    bytes += w->bytes;
  }
  last_group_records_ = records;

  // Assign the group's sequence numbers and encode every record into one
  // contiguous buffer under the lock (cheap CPU work; queue order is
  // sequence order). Only the file I/O below runs unlocked.
  const GroupCrashPoint crash =
      group_crash_point_.exchange(GroupCrashPoint::kNone);
  const uint64_t first_sequence = next_sequence_;
  std::string encoded;
  encoded.reserve(bytes);
  size_t half_offset = 0;  // Bytes of the first ~half of the records — the
                           // kAfterPartialAppend torn-group cut.
  size_t encoded_records = 0;
  Status result;
  std::string payload;  // Reused per record: one allocation per group.
  for (PendingWrite* w : group) {
    for (size_t i = 0; i < w->count && result.ok(); ++i) {
      const StoreWrite& intent = w->writes[i];
      const uint64_t sequence = next_sequence_++;
      payload.clear();
      payload.reserve(16 + intent.blob.size());
      PutU64(&payload, intent.key);
      PutU64(&payload, sequence);
      if (!intent.is_delete) {
        payload.append(intent.blob.data(), intent.blob.size());
      }
      result = CheckpointWriter::EncodeRecord(
          intent.is_delete ? kStoreTombstoneRecord : kStoreEntryRecord,
          payload, &encoded);
      ++encoded_records;
      if (encoded_records == (records + 1) / 2) half_offset = encoded.size();
    }
    if (!result.ok()) break;
  }

  if (result.ok()) {
    // The queue-front position is the exclusive-writer token: releasing
    // mu_ here lets new writers enqueue (so groups can actually form
    // behind a slow fsync) while no one else can touch the active writer —
    // every write goes through this lane, rolls happen only here, and
    // compaction never writes the active segment. The alias pointer keeps
    // the unlocked calls outside the analyzed mu_ discipline on purpose.
    CheckpointWriter* writer = &active_writer_;
    mu_.Unlock();
    if (crash != GroupCrashPoint::kAfterEnqueue) {
      const size_t append_bytes = crash == GroupCrashPoint::kAfterPartialAppend
                                      ? half_offset
                                      : encoded.size();
      const uint64_t append_records =
          crash == GroupCrashPoint::kAfterPartialAppend ? (records + 1) / 2
                                                        : records;
      {
        const obs::Span::ChildScope append = span.Child("group_append");
        result = writer->AppendEncoded(
            std::string_view(encoded).substr(0, append_bytes), append_records);
      }
      const bool sync = crash != GroupCrashPoint::kAfterPartialAppend &&
                        crash != GroupCrashPoint::kAfterAppendPreSync;
      if (result.ok() && sync) {
        const obs::Span::ChildScope group_sync = span.Child("group_sync");
        result = writer->Sync();
      }
    }
    mu_.Lock();
  }

  if (crash != GroupCrashPoint::kNone) {
    // Simulated power loss: the process is gone, so nobody is acknowledged
    // — not even writers whose bytes reached the platter (the
    // kAfterSyncPreNotify phase: durable yet unacked, which recovery must
    // still replay). Drain the whole queue, not just the group: every
    // parked writer dies with the "process".
    group_crashed_ = true;
    const Status aborted = Status::Internal(
        "checkpoint store: simulated power loss during group commit");
    while (!group_queue_.empty()) {
      PendingWrite* w = group_queue_.front();
      group_queue_.pop_front();
      w->status = aborted;
      w->done = true;
      if (w != self) w->cv.Signal();
    }
    return aborted;
  }

  if (!result.ok()) {
    // One failed append/sync fails every member of the group — none of
    // their records is known durable (some may still land, as after any
    // failed sync). Nothing is applied in memory; the next group starts
    // clean and heals the write-health latch if it succeeds.
    for (PendingWrite* member : group) {
      group_queue_.pop_front();
      member->status = result;
      member->done = true;
      if (member != self) member->cv.Signal();
    }
    if (!group_queue_.empty()) group_queue_.front()->cv.Signal();
    return result;
  }

  // Durable: apply the group in memory in sequence order, then wake the
  // members. The reserved sequences are contiguous from first_sequence.
  // Each intent kills the record its key won with; a tombstone is dead the
  // moment it is written.
  SegmentBytes& active = segment_bytes_[active_segment_];
  uint64_t sequence = first_sequence;
  for (PendingWrite* w : group) {
    for (size_t i = 0; i < w->count; ++i) {
      const StoreWrite& intent = w->writes[i];
      const auto it = entries_.find(intent.key);
      if (it != entries_.end()) {
        segment_bytes_[it->second.segment].dead +=
            RecordBytes(it->second.blob.size());
      }
      if (intent.is_delete) {
        if (it != entries_.end()) entries_.erase(it);
        active.dead += RecordBytes(0);
      } else {
        StoreSegmentEntry entry;
        entry.sequence = sequence;
        entry.segment = active_segment_;
        entry.blob = std::string(intent.blob);
        entries_[intent.key] = std::move(entry);
      }
      ++sequence;
    }
  }
  active.bytes += encoded.size();
  UpdateSealedBytesLocked();
  appended_bytes_->Increment(encoded.size());
  entries_gauge_->Set(static_cast<double>(entries_.size()));
  group_commits_->Increment();
  group_commit_writes_->Increment(records);
  group_follower_writes_->Increment(records - self->count);
  group_size_->Observe(records);

  Status rolled;
  if (active.bytes >= options_.segment_max_bytes) {
    const obs::Span::ChildScope roll = span.Child("roll");
    rolled = RollActiveLocked();
  }

  // Acknowledge the group. A failed roll does not unwind durability —
  // every record is already synced — so only the leader reports it (and
  // latches write health); the followers' writes genuinely succeeded.
  for (PendingWrite* member : group) {
    group_queue_.pop_front();
    member->status = Status::OK();
    member->done = true;
    if (member != self) member->cv.Signal();
  }
  if (!group_queue_.empty()) group_queue_.front()->cv.Signal();
  return rolled;
}

void CheckpointStore::MaybeSignalCompaction() {
  // Without a background worker nobody waits on work_cv_ for this signal,
  // so skip the extra trip through the (write-contended) store mutex.
  if (!options_.background_compaction) return;
  MutexLock lk(&mu_);
  if (GarbageDueLocked()) work_cv_.Signal();
}

Status CheckpointStore::Put(uint64_t key, std::string_view blob) {
  obs::Span span(put_spans_.get());
  span.set_args(key, blob.size());
  StoreWrite w;
  w.key = key;
  w.blob = blob;
  return Commit(&w, 1, span);
}

Status CheckpointStore::Delete(uint64_t key) {
  obs::Span span(delete_spans_.get());
  span.set_args(key);
  StoreWrite w;
  w.is_delete = true;
  w.key = key;
  return Commit(&w, 1, span);
}

Status CheckpointStore::Apply(const std::vector<StoreWrite>& writes) {
  if (writes.empty()) return Status::OK();
  obs::Span span(put_spans_.get());
  size_t blob_bytes = 0;
  for (const StoreWrite& w : writes) {
    blob_bytes += w.is_delete ? 0 : w.blob.size();
  }
  span.set_args(writes.size(), blob_bytes);
  return Commit(writes.data(), writes.size(), span);
}

Status CheckpointStore::Commit(const StoreWrite* writes, size_t count,
                               obs::Span& span) {
  const Status result = GroupWrite(writes, count, span);
  RecordWriteHealth(result);
  if (!result.ok()) {
    span.set_detail(result.message());
    return result;
  }
  size_t deletes = 0;
  for (size_t i = 0; i < count; ++i) deletes += writes[i].is_delete ? 1 : 0;
  deletes_->Increment(deletes);
  puts_->Increment(count - deletes);
  if (deletes < count) put_duration_ns_->Observe(span.ElapsedNs());
  MaybeSignalCompaction();
  return Status::OK();
}

Status CheckpointStore::WriteHealth() const {
  if (!has_health_error_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lk(&health_mu_);
  return health_error_;
}

void CheckpointStore::RecordWriteHealth(const Status& status) {
  if (status.ok()) {
    // Self-heal: the fault cleared and writes land again.
    if (has_health_error_.load(std::memory_order_relaxed)) {
      MutexLock lk(&health_mu_);
      health_error_ = Status::OK();
      has_health_error_.store(false, std::memory_order_release);
    }
    return;
  }
  MutexLock lk(&health_mu_);
  health_error_ = status;
  has_health_error_.store(true, std::memory_order_release);
}

// ------------------------------------------------------------------- reads --

Status CheckpointStore::Get(uint64_t key, std::string* blob) const {
  MutexLock lk(&mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::OutOfRange("checkpoint store: no entry for key " +
                              std::to_string(key));
  }
  *blob = it->second.blob;
  return Status::OK();
}

bool CheckpointStore::Contains(uint64_t key) const {
  MutexLock lk(&mu_);
  return entries_.count(key) != 0;
}

std::vector<uint64_t> CheckpointStore::Keys() const {
  MutexLock lk(&mu_);
  std::vector<uint64_t> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, state] : entries_) keys.push_back(key);
  return keys;
}

CheckpointStoreStats CheckpointStore::Stats() const {
  MutexLock lk(&mu_);
  CheckpointStoreStats s;
  s.live_segments = live_.size();
  s.sealed_segments = static_cast<uint64_t>(SealedCountLocked());
  s.entries = entries_.size();
  s.compactions = compactions_->Value();
  s.manifest_installs = manifest_installs_->Value();
  s.recovered_records = recovered_records_->Value();
  s.recovered_bytes = recovered_bytes_->Value();
  s.dropped_tail_records = dropped_tail_records_->Value();
  s.manifest_sequence = manifest_sequence_;
  s.group_commits = group_commits_->Value();
  s.group_commit_writes = group_commit_writes_->Value();
  s.sealed_bytes = sealed_bytes_;
  s.dead_bytes = sealed_dead_bytes_;
  return s;
}

// -------------------------------------------------------------- compaction --

Status CheckpointStore::Compact() { return CompactPass(/*respect_trigger=*/false); }

Status CheckpointStore::CompactPass(bool respect_trigger) {
  MutexLock pass_lk(&compaction_mu_);
  const Timer pass_timer;

  const CompactionCrashPoint crash = crash_point_.load();
  std::set<uint64_t> inputs;
  struct Record {
    uint64_t key;
    uint64_t sequence;
    std::string blob;
  };
  std::vector<Record> records;
  uint64_t out_segment = 0;
  {
    MutexLock lk(&mu_);
    if (stop_) return Status::OK();
    for (uint64_t seg : live_) {
      if (seg != active_segment_) inputs.insert(seg);
    }
    if (inputs.empty() || (respect_trigger && !GarbageDueLocked())) {
      return Status::OK();
    }
    for (const auto& [key, state] : entries_) {
      if (inputs.count(state.segment) != 0) {
        records.push_back(Record{key, state.sequence, state.blob});
      }
    }
    // Reserve the output number now; if the pass dies before the MANIFEST
    // install, the numbered file is an unlisted orphan that the next Open
    // deletes before this number could ever be reused.
    out_segment = next_segment_++;
    compacting_ = true;
  }

  // Phase A: write the consolidated snapshot segment — complete and synced
  // (data and directory entry, per sync_mode) — while the store stays fully
  // available (inputs are immutable and new writes land in the active
  // segment, which is not an input). Written-then-listed (invariant I2):
  // nothing may reference this segment until all of it is durable.
  auto done = [&](Status st) {
    {
      MutexLock lk(&mu_);
      compacting_ = false;
      idle_cv_.SignalAll();
    }
    return st;
  };
  const bool have_output = !records.empty();
  uint64_t out_bytes = 0;
  if (have_output) {
    CheckpointWriter writer;
    Status st = writer.Open(PathOf(out_segment), fs_, options_.sync_mode);
    for (const Record& r : records) {
      if (!st.ok()) break;
      std::string payload;
      payload.reserve(16 + r.blob.size());
      PutU64(&payload, r.key);
      PutU64(&payload, r.sequence);
      payload.append(r.blob);
      st = writer.Append(kStoreEntryRecord, payload);
      out_bytes += RecordBytes(r.blob.size());
    }
    if (st.ok()) st = writer.Sync();
    if (st.ok()) st = writer.Close();
    if (!st.ok()) return done(st);
    rewritten_bytes_->Increment(out_bytes);
    obs::TraceRing::Global().Record("store", "compaction_phase_a", "",
                                    out_segment, records.size());
  }
  if (crash == CompactionCrashPoint::kAfterConsolidatedSegment) {
    return done(Status::OK());
  }

  // Phase B: atomically install the MANIFEST that swaps the inputs for the
  // consolidated segment. Split around the rename so the crash tests can
  // observe both halves.
  {
    mu_.Lock();
    std::set<uint64_t> new_live;
    for (uint64_t seg : live_) {
      if (inputs.count(seg) == 0) new_live.insert(seg);
    }
    if (have_output) new_live.insert(out_segment);

    const bool abandon = crash == CompactionCrashPoint::kAfterTempManifest;
    const Status st = InstallManifestLocked(new_live, next_segment_,
                                            active_segment_, abandon);
    if (!st.ok() || abandon) {
      mu_.Unlock();  // done() re-locks mu_ to clear the compacting flag.
      return done(st);
    }

    live_ = std::move(new_live);
    // An output record whose key got a new winner (or was deleted) while
    // the pass ran is dead on arrival: count only the re-pointed winners
    // as live.
    uint64_t out_live = 0;
    for (auto& [key, state] : entries_) {
      if (inputs.count(state.segment) == 0) continue;
      state.segment = out_segment;
      out_live += RecordBytes(state.blob.size());
    }
    for (uint64_t seg : inputs) segment_bytes_.erase(seg);
    if (have_output) {
      segment_bytes_[out_segment] =
          SegmentBytes{out_bytes, out_bytes - out_live};
    }
    UpdateSealedBytesLocked();
    const uint64_t installed_sequence = manifest_sequence_;
    mu_.Unlock();
    compactions_->Increment();
    obs::TraceRing::Global().Record("store", "compaction_phase_b", "",
                                    installed_sequence, inputs.size());
  }
  if (crash == CompactionCrashPoint::kAfterManifestInstall) {
    return done(Status::OK());
  }

  // Phase C: the superseded inputs are now unlisted; delete them, then sync
  // the directory so the deletions stick. A crash (or power loss) here
  // leaves orphans — or resurrects them — for the next Open to sweep
  // (invariant I3).
  for (uint64_t seg : inputs) {
    const Status st = fs_->RemoveFile(PathOf(seg));
    if (!st.ok()) return done(st);
  }
  if (!inputs.empty()) {
    const Status st = SyncDirIfDurable();
    if (!st.ok()) return done(st);
  }
  obs::TraceRing::Global().Record("store", "compaction_phase_c", "",
                                  inputs.size(), out_segment);
  compaction_duration_ns_->Observe(static_cast<uint64_t>(pass_timer.Nanos()));
  return done(Status::OK());
}

void CheckpointStore::BackgroundLoop() {
  mu_.Lock();
  while (!stop_) {
    if (GarbageDueLocked() && !compacting_) {
      mu_.Unlock();
      const Status st = CompactPass(/*respect_trigger=*/true);
      mu_.Lock();
      // On success, re-check immediately (a roll may have raced past the
      // trigger again). A failed pass parks until the next write wakes the
      // thread, so a persistent I/O error cannot busy-spin; the failure
      // itself surfaces via Stats().compactions staying put.
      if (st.ok()) continue;
    }
    work_cv_.Wait();
  }
  mu_.Unlock();
}

Status CheckpointStore::WaitForCompaction() {
  MutexLock lk(&mu_);
  const auto idle = [&]() REQUIRES(mu_) {
    if (compacting_) return false;
    if (!options_.background_compaction) return true;
    return stop_ || !GarbageDueLocked();
  };
  while (!idle()) idle_cv_.Wait();
  return Status::OK();
}

}  // namespace ldphh
