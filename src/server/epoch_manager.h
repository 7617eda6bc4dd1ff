/// \file epoch_manager.h
/// \brief Epoch-windowed continuous aggregation on top of ShardedAggregator
/// and the segment store (src/store/checkpoint_store.h).
///
/// The paper's protocols are one-shot: n reports in, one estimate set out.
/// A production service ingests forever and is asked "what are the heavy
/// hitters over the last k epochs?". The EpochManager makes that query
/// exact: it rolls the sharded aggregator over fixed-size report epochs,
/// and each CloseEpoch() persists the epoch's *merged* aggregator state —
/// bit-for-bit equal to a single-threaded aggregation of the epoch's
/// reports — into the store keyed by epoch id. WindowedQuery(first, last)
/// then merges the persisted states back into one aggregator whose
/// estimates are bit-for-bit identical to re-aggregating those epochs'
/// reports from scratch, because every registered protocol's state is an
/// integer-valued tally (or a report list), so Merge is exact and
/// associative.
///
/// Self-describing records: every epoch blob embeds the serialized
/// `ProtocolConfig` it was aggregated under. The read path
/// (`MergeEpochWindow`, shared with the replica) reconstructs the
/// aggregator from the embedded config via the registry — no caller-
/// supplied factory anywhere — and a window mixing configs, or a primary
/// querying epochs written under a different config, fails with a clean
/// `Status` instead of silently merging incompatible state.
///
/// Durability contract: a closed epoch survives any crash — including OS
/// crash and power loss when the store runs with SyncMode::kFull/kData
/// (the default): CloseEpoch's store Puts are fsync'd through the file
/// layer before it returns. Under SyncMode::kNone the epoch is only
/// process-crash safe. Reports of the *open* epoch follow the PR 1
/// recovery model: clients replay anything submitted after the last
/// CloseEpoch.
///
/// A close whose store write fails returns that error and keeps the sealed
/// epoch's blob. The next Submit, SubmitWire, CloseEpoch, PollClock or
/// Close retries the write first and opens the next epoch only once it
/// lands; while the retry still fails, the call ingests nothing and returns
/// kResourceExhausted, which the report server acks as retryable busy.
///
/// Ingest: Submit and SubmitWire share one routine that hands the shards
/// one ShardedAggregator::SubmitBatch per epoch slice. A frame that fits
/// the open epoch is one slice, enqueued as decoded; a frame that crosses
/// the count boundary is split there, the full epoch closes between its
/// slices, and the rest opens the next epoch.
///
/// Thread-safety: the control surface (Submit/CloseEpoch/Close) is
/// single-threaded, like ShardedAggregator's Start/Finish; aggregation
/// itself fans out across the shard workers. WindowedQuery only touches
/// the store (thread-safe) and may run concurrently with ingestion.

#ifndef LDPHH_SERVER_EPOCH_MANAGER_H_
#define LDPHH_SERVER_EPOCH_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/protocols/aggregator.h"
#include "src/protocols/protocol_config.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"

namespace ldphh {

/// Tuning for EpochManager.
struct EpochManagerOptions {
  /// Reports per epoch; ingest auto-closes the epoch at exactly this count.
  uint64_t reports_per_epoch = 1 << 16;
  /// Wall-clock roll policy, alongside the count-based one: close the open
  /// epoch once it has been open at least this long. Zero disables. The
  /// elapsed time is checked after every epoch slice (so after every
  /// Submit, and after a whole SubmitWire frame) and by PollClock() — a
  /// quiet stream needs the caller's PollClock cadence (e.g. a timer) to
  /// roll on time.
  std::chrono::milliseconds epoch_max_duration{0};
  /// Injectable time source for the wall-clock policy (tests substitute a
  /// fake); null means std::chrono::steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Shard configuration for the per-epoch aggregator.
  ShardedAggregatorOptions aggregator;
};

/// \brief Continuous ingestion with durable, queryable epochs.
class EpochManager {
 public:
  /// \p store must outlive the manager; the manager owns its key space
  /// (keys are epoch ids). The \p config is resolved through the registry
  /// once here; every epoch's aggregator is built from the resolved form.
  static StatusOr<std::unique_ptr<EpochManager>> Create(
      const ProtocolConfig& config, CheckpointStore* store,
      EpochManagerOptions options);

  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Recovers the epoch clock from the store (next epoch = last persisted
  /// + 1) and starts the aggregator for the open epoch. Call once.
  Status Start();

  /// Ingests one report into the open epoch (a slice of one); closes the
  /// epoch when it reaches reports_per_epoch or its wall-clock deadline.
  Status Submit(const WireReport& report);

  /// Decodes a wire-format batch (report_codec.h) through the aggregator's
  /// instrumented decode and ingests it in epoch slices. A batch that is
  /// corrupt or stamped for a different protocol is rejected whole, before
  /// any report reaches a shard.
  Status SubmitWire(std::string_view batch);

  /// Snapshots the open epoch's merged aggregator state into the store
  /// under the current epoch id (durable on return, config embedded), then
  /// opens the next epoch. Closing an epoch with zero reports is allowed
  /// (a quiet period). After a failed close, this call only retries that
  /// epoch's write.
  Status CloseEpoch();

  /// Wall-clock roll for quiet streams: closes the open epoch iff
  /// epoch_max_duration is set and has elapsed (even with zero reports —
  /// a quiet period is still an epoch). Returns whether it rolled.
  StatusOr<bool> PollClock();

  /// Closes the open epoch if it holds any reports, then stops ingestion.
  /// Further Submit/CloseEpoch calls fail.
  Status Close();

  /// Merges the persisted states of epochs [first, last] (inclusive) into
  /// one un-finalized aggregator: call EstimateTopK() on it. Bit-for-bit
  /// identical to a fresh single-threaded aggregation of those epochs'
  /// reports. Fails with kOutOfRange if any epoch in the window is not
  /// persisted (never closed, or pruned), and with kFailedPrecondition if
  /// a persisted epoch was written under a different config.
  StatusOr<std::unique_ptr<Aggregator>> WindowedQuery(
      uint64_t first_epoch, uint64_t last_epoch) const;

  /// Drops persisted epochs with id < \p first_kept (durable tombstones;
  /// segment compaction reclaims the space).
  Status PruneEpochsBefore(uint64_t first_kept);

  /// Epoch ids currently persisted, ascending.
  std::vector<uint64_t> PersistedEpochs() const;

  /// The resolved protocol config every epoch aggregates under.
  const ProtocolConfig& config() const { return config_; }

  /// Id of the open epoch.
  uint64_t current_epoch() const { return current_epoch_; }
  /// Reports ingested into the open epoch so far.
  uint64_t reports_in_current_epoch() const { return reports_in_epoch_; }

 private:
  EpochManager(ProtocolConfig config, CheckpointStore* store,
               EpochManagerOptions options);

  Status CheckIngesting() const;
  /// Persists sealed_blob_ with the epoch clock as one store write, then
  /// opens the next epoch. A failed write keeps sealed_blob_ for a retry.
  Status PersistSealedEpoch(obs::Span& span);
  /// Retries the write of an epoch whose close failed, if any; OK once it
  /// lands, kResourceExhausted while it still fails.
  Status RetrySealedEpoch();
  /// The one ingest routine: one SubmitBatch per epoch slice of \p reports,
  /// closing each epoch that fills or outlives epoch_max_duration.
  Status Ingest(const std::vector<WireReport>& reports);
  Status RollAggregator();
  std::chrono::steady_clock::time_point Now() const;
  bool EpochTimeUp() const;

  ProtocolConfig config_;
  CheckpointStore* store_;
  EpochManagerOptions options_;
  std::unique_ptr<ShardedAggregator> aggregator_;
  /// Blob of the sealed epoch current_epoch_ while its store write is
  /// pending after a failure; empty otherwise.
  std::string sealed_blob_;
  uint64_t current_epoch_ = 0;
  uint64_t reports_in_epoch_ = 0;
  std::chrono::steady_clock::time_point epoch_opened_at_{};
  bool started_ = false;
  bool closed_ = false;

  // Registry instruments for the epoch lifecycle.
  std::shared_ptr<obs::Histogram> epoch_close_ns_;
  std::shared_ptr<obs::Counter> epochs_closed_;
  std::shared_ptr<obs::Counter> epochs_pruned_;
  std::shared_ptr<obs::Gauge> current_epoch_gauge_;
  std::shared_ptr<obs::Gauge> open_reports_gauge_;
  /// Slow-span families for CloseEpoch and SubmitWire (served at /spanz).
  std::shared_ptr<obs::SpanFamily> close_spans_;
  std::shared_ptr<obs::SpanFamily> submit_wire_spans_;
  /// Declared last: unregisters (stopping /statusz callbacks into this
  /// object) before any member the callback reads is destroyed.
  obs::StatuszRegistry::Registration statusz_;
};

/// Epoch snapshot blob layout (the value stored under an epoch id):
///   [u32 magic "EPCH"][u16 version][u64 epoch_id][u64 report_count]
///   [protocol config (varint length + canonical text)]
///   [aggregator state]
/// v2 added the embedded config, making every epoch record self-describing.
inline constexpr uint32_t kEpochBlobMagic = 0x48435045u;  // "EPCH" LE.
inline constexpr uint16_t kEpochBlobVersion = 2;

/// Reserved store key holding the durable epoch clock ([u64 next epoch]):
/// the high-water mark survives even when retention prunes every epoch, so
/// a restart never re-issues an epoch id. Epoch ids must stay below it.
inline constexpr uint64_t kEpochClockKey = UINT64_MAX;

/// Decodes the kEpochClockKey blob ([u64 next epoch]).
Status ParseEpochClock(std::string_view blob, uint64_t* next_epoch);

/// Merges the persisted states of epochs [first, last] (inclusive), each
/// fetched through \p get (a CheckpointStore::Get on the primary, a
/// ReplicaStore::Get on a follower — src/server/replica_view.h), into one
/// un-finalized aggregator. The blobs are self-describing: each aggregator
/// is built by the registry from the config embedded in the blob, so the
/// shared read path needs no factory and both sides decode and merge
/// identically — bit for bit. Every epoch in the window must carry the
/// same config (and match \p expected_config when non-null); a mismatch is
/// kFailedPrecondition. \p get returning kOutOfRange for any epoch in the
/// window (never closed, pruned, or not yet tailed) maps to kOutOfRange.
StatusOr<std::unique_ptr<Aggregator>> MergeEpochWindow(
    const std::function<Status(uint64_t epoch, std::string* blob)>& get,
    uint64_t first_epoch, uint64_t last_epoch,
    const ProtocolConfig* expected_config);

}  // namespace ldphh

#endif  // LDPHH_SERVER_EPOCH_MANAGER_H_
