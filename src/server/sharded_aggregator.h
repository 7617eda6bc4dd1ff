/// \file sharded_aggregator.h
/// \brief Multi-threaded sharded report-ingestion service.
///
/// Simulates the server side of an LDP deployment under heavy traffic:
/// incoming `WireReport`s are partitioned across N worker shards by a hash
/// of the user index. Each shard owns a bounded MPSC queue and an
/// independent `Aggregator` instance built by the protocol registry from
/// one `ProtocolConfig` — so every registered protocol (frequency oracles
/// and heavy-hitter protocols alike) serves through the same machinery,
/// and all shards are identically configured by construction. A worker
/// thread drains its queue in batches and aggregates locally with no
/// cross-shard synchronization on the hot path. `Finish()` merges the
/// shard states with `Aggregator::Merge` into one instance whose
/// estimates are bit-for-bit those of a single-threaded aggregation of
/// the same reports.
///
/// Durability lives one layer up: `EpochManager` (epoch_manager.h) persists
/// each closed epoch's merged `Finish()` state as a self-describing epoch
/// blob through `CheckpointStore` — the one durable format for aggregator
/// state.
///
/// Wire safety: `SubmitWire` rejects a batch stamped with a different
/// protocol's wire id (see report_codec.h) before decoding a single
/// report into the shards.

#ifndef LDPHH_SERVER_SHARDED_AGGREGATOR_H_
#define LDPHH_SERVER_SHARDED_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/statusz.h"
#include "src/protocols/aggregator.h"
#include "src/protocols/protocol_config.h"
#include "src/server/report_codec.h"

namespace ldphh {

/// Tuning for ShardedAggregator.
struct ShardedAggregatorOptions {
  int num_shards = 4;           ///< Worker shard count (>= 1).
  size_t queue_capacity = 4096; ///< Per-shard queue bound; SubmitBatch blocks when full.
  size_t batch_size = 256;      ///< Max reports a worker drains per lock acquisition.
};

/// Ingestion counters (read after Drain/Finish for a consistent view).
struct IngestStats {
  uint64_t submitted = 0;               ///< Reports accepted by Submit*.
  uint64_t rejected = 0;                ///< Reports the protocol refused
                                        ///< (wrong shape for the config).
  std::vector<uint64_t> per_shard;      ///< Reports aggregated per shard.
};

/// \brief The sharded ingestion service.
class ShardedAggregator {
 public:
  /// Builds the service: one registry-created `Aggregator` per shard, all
  /// from \p config (auto parameters resolve identically on every shard).
  /// Fails on an unknown protocol or invalid config/options.
  static StatusOr<std::unique_ptr<ShardedAggregator>> Create(
      const ProtocolConfig& config, ShardedAggregatorOptions options);

  ~ShardedAggregator();
  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Spawns the worker threads. Call once.
  Status Start();

  /// Enqueues a batch (thread-safe; blocks while a target queue is full).
  /// Reports are routed by a hash of the user index; each shard's slice is
  /// appended under one lock acquisition and one worker wake-up.
  Status SubmitBatch(const std::vector<WireReport>& reports);

  /// Decodes a wire-format batch (see report_codec.h) and enqueues it.
  /// Corrupt input is rejected whole, with no partial ingestion; a batch
  /// stamped for a different protocol is rejected before decode.
  Status SubmitWire(std::string_view batch);

  /// Non-blocking, all-or-nothing SubmitBatch: enqueues the whole batch iff
  /// every target shard queue has room for its slice *right now*; otherwise
  /// enqueues nothing and returns kResourceExhausted (retryable — nothing
  /// was consumed). This is the ingestion path for network servers, which
  /// must answer "busy" instead of parking an event-loop thread on a full
  /// queue. A batch whose per-shard slice exceeds `queue_capacity` can
  /// never fit and always gets kResourceExhausted; network callers bound
  /// their batch sizes accordingly.
  Status TrySubmitBatch(const std::vector<WireReport>& reports);

  /// Decodes a wire-format batch and TrySubmitBatch-es it. Decode errors
  /// are permanent (kDecodeFailure / kInvalidArgument); a full queue is
  /// kResourceExhausted and the caller may retry the same bytes.
  Status TrySubmitWire(std::string_view batch);

  /// The instrumented wire decode behind SubmitWire, TrySubmitWire and
  /// EpochManager::SubmitWire (which hands the reports on in epoch slices):
  /// DecodeReportBatchFor against this protocol's wire id, timed into
  /// ldphh_ingest_wire_decode_duration_ns and a "decode" child of \p span.
  /// A batch that is corrupt or stamped for another protocol appends
  /// nothing and is counted in ldphh_ingest_wire_rejected_batches_total.
  Status DecodeWire(std::string_view batch, obs::Span& span,
                    std::vector<WireReport>* reports);

  /// Counts \p bytes of wire input whose reports were all enqueued
  /// (ldphh_ingest_wire_bytes_total; /statusz comm_bits_total). Callers of
  /// DecodeWire count once the enqueue succeeded, so a busy batch that is
  /// retried is counted once.
  void CountWireBytes(size_t bytes) { wire_bytes_->Increment(bytes); }

  /// Blocks until every queue is empty and every worker is idle.
  Status Drain();

  /// Stops the workers and merges all shard states into one aggregator,
  /// which is returned un-finalized, so the caller may serialize or merge
  /// it further before calling EstimateTopK(). The service is spent
  /// afterwards.
  StatusOr<std::unique_ptr<Aggregator>> Finish();

  /// Counters; call Drain() first for a consistent snapshot.
  IngestStats Stats() const;

  /// The resolved protocol config every shard was built from.
  const ProtocolConfig& config() const { return config_; }
  /// The served protocol's wire id (stamped on batches by clients).
  uint16_t wire_id() const { return wire_id_; }

  int num_shards() const { return options_.num_shards; }
  /// Shard a user index routes to.
  int ShardOf(uint64_t user_index) const {
    return static_cast<int>(Mix64(user_index) %
                            static_cast<uint64_t>(options_.num_shards));
  }

 private:
  struct Shard {
    mutable Mutex mu;
    CondVar not_empty{&mu};
    CondVar not_full{&mu};
    CondVar idle{&mu};  ///< Signaled when queue empty and worker idle.
    std::deque<WireReport> queue GUARDED_BY(mu);
    bool busy GUARDED_BY(mu) = false;  ///< Worker is aggregating a batch.
    uint64_t ingested GUARDED_BY(mu) = 0;
    uint64_t rejected GUARDED_BY(mu) = 0;
    /// Deliberately not guarded by mu: the oracle is touched only by the
    /// owning worker outside the queue lock, or by Finish once the worker
    /// is joined — an ownership handoff, not a shared-state protocol.
    std::unique_ptr<Aggregator> oracle;
    std::shared_ptr<obs::Gauge> queue_depth;  ///< ldphh_ingest_queue_depth{shard=}.
    std::thread worker;
  };

  ShardedAggregator(ProtocolConfig config, uint16_t wire_id,
                    std::vector<std::unique_ptr<Aggregator>> oracles,
                    ShardedAggregatorOptions options);

  void WorkerLoop(Shard& shard);

  ProtocolConfig config_;
  uint16_t wire_id_ = 0;
  ShardedAggregatorOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool finished_ = false;
  /// Per-report privacy budget of the served randomizer (config "eps");
  /// 0 when the protocol does not declare one.
  double report_epsilon_ = 0.0;

  // Registry instruments. IngestStats is a thin snapshot of these (plus the
  // per-shard counters above); `submitted_` lives here rather than as a raw
  // atomic so the process-wide exposition sees it too.
  std::shared_ptr<obs::Counter> submitted_;
  std::shared_ptr<obs::Counter> rejected_reports_;
  std::shared_ptr<obs::Counter> wire_rejected_batches_;
  std::shared_ptr<obs::Counter> wire_bytes_;
  std::shared_ptr<obs::Histogram> wire_decode_ns_;
  std::shared_ptr<obs::Histogram> batch_aggregate_ns_;
  /// Slow-span families for the two ingest hot paths (served at /spanz).
  std::shared_ptr<obs::SpanFamily> submit_wire_spans_;
  std::shared_ptr<obs::SpanFamily> aggregate_spans_;
  /// Declared last: unregisters (and thus stops /statusz callbacks into
  /// this object) before any member the callback reads is destroyed.
  obs::StatuszRegistry::Registration statusz_;
};

}  // namespace ldphh

#endif  // LDPHH_SERVER_SHARDED_AGGREGATOR_H_
