#include "src/server/sharded_aggregator.h"

#include <algorithm>
#include <utility>

#include "src/common/timer.h"
#include "src/ldp/privacy_loss.h"
#include "src/protocols/metrics.h"
#include "src/protocols/registry.h"

namespace ldphh {

ShardedAggregator::ShardedAggregator(
    ProtocolConfig config, uint16_t wire_id,
    std::vector<std::unique_ptr<Aggregator>> oracles,
    ShardedAggregatorOptions options)
    : config_(std::move(config)), wire_id_(wire_id), options_(options) {
  // The served randomizer's per-report budget, for runtime privacy
  // accounting; protocols without an "eps" parameter spend 0 (nothing to
  // account — e.g. a non-private baseline).
  report_epsilon_ = config_.GetDoubleOr("eps", 0.0);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  submitted_ = reg.NewCounter("ldphh_ingest_submitted_reports_total",
                              "Reports accepted by SubmitBatch/SubmitWire");
  rejected_reports_ = reg.NewCounter(
      "ldphh_ingest_rejected_reports_total",
      "Reports the protocol refused (wrong shape for the config)");
  wire_rejected_batches_ = reg.NewCounter(
      "ldphh_ingest_wire_rejected_batches_total",
      "Wire batches rejected before decode (bad stamp or corrupt)");
  wire_decode_ns_ = reg.NewHistogram("ldphh_ingest_wire_decode_duration_ns",
                                     "Wire batch decode latency", "ns");
  batch_aggregate_ns_ = reg.NewHistogram(
      "ldphh_ingest_batch_aggregate_duration_ns",
      "Worker latency aggregating one drained batch", "ns");
  wire_bytes_ = reg.NewCounter("ldphh_ingest_wire_bytes_total",
                               "Wire-format bytes of enqueued batches",
                               "bytes");
  submit_wire_spans_ = obs::SpanSampler::Global().Family("ingest.submit_wire");
  aggregate_spans_ =
      obs::SpanSampler::Global().Family("ingest.aggregate_batch");

  shards_.reserve(oracles.size());
  for (size_t s = 0; s < oracles.size(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->oracle = std::move(oracles[s]);
    shard->queue_depth = reg.NewGauge(
        obs::LabeledName("ldphh_ingest_queue_depth", "shard",
                         std::to_string(s)),
        "Reports queued per shard", "reports");
    shards_.push_back(std::move(shard));
  }

  // The /statusz "ingest" section: identity + the counters above. Reads
  // only registry instruments (atomics), never shard fields, so a scrape
  // needs no shard locks and stays off the workers' necks.
  statusz_ = obs::StatuszRegistry::Global().Register(
      "ingest", [this](obs::JsonWriter& w) {
        w.BeginObject();
        w.Key("protocol").String(config_.protocol());
        w.Key("config").String(config_.ToText());
        w.Key("wire_id").Uint(wire_id_);
        w.Key("num_shards").Uint(static_cast<uint64_t>(options_.num_shards));
        w.Key("submitted").Uint(submitted_->Value());
        w.Key("rejected").Uint(rejected_reports_->Value());
        w.Key("wire_rejected_batches").Uint(wire_rejected_batches_->Value());
        w.Key("queue_depth").BeginArray();
        for (const auto& shard : shards_) {
          w.Uint(static_cast<uint64_t>(shard->queue_depth->Value()));
        }
        w.EndArray();
        // The Table-1 view of the live service, embedded via the shared
        // ToJson so harness runs and the admin plane read the same shape.
        ProtocolMetrics pm;
        pm.server_seconds =
            (wire_decode_ns_->Sum() + batch_aggregate_ns_->Sum()) / 1e9;
        pm.num_users = submitted_->Value();
        pm.comm_bits_total = wire_bytes_->Value() * 8;
        w.Key("protocol_metrics").Raw(pm.ToJson());
        w.EndObject();
      });
}

StatusOr<std::unique_ptr<ShardedAggregator>> ShardedAggregator::Create(
    const ProtocolConfig& config, ShardedAggregatorOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("ShardedAggregator: need >= 1 shard");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "ShardedAggregator: queue capacity must be >= 1");
  }
  if (options.batch_size == 0) options.batch_size = 1;
  std::vector<std::unique_ptr<Aggregator>> oracles;
  oracles.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    auto oracle_or = CreateAggregator(config);
    LDPHH_RETURN_IF_ERROR(oracle_or.status());
    oracles.push_back(std::move(oracle_or).value());
  }
  // Every shard resolved the same input config, so shard 0's resolved
  // config describes them all.
  ProtocolConfig resolved = oracles[0]->config();
  auto wire_id_or = ProtocolRegistry::Global().WireIdOf(resolved.protocol());
  LDPHH_RETURN_IF_ERROR(wire_id_or.status());
  return std::unique_ptr<ShardedAggregator>(
      new ShardedAggregator(std::move(resolved), wire_id_or.value(),
                            std::move(oracles), options));
}

ShardedAggregator::~ShardedAggregator() {
  stop_.store(true);
  for (auto& shard : shards_) {
    {
      // Under the lock so a worker between its predicate check and its
      // Wait() cannot miss the stop wakeup.
      MutexLock lk(&shard->mu);
      shard->not_empty.SignalAll();
    }
    if (shard->worker.joinable()) shard->worker.join();
  }
}

Status ShardedAggregator::Start() {
  if (started_) {
    return Status::FailedPrecondition("ShardedAggregator: already started");
  }
  started_ = true;
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, &shard_ref = *shard] { WorkerLoop(shard_ref); });
  }
  return Status::OK();
}

void ShardedAggregator::WorkerLoop(Shard& shard) {
  std::vector<WireReport> batch;
  batch.reserve(options_.batch_size);
  for (;;) {
    {
      MutexLock lk(&shard.mu);
      while (!(stop_.load(std::memory_order_relaxed) ||
               !shard.queue.empty())) {
        shard.not_empty.Wait();
      }
      // Stopping drains what is queued first; an empty queue here means
      // stop_ is set.
      if (shard.queue.empty()) return;
      batch.clear();
      while (!shard.queue.empty() && batch.size() < options_.batch_size) {
        batch.push_back(shard.queue.front());
        shard.queue.pop_front();
      }
      shard.queue_depth->Set(static_cast<double>(shard.queue.size()));
      shard.busy = true;
    }
    shard.not_full.SignalAll();
    // Aggregation happens outside the queue lock: the oracle is only ever
    // touched by this worker (or by Finish once it is joined).
    // Instrumentation is per-batch (one span + one histogram write per
    // hundreds of reports), keeping the hot path unmeasurable by design;
    // only the slowest batches per family survive in the sampler.
    obs::Span span(aggregate_spans_.get());
    span.set_args(batch.size());
    uint64_t ok = 0, bad = 0;
    for (const WireReport& r : batch) {
      if (shard.oracle->Aggregate(r).ok()) {
        ++ok;
      } else {
        // A structurally invalid report for this config (e.g. a client on
        // the wrong protocol whose batch dodged the wire stamp). The report
        // is dropped and counted; the stream keeps flowing.
        ++bad;
      }
    }
    batch_aggregate_ns_->Observe(span.ElapsedNs());
    if (bad > 0) rejected_reports_->Increment(bad);
    if (ok > 0 && report_epsilon_ > 0.0) {
      PrivacyBudgetLedger::Global().RecordSpend(report_epsilon_, ok,
                                                config_.protocol());
    }
    {
      MutexLock lk(&shard.mu);
      shard.busy = false;
      shard.ingested += ok;
      shard.rejected += bad;
    }
    shard.idle.SignalAll();
  }
}

Status ShardedAggregator::SubmitBatch(const std::vector<WireReport>& reports) {
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "ShardedAggregator: Submit outside Start()..Finish()");
  }
  // Partition once, then append each shard's slice under a single lock
  // acquisition (per-report locking would dominate the cheap oracles).
  std::vector<std::vector<WireReport>> buckets(shards_.size());
  for (auto& b : buckets) b.reserve(reports.size() / shards_.size() + 1);
  for (const WireReport& r : reports) {
    buckets[static_cast<size_t>(ShardOf(r.user_index))].push_back(r);
  }
  // Feed the shards in round-robin passes so every worker gets fed before
  // the producer ever blocks on one full queue (feeding shard-by-shard
  // would serialize the whole batch behind a single worker).
  std::vector<size_t> offsets(shards_.size(), 0);
  size_t pending = 0;
  for (const auto& b : buckets) pending += b.size();
  while (pending > 0) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      const auto& bucket = buckets[s];
      size_t& offset = offsets[s];
      if (offset == bucket.size()) continue;
      Shard& shard = *shards_[s];
      size_t take;
      {
        MutexLock lk(&shard.mu);
        while (shard.queue.size() >= options_.queue_capacity) {
          shard.not_full.Wait();
        }
        take = std::min(options_.queue_capacity - shard.queue.size(),
                        bucket.size() - offset);
        shard.queue.insert(shard.queue.end(),
                           bucket.begin() + static_cast<ptrdiff_t>(offset),
                           bucket.begin() + static_cast<ptrdiff_t>(offset + take));
        shard.queue_depth->Set(static_cast<double>(shard.queue.size()));
      }
      shard.not_empty.Signal();
      offset += take;
      pending -= take;
    }
  }
  submitted_->Increment(reports.size());
  return Status::OK();
}

Status ShardedAggregator::DecodeWire(std::string_view batch, obs::Span& span,
                                     std::vector<WireReport>* reports) {
  const Timer decode_timer;
  Status decoded;
  {
    const obs::Span::ChildScope decode = span.Child("decode");
    decoded =
        DecodeReportBatchFor(batch, wire_id_, config_.protocol(), reports);
  }
  wire_decode_ns_->Observe(static_cast<uint64_t>(decode_timer.Nanos()));
  if (!decoded.ok()) {
    wire_rejected_batches_->Increment();
    span.set_detail(decoded.message());
  }
  return decoded;
}

Status ShardedAggregator::SubmitWire(std::string_view batch) {
  obs::Span span(submit_wire_spans_.get());
  span.set_args(batch.size());
  std::vector<WireReport> reports;
  LDPHH_RETURN_IF_ERROR(DecodeWire(batch, span, &reports));
  const obs::Span::ChildScope enqueue = span.Child("enqueue");
  LDPHH_RETURN_IF_ERROR(SubmitBatch(reports));
  CountWireBytes(batch.size());
  return Status::OK();
}

// Thread-safety analysis is off here because the function locks a *set* of
// shard mutexes chosen at runtime — beyond what the annotations can
// express. The locking is sound: mutexes are acquired in ascending shard
// order (every other path locks at most one shard mutex at a time, so no
// cycle is possible) and each is released exactly once on both the success
// and the busy path, before any condition-variable signaling.
Status ShardedAggregator::TrySubmitBatch(const std::vector<WireReport>& reports)
    NO_THREAD_SAFETY_ANALYSIS {
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "ShardedAggregator: Submit outside Start()..Finish()");
  }
  if (reports.empty()) return Status::OK();
  std::vector<std::vector<WireReport>> buckets(shards_.size());
  for (const WireReport& r : reports) {
    buckets[static_cast<size_t>(ShardOf(r.user_index))].push_back(r);
  }
  // All-or-nothing: take every target shard's lock (ascending order),
  // check that every slice fits, and only then insert any of them.
  std::vector<size_t> locked;
  locked.reserve(shards_.size());
  bool fits = true;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    shards_[s]->mu.Lock();
    locked.push_back(s);
    if (shards_[s]->queue.size() + buckets[s].size() >
        options_.queue_capacity) {
      fits = false;
      break;
    }
  }
  if (!fits) {
    for (const size_t s : locked) shards_[s]->mu.Unlock();
    return Status::ResourceExhausted(
        "ShardedAggregator: shard queue full, retry later");
  }
  for (const size_t s : locked) {
    Shard& shard = *shards_[s];
    shard.queue.insert(shard.queue.end(), buckets[s].begin(),
                       buckets[s].end());
    shard.queue_depth->Set(static_cast<double>(shard.queue.size()));
    shard.mu.Unlock();
  }
  for (const size_t s : locked) shards_[s]->not_empty.Signal();
  submitted_->Increment(reports.size());
  return Status::OK();
}

Status ShardedAggregator::TrySubmitWire(std::string_view batch) {
  obs::Span span(submit_wire_spans_.get());
  span.set_args(batch.size());
  std::vector<WireReport> reports;
  LDPHH_RETURN_IF_ERROR(DecodeWire(batch, span, &reports));
  const obs::Span::ChildScope enqueue = span.Child("enqueue");
  // A busy batch comes back through here on retry; CountWireBytes only on
  // success keeps it from being counted every attempt.
  LDPHH_RETURN_IF_ERROR(TrySubmitBatch(reports));
  CountWireBytes(batch.size());
  return Status::OK();
}

Status ShardedAggregator::Drain() {
  if (!started_) {
    return Status::FailedPrecondition("ShardedAggregator: Drain before Start");
  }
  for (auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    while (!shard->queue.empty() || shard->busy) {
      shard->idle.Wait();
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Aggregator>> ShardedAggregator::Finish() {
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "ShardedAggregator: Finish outside Start()..Finish()");
  }
  LDPHH_RETURN_IF_ERROR(Drain());
  finished_ = true;
  stop_.store(true);
  for (auto& shard : shards_) {
    {
      // Under the lock so a worker between its predicate check and its
      // Wait() cannot miss the stop wakeup.
      MutexLock lk(&shard->mu);
      shard->not_empty.SignalAll();
    }
    if (shard->worker.joinable()) shard->worker.join();
  }
  std::unique_ptr<Aggregator> merged = std::move(shards_[0]->oracle);
  for (size_t s = 1; s < shards_.size(); ++s) {
    LDPHH_RETURN_IF_ERROR(merged->Merge(*shards_[s]->oracle));
    shards_[s]->oracle.reset();
  }
  return merged;
}

IngestStats ShardedAggregator::Stats() const {
  IngestStats stats;
  stats.submitted = submitted_->Value();
  stats.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    stats.per_shard.push_back(shard->ingested);
    stats.rejected += shard->rejected;
  }
  return stats;
}

}  // namespace ldphh
