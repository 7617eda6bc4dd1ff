#include "src/server/epoch_manager.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/common/serde.h"
#include "src/common/timer.h"
#include "src/obs/trace.h"
#include "src/protocols/registry.h"

namespace ldphh {

EpochManager::EpochManager(ProtocolConfig config, CheckpointStore* store,
                           EpochManagerOptions options)
    : config_(std::move(config)), store_(store), options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  epoch_close_ns_ = reg.NewHistogram(
      "ldphh_epoch_close_duration_ns",
      "CloseEpoch duration (finish + serialize + durable puts + roll)", "ns");
  epochs_closed_ =
      reg.NewCounter("ldphh_epoch_closed_total", "Epochs closed durably");
  epochs_pruned_ = reg.NewCounter("ldphh_epoch_pruned_total",
                                  "Persisted epochs dropped by retention");
  current_epoch_gauge_ =
      reg.NewGauge("ldphh_epoch_current", "Id of the open epoch");
  open_reports_gauge_ = reg.NewGauge(
      "ldphh_epoch_open_reports", "Reports in the open epoch", "reports");
  close_spans_ = obs::SpanSampler::Global().Family("epoch.close");
  submit_wire_spans_ = obs::SpanSampler::Global().Family("ingest.submit_wire");

  // The /statusz "epoch" section. Reads only gauges/counters (atomics) and
  // the store's thread-safe Keys(), so a scrape never touches the
  // single-threaded control surface.
  statusz_ = obs::StatuszRegistry::Global().Register(
      "epoch", [this](obs::JsonWriter& w) {
        w.BeginObject();
        w.Key("protocol").String(config_.protocol());
        w.Key("current_epoch")
            .Uint(static_cast<uint64_t>(current_epoch_gauge_->Value()));
        w.Key("open_reports")
            .Uint(static_cast<uint64_t>(open_reports_gauge_->Value()));
        w.Key("epochs_closed").Uint(epochs_closed_->Value());
        w.Key("epochs_pruned").Uint(epochs_pruned_->Value());
        const std::vector<uint64_t> persisted = PersistedEpochs();
        w.Key("persisted_epochs").Uint(persisted.size());
        if (!persisted.empty()) {
          w.Key("first_persisted").Uint(persisted.front());
          w.Key("last_persisted").Uint(persisted.back());
        }
        w.EndObject();
      });
}

StatusOr<std::unique_ptr<EpochManager>> EpochManager::Create(
    const ProtocolConfig& config, CheckpointStore* store,
    EpochManagerOptions options) {
  if (store == nullptr) {
    return Status::InvalidArgument("EpochManager: null store");
  }
  if (options.reports_per_epoch == 0) options.reports_per_epoch = 1;
  // Resolve (and validate) the config once through the registry; every
  // epoch's sharded aggregator is then built from the resolved form.
  auto probe_or = CreateAggregator(config);
  LDPHH_RETURN_IF_ERROR(probe_or.status());
  return std::unique_ptr<EpochManager>(
      new EpochManager(probe_or.value()->config(), store, options));
}

EpochManager::~EpochManager() = default;

Status EpochManager::RollAggregator() {
  auto aggregator_or = ShardedAggregator::Create(config_, options_.aggregator);
  LDPHH_RETURN_IF_ERROR(aggregator_or.status());
  aggregator_ = std::move(aggregator_or).value();
  reports_in_epoch_ = 0;
  epoch_opened_at_ = Now();
  current_epoch_gauge_->Set(static_cast<double>(current_epoch_));
  open_reports_gauge_->Set(0.0);
  return aggregator_->Start();
}

std::chrono::steady_clock::time_point EpochManager::Now() const {
  return options_.clock ? options_.clock() : std::chrono::steady_clock::now();
}

bool EpochManager::EpochTimeUp() const {
  return options_.epoch_max_duration.count() > 0 &&
         Now() - epoch_opened_at_ >= options_.epoch_max_duration;
}

Status ParseEpochClock(std::string_view blob, uint64_t* next_epoch) {
  ByteReader reader(blob);
  return reader.ReadU64(next_epoch);
}

Status EpochManager::Start() {
  if (started_) {
    return Status::FailedPrecondition("EpochManager: already started");
  }
  // The epoch clock resumes after the last durable epoch; the open epoch's
  // reports at crash time were never acknowledged as closed, so clients
  // replay them into the new open epoch. The durable clock record carries
  // the high-water mark past retention: with every epoch pruned, the ids
  // already issued must still never be reused.
  current_epoch_ = 0;
  const std::vector<uint64_t> persisted = PersistedEpochs();
  if (!persisted.empty()) current_epoch_ = persisted.back() + 1;
  std::string clock_blob;
  const Status clock = store_->Get(kEpochClockKey, &clock_blob);
  if (clock.ok()) {
    uint64_t next = 0;
    LDPHH_RETURN_IF_ERROR(ParseEpochClock(clock_blob, &next));
    current_epoch_ = std::max(current_epoch_, next);
  } else if (clock.code() != StatusCode::kOutOfRange) {
    return clock;
  }
  started_ = true;
  return RollAggregator();
}

Status EpochManager::CheckIngesting() const {
  if (!started_ || closed_) {
    return Status::FailedPrecondition(
        "EpochManager: Submit outside Start()..Close()");
  }
  return Status::OK();
}

Status EpochManager::Submit(const WireReport& report) {
  LDPHH_RETURN_IF_ERROR(CheckIngesting());
  LDPHH_RETURN_IF_ERROR(RetrySealedEpoch());
  return Ingest({report});
}

Status EpochManager::Ingest(const std::vector<WireReport>& reports) {
  std::vector<WireReport> slice;
  size_t offset = 0;
  while (offset < reports.size()) {
    // The open epoch has room for at least one report: it closes the moment
    // it fills, and a close that failed is retried before any ingest.
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(options_.reports_per_epoch - reports_in_epoch_,
                           reports.size() - offset));
    if (take == reports.size()) {
      LDPHH_RETURN_IF_ERROR(aggregator_->SubmitBatch(reports));
    } else {
      const auto first = reports.begin() + static_cast<ptrdiff_t>(offset);
      slice.assign(first, first + static_cast<ptrdiff_t>(take));
      LDPHH_RETURN_IF_ERROR(aggregator_->SubmitBatch(slice));
    }
    offset += take;
    reports_in_epoch_ += take;
    open_reports_gauge_->Set(static_cast<double>(reports_in_epoch_));
    if (reports_in_epoch_ >= options_.reports_per_epoch || EpochTimeUp()) {
      LDPHH_RETURN_IF_ERROR(CloseEpoch());
    }
  }
  return Status::OK();
}

StatusOr<bool> EpochManager::PollClock() {
  if (!started_ || closed_) {
    return Status::FailedPrecondition(
        "EpochManager: PollClock outside Start()..Close()");
  }
  if (!sealed_blob_.empty()) {
    LDPHH_RETURN_IF_ERROR(RetrySealedEpoch());
    return true;
  }
  if (!EpochTimeUp()) return false;
  LDPHH_RETURN_IF_ERROR(CloseEpoch());
  return true;
}

Status EpochManager::SubmitWire(std::string_view batch) {
  LDPHH_RETURN_IF_ERROR(CheckIngesting());
  LDPHH_RETURN_IF_ERROR(RetrySealedEpoch());
  obs::Span span(submit_wire_spans_.get());
  span.set_args(batch.size());
  std::vector<WireReport> reports;
  LDPHH_RETURN_IF_ERROR(aggregator_->DecodeWire(batch, span, &reports));
  {
    // Includes any epoch close the frame triggers (traced as epoch.close).
    const obs::Span::ChildScope enqueue = span.Child("enqueue");
    LDPHH_RETURN_IF_ERROR(Ingest(reports));
  }
  // Counted on the open epoch's aggregator: the one /statusz shows.
  aggregator_->CountWireBytes(batch.size());
  return Status::OK();
}

Status EpochManager::CloseEpoch() {
  if (!started_ || closed_) {
    return Status::FailedPrecondition(
        "EpochManager: CloseEpoch outside Start()..Close()");
  }
  if (!sealed_blob_.empty()) return RetrySealedEpoch();
  obs::Span span(close_spans_.get());
  const uint64_t count = reports_in_epoch_;
  span.set_args(current_epoch_, count);
  std::unique_ptr<Aggregator> merged;
  {
    const obs::Span::ChildScope finish = span.Child("finish");
    auto merged_or = aggregator_->Finish();
    LDPHH_RETURN_IF_ERROR(merged_or.status());
    merged = std::move(merged_or).value();
  }

  std::string blob;
  {
    const obs::Span::ChildScope serialize = span.Child("serialize");
    PutU32(&blob, kEpochBlobMagic);
    PutU16(&blob, kEpochBlobVersion);
    PutU64(&blob, current_epoch_);
    PutU64(&blob, count);
    config_.AppendTo(&blob);
    LDPHH_RETURN_IF_ERROR(merged->SerializeState(&blob));
  }
  sealed_blob_ = std::move(blob);
  return PersistSealedEpoch(span);
}

Status EpochManager::PersistSealedEpoch(obs::Span& span) {
  {
    // The epoch blob and the clock record commit as one group-commit
    // member: one append + one sync for the pair (possibly shared with
    // concurrent writers), and a segment roll never splits them.
    const obs::Span::ChildScope put = span.Child("put");
    std::string clock_blob;
    PutU64(&clock_blob, current_epoch_ + 1);
    std::vector<StoreWrite> writes(2);
    writes[0].key = current_epoch_;
    writes[0].blob = sealed_blob_;
    writes[1].key = kEpochClockKey;
    writes[1].blob = clock_blob;
    LDPHH_RETURN_IF_ERROR(store_->Apply(writes));
  }
  std::string().swap(sealed_blob_);  // Landed: free the buffer, not just clear.

  epochs_closed_->Increment();
  obs::TraceRing::Global().Record("epoch", "close", "", current_epoch_,
                                  reports_in_epoch_);
  ++current_epoch_;
  Status rolled;
  {
    const obs::Span::ChildScope roll = span.Child("roll");
    rolled = RollAggregator();
  }
  epoch_close_ns_->Observe(span.ElapsedNs());
  return rolled;
}

Status EpochManager::RetrySealedEpoch() {
  if (sealed_blob_.empty()) return Status::OK();
  obs::Span span(close_spans_.get());
  span.set_args(current_epoch_, reports_in_epoch_);
  const Status st = PersistSealedEpoch(span);
  if (!st.ok() && !sealed_blob_.empty()) {
    return Status::ResourceExhausted(
        "EpochManager: epoch " + std::to_string(current_epoch_) +
        " is not durable yet; ingest paused: " + st.message());
  }
  return st;
}

Status EpochManager::Close() {
  if (!started_ || closed_) {
    return Status::FailedPrecondition("EpochManager: Close outside Start()..");
  }
  LDPHH_RETURN_IF_ERROR(RetrySealedEpoch());
  if (reports_in_epoch_ > 0) {
    LDPHH_RETURN_IF_ERROR(CloseEpoch());
  }
  closed_ = true;
  aggregator_.reset();  // Joins the idle workers of the open epoch.
  return Status::OK();
}

StatusOr<std::unique_ptr<Aggregator>> MergeEpochWindow(
    const std::function<Status(uint64_t epoch, std::string* blob)>& get,
    uint64_t first_epoch, uint64_t last_epoch,
    const ProtocolConfig* expected_config) {
  // Process-global: the primary's WindowedQuery and every replica view
  // funnel through this free function, giving one merge-latency
  // distribution per process.
  static const std::shared_ptr<obs::Histogram> merge_ns =
      obs::MetricsRegistry::Global().NewHistogram(
          "ldphh_epoch_window_merge_duration_ns",
          "Windowed-query merge latency (fetch + restore + merge per window)",
          "ns");
  static const std::shared_ptr<obs::SpanFamily> merge_spans =
      obs::SpanSampler::Global().Family("epoch.window_merge");
  obs::Span span(merge_spans.get());
  span.set_args(first_epoch, last_epoch);
  // Per-phase time is summed across the loop and attached as three children
  // at the end — per-epoch children would blow kMaxChildrenPerSpan on a
  // wide window and say less.
  uint64_t fetch_total_ns = 0, restore_total_ns = 0, merge_total_ns = 0;
  struct ObserveOnExit {
    obs::Span& span;
    obs::Histogram& hist;
    uint64_t& fetch_ns;
    uint64_t& restore_ns;
    uint64_t& merge_ns_total;
    ~ObserveOnExit() {
      span.AddChild("fetch", fetch_ns);
      span.AddChild("restore", restore_ns);
      span.AddChild("merge", merge_ns_total);
      hist.Observe(span.ElapsedNs());
    }
  } observe{span, *merge_ns, fetch_total_ns, restore_total_ns,
            merge_total_ns};

  if (first_epoch > last_epoch) {
    return Status::InvalidArgument("epoch window: first_epoch > last_epoch");
  }
  if (last_epoch >= kEpochClockKey) {
    return Status::InvalidArgument("epoch window: epoch id out of range");
  }
  std::unique_ptr<Aggregator> merged;
  for (uint64_t e = first_epoch; e <= last_epoch; ++e) {
    std::string blob;
    const uint64_t fetch_start = obs::SpanNowNs();
    Status st = get(e, &blob);
    fetch_total_ns += obs::SpanNowNs() - fetch_start;
    if (!st.ok()) {
      if (st.code() == StatusCode::kOutOfRange) {
        return Status::OutOfRange("epoch window: epoch " + std::to_string(e) +
                                  " is not persisted (open, never closed, "
                                  "pruned, or not yet tailed)");
      }
      return st;
    }
    ByteReader reader(blob);
    uint32_t magic = 0;
    uint16_t version = 0;
    uint64_t epoch_id = 0, count = 0;
    LDPHH_RETURN_IF_ERROR(reader.ReadU32(&magic));
    if (magic != kEpochBlobMagic) {
      return Status::DecodeFailure("epoch window: bad epoch blob magic");
    }
    LDPHH_RETURN_IF_ERROR(reader.ReadU16(&version));
    if (version != kEpochBlobVersion) {
      return Status::DecodeFailure(
          "epoch window: unsupported epoch blob version");
    }
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&epoch_id));
    if (epoch_id != e) {
      return Status::DecodeFailure("epoch window: epoch blob id mismatch");
    }
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&count));

    // The blob names its own config; the aggregator that decodes it is
    // built from exactly that config by the registry. Nothing upstream
    // chooses the type — a reader cannot mis-merge by misconfiguration.
    ProtocolConfig config;
    LDPHH_RETURN_IF_ERROR(ProtocolConfig::ReadFrom(reader, &config));
    if (expected_config != nullptr && config != *expected_config) {
      return Status::FailedPrecondition(
          "epoch window: epoch " + std::to_string(e) + " was written under " +
          config.ToText() + ", expected " + expected_config->ToText());
    }
    if (merged != nullptr && config != merged->config()) {
      return Status::FailedPrecondition(
          "epoch window: mixed configs (epoch " + std::to_string(e) +
          " was written under " + config.ToText() + ", earlier epochs under " +
          merged->config().ToText() + ")");
    }

    auto oracle_or = CreateAggregator(config);
    LDPHH_RETURN_IF_ERROR(oracle_or.status());
    std::unique_ptr<Aggregator> oracle = std::move(oracle_or).value();
    const uint64_t restore_start = obs::SpanNowNs();
    LDPHH_RETURN_IF_ERROR(
        oracle->RestoreState(std::string_view(blob).substr(reader.position())));
    restore_total_ns += obs::SpanNowNs() - restore_start;
    if (merged == nullptr) {
      merged = std::move(oracle);
    } else {
      const uint64_t merge_start = obs::SpanNowNs();
      LDPHH_RETURN_IF_ERROR(merged->Merge(*oracle));
      merge_total_ns += obs::SpanNowNs() - merge_start;
    }
  }
  return merged;
}

StatusOr<std::unique_ptr<Aggregator>> EpochManager::WindowedQuery(
    uint64_t first_epoch, uint64_t last_epoch) const {
  return MergeEpochWindow(
      [this](uint64_t epoch, std::string* blob) {
        return store_->Get(epoch, blob);
      },
      first_epoch, last_epoch, &config_);
}

Status EpochManager::PruneEpochsBefore(uint64_t first_kept) {
  uint64_t pruned = 0;
  for (uint64_t epoch : PersistedEpochs()) {
    if (epoch >= first_kept) break;
    LDPHH_RETURN_IF_ERROR(store_->Delete(epoch));
    ++pruned;
  }
  if (pruned > 0) {
    epochs_pruned_->Increment(pruned);
    obs::TraceRing::Global().Record("epoch", "prune", "", pruned, first_kept);
  }
  return Status::OK();
}

std::vector<uint64_t> EpochManager::PersistedEpochs() const {
  std::vector<uint64_t> epochs = store_->Keys();
  while (!epochs.empty() && epochs.back() >= kEpochClockKey) epochs.pop_back();
  return epochs;
}

}  // namespace ldphh
