// Continuous heavy hitters over epochs — the always-on telemetry story.
//
// The one-shot protocols answer "what are the heavy hitters among these n
// reports?"; an operator of a live service asks "what were the heavy
// hitters over the last k hours?" This demo runs the epoch layer end to
// end, configured by a single self-describing ProtocolConfig: a fleet of
// LDP clients streams reports into an EpochManager, which rolls the sharded
// aggregator over fixed-size epochs and persists each closed epoch's
// mergeable state — config embedded, so every record on disk names its own
// protocol — into the compacting segment store. Mid-stream the service is
// killed outright; recovery resumes the epoch clock from the store (with
// the segment files it finds, compaction debris and all) and the traffic of
// the interrupted epoch is replayed. Windowed queries over any closed-epoch
// range then answer bit-for-bit what a crash-free single-threaded server
// aggregating exactly those epochs' reports would have said — while old
// epochs are pruned and compacted away to keep the disk footprint bounded.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/ldphh.h"

namespace {

double EstimateOf(const std::vector<ldphh::HeavyHitterEntry>& entries,
                  uint64_t value) {
  for (const auto& e : entries) {
    if (e.item == ldphh::DomainItem(value)) return e.estimate;
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace ldphh;
  const uint64_t kDomain = 512;
  const uint64_t kEpochSize = 1 << 15;  // Reports per epoch.
  const uint64_t kEpochs = 12;
  const std::string dir = "/tmp/ldphh_continuous_hh_store";
  std::filesystem::remove_all(dir);

  const ProtocolConfig config =
      std::move(ProtocolConfig::FromText("hadamard_response(domain=512,eps=1)"))
          .value();

  // --- client fleet: the popular value drifts over time -------------------
  // Epochs 0-5 are dominated by value 42, epochs 6-11 by value 311 — the
  // windowed queries below see the change, a whole-history aggregate blurs it.
  std::printf("encoding %llu reports across %llu epochs...\n",
              static_cast<unsigned long long>(kEpochs * kEpochSize),
              static_cast<unsigned long long>(kEpochs));
  auto client = std::move(CreateAggregator(config)).value();
  Rng rng(17);
  std::vector<WireReport> reports(kEpochs * kEpochSize);
  for (uint64_t i = 0; i < reports.size(); ++i) {
    const uint64_t epoch = i / kEpochSize;
    const uint64_t hot = epoch < kEpochs / 2 ? 42 : 311;
    const uint64_t value = rng.Bernoulli(0.25) ? hot : rng.UniformU64(kDomain);
    auto report_or = client->Encode(i, DomainItem(value), rng);
    if (!report_or.ok()) return 1;
    reports[i] = report_or.value();
  }

  CheckpointStoreOptions store_opts;
  store_opts.segment_max_bytes = 8 << 10;  // Small segments: many of them.
  EpochManagerOptions epoch_opts;
  epoch_opts.reports_per_epoch = kEpochSize;
  epoch_opts.aggregator.num_shards = 4;

  // --- phase 1: ingest 7.5 epochs, then the server dies -------------------
  const size_t crash_at = 7 * kEpochSize + kEpochSize / 2;
  {
    auto store_or = CheckpointStore::Open(dir, store_opts);
    if (!store_or.ok()) return 1;
    auto store = std::move(store_or).value();
    auto service_or = EpochManager::Create(config, store.get(), epoch_opts);
    if (!service_or.ok()) return 1;
    auto service = std::move(service_or).value();
    if (!service->Start().ok()) return 1;
    for (size_t i = 0; i < crash_at; ++i) {
      if (!service->Submit(reports[i]).ok()) return 1;
    }
    const auto stats = store->Stats();
    std::printf(
        "phase 1: %llu epochs closed (%llu segment files, %llu compactions), "
        "then the server crashes mid-epoch-7.\n",
        static_cast<unsigned long long>(service->current_epoch()),
        static_cast<unsigned long long>(stats.live_segments),
        static_cast<unsigned long long>(stats.compactions));
    // Killed here: the open epoch's 16k reports were never acknowledged.
  }

  // --- phase 2: recover, replay epoch 7's traffic, finish the stream ------
  auto store_or = CheckpointStore::Open(dir, store_opts);
  if (!store_or.ok()) {
    std::printf("recovery failed: %s\n", store_or.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(store_or).value();
  auto service_or = EpochManager::Create(config, store.get(), epoch_opts);
  if (!service_or.ok()) return 1;
  auto service = std::move(service_or).value();
  if (!service->Start().ok()) return 1;
  std::printf("phase 2: recovered %llu closed epochs; epoch clock resumes at %llu\n",
              static_cast<unsigned long long>(service->PersistedEpochs().size()),
              static_cast<unsigned long long>(service->current_epoch()));
  if (service->current_epoch() != 7) return 1;
  for (size_t i = 7 * kEpochSize; i < reports.size(); ++i) {
    if (!service->Submit(reports[i]).ok()) return 1;
  }

  // --- windowed queries vs. a crash-free single-threaded baseline ---------
  auto baseline = [&](uint64_t first, uint64_t last) {
    auto oracle = std::move(CreateAggregator(config)).value();
    for (uint64_t i = first * kEpochSize; i < (last + 1) * kEpochSize; ++i) {
      if (!oracle->Aggregate(reports[i]).ok()) std::abort();
    }
    return oracle;
  };
  bool identical = true;
  struct Window {
    uint64_t first, last;
    const char* label;
  };
  for (const Window w : {Window{0, 5, "old regime "},
                         Window{6, 11, "new regime "},
                         Window{4, 9, "transition "},
                         Window{0, 11, "all history"}}) {
    auto window_or = service->WindowedQuery(w.first, w.last);
    if (!window_or.ok()) {
      std::printf("WindowedQuery failed: %s\n",
                  window_or.status().ToString().c_str());
      return 1;
    }
    auto window = std::move(window_or).value();
    auto want = baseline(w.first, w.last);
    const auto got_entries = std::move(window->EstimateTopK(kDomain)).value();
    const auto want_entries = std::move(want->EstimateTopK(kDomain)).value();
    if (got_entries.size() != want_entries.size()) identical = false;
    for (size_t i = 0; identical && i < got_entries.size(); ++i) {
      if (got_entries[i].item != want_entries[i].item ||
          got_entries[i].estimate != want_entries[i].estimate) {
        identical = false;
      }
    }
    std::printf("  epochs [%llu, %2llu] (%s): f(42) = %7.0f   f(311) = %7.0f\n",
                static_cast<unsigned long long>(w.first),
                static_cast<unsigned long long>(w.last), w.label,
                EstimateOf(got_entries, 42), EstimateOf(got_entries, 311));
  }

  // --- retention: prune the old regime, compact, recover once more --------
  if (!service->PruneEpochsBefore(6).ok()) return 1;
  if (!service->Close().ok()) return 1;
  if (!store->Compact().ok()) return 1;
  const auto final_stats = store->Stats();
  std::printf("retention: pruned epochs < 6; %llu segment files remain after "
              "compaction\n",
              static_cast<unsigned long long>(final_stats.live_segments));
  store.reset();
  auto reopened = CheckpointStore::Open(dir, store_opts);
  if (!reopened.ok()) return 1;
  auto after_or =
      EpochManager::Create(config, reopened.value().get(), epoch_opts);
  if (!after_or.ok()) return 1;
  auto after = std::move(after_or).value();
  if (!after->Start().ok()) return 1;
  const bool retention_ok = after->PersistedEpochs().size() == 6 &&
                            after->current_epoch() == 12 &&
                            !after->WindowedQuery(5, 6).ok() &&
                            after->WindowedQuery(6, 11).ok();

  std::printf("windowed queries == crash-free sequential baseline: %s\n",
              identical ? "bit-for-bit identical" : "MISMATCH");
  std::printf("retention + recovery after compaction: %s\n",
              retention_ok ? "ok" : "FAILED");
  std::filesystem::remove_all(dir);
  return identical && retention_ok ? 0 : 1;
}
