// Replicated heavy-hitter serving — scale-out reads for the epoch layer.
//
// One primary owns the store directory and the write lock: it ingests LDP
// reports, rolls epochs, persists each closed epoch's mergeable aggregator
// state — with its ProtocolConfig embedded, so every record names its own
// protocol — prunes and compacts. A read-only replica opens the SAME
// directory with nothing but the read slice of the file layer, tails the
// MANIFEST on a background poll thread, and serves WindowedQuery from its
// immutable snapshots — never taking the primary's lock, never writing a
// byte, and never being told what protocol it serves: the epoch records
// are self-describing. This is how the continuous-query service scales to
// millions of read users: add replicas, not locks.
//
// The demo runs primary-writes/replica-queries end to end and concurrently:
// an ingest thread streams half a million reports through an EpochManager
// while the main thread watches the replica's tail catch epoch after epoch
// and answers windowed queries mid-stream. At the end, every window the
// replica serves is checked bit-for-bit against the primary's own answer
// and against a crash-free single-threaded baseline; then retention drops
// the old regime and the store's compactor reclaims the dead epochs.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ldphh.h"
#include "src/ldp/privacy_loss.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/admin_server.h"
#include "src/server/replica_view.h"
#include "src/store/replica_store.h"

namespace {

double EstimateOf(const std::vector<ldphh::HeavyHitterEntry>& entries,
                  uint64_t value) {
  for (const auto& e : entries) {
    if (e.item == ldphh::DomainItem(value)) return e.estimate;
  }
  return 0.0;
}

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace ldphh;
  int admin_port = -1;     // -1 = no admin plane.
  int serve_seconds = -1;  // -1 = default (60 if admin plane is up).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--admin-port=", 13) == 0) {
      admin_port = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::atoi(argv[i] + 16);
    } else {
      std::fprintf(stderr, "usage: %s [--admin-port=N] [--serve-seconds=S]\n",
                   argv[0]);
      return 2;
    }
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Declare an operator privacy budget: /healthz flips to 503 if the
  // fleet's max accepted per-report epsilon ever exceeds it.
  PrivacyBudgetLedger::Global().SetEpsilonBudget(64);

  std::unique_ptr<AdminServer> admin;
  if (admin_port >= 0) {
    AdminServer::Options admin_opts;
    admin_opts.port = static_cast<uint16_t>(admin_port);
    auto admin_or = AdminServer::Start(admin_opts);
    if (!admin_or.ok()) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   admin_or.status().ToString().c_str());
      return 1;
    }
    admin = std::move(admin_or).value();
    std::printf("admin plane on http://127.0.0.1:%u (try /metrics, /statusz, "
                "/spanz, /healthz; replica lag and epsilon spend are live)\n",
                admin->port());
  }
  const uint64_t kDomain = 512;
  const uint64_t kEpochSize = 1 << 15;  // Reports per epoch.
  const uint64_t kEpochs = 16;
  const std::string dir = "/tmp/ldphh_replicated_hh_store";
  std::filesystem::remove_all(dir);

  const ProtocolConfig config =
      std::move(ProtocolConfig::FromText("hadamard_response(domain=512,eps=1)"))
          .value();

  // --- client fleet -------------------------------------------------------
  std::printf("encoding %llu reports across %llu epochs...\n",
              static_cast<unsigned long long>(kEpochs * kEpochSize),
              static_cast<unsigned long long>(kEpochs));
  auto client = std::move(CreateAggregator(config)).value();
  Rng rng(23);
  std::vector<WireReport> reports(kEpochs * kEpochSize);
  for (uint64_t i = 0; i < reports.size(); ++i) {
    const uint64_t hot = i / kEpochSize < kEpochs / 2 ? 42 : 311;
    const uint64_t value = rng.Bernoulli(0.25) ? hot : rng.UniformU64(kDomain);
    auto report_or = client->Encode(i, DomainItem(value), rng);
    if (!report_or.ok()) return 1;
    reports[i] = report_or.value();
  }

  // --- primary: the single writer -----------------------------------------
  CheckpointStoreOptions store_opts;
  store_opts.segment_max_bytes = 16 << 10;  // Small segments: many of them.
  store_opts.sync_mode = SyncMode::kNone;   // Demo favors throughput.
  EpochManagerOptions epoch_opts;
  epoch_opts.reports_per_epoch = kEpochSize;
  epoch_opts.aggregator.num_shards = 4;

  auto store_or = CheckpointStore::Open(dir, store_opts);
  if (!store_or.ok()) return 1;
  auto store = std::move(store_or).value();
  auto primary_or = EpochManager::Create(config, store.get(), epoch_opts);
  if (!primary_or.ok()) return 1;
  auto primary = std::move(primary_or).value();
  if (!primary->Start().ok()) return 1;

  std::atomic<bool> ingest_failed{false};
  std::thread ingest([&] {
    for (const WireReport& r : reports) {
      if (!primary->Submit(r).ok()) {
        ingest_failed.store(true);
        return;
      }
    }
  });

  // --- replica: read-only, background tail --------------------------------
  // Open retries until the primary has created the store (first MANIFEST).
  std::unique_ptr<ReplicaStore> replica;
  for (int attempt = 0; replica == nullptr; ++attempt) {
    auto replica_or = ReplicaStore::Open(dir, [] {
      ReplicaStoreOptions o;
      o.poll_interval = std::chrono::milliseconds(2);
      // Readiness gate: /readyz fails while the replica trails the primary
      // by more than 8 manifest generations (it heals by tailing).
      o.healthy_lag_bound = 8;
      return o;
    }());
    if (replica_or.ok()) {
      replica = std::move(replica_or).value();
    } else if (attempt > 10000) {
      std::printf("replica never came up: %s\n",
                  replica_or.status().ToString().c_str());
      return 1;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // No protocol config handed to the replica: the records describe
  // themselves.
  ReplicaView view(replica.get());

  // --- watch the tail catch epochs while ingestion runs -------------------
  std::printf("replica tailing %s (2 ms poll):\n", dir.c_str());
  uint64_t seen = 0;
  while (seen < kEpochs && !ingest_failed.load()) {
    const std::vector<uint64_t> persisted = view.PersistedEpochs();
    if (persisted.size() > seen) {
      seen = persisted.size();
      // A mid-stream windowed read straight off the replica snapshot.
      auto window_or = view.WindowedQuery(persisted.front(), persisted.back());
      if (!window_or.ok()) {
        std::printf("mid-stream WindowedQuery failed: %s\n",
                    window_or.status().ToString().c_str());
        return 1;
      }
      auto window = std::move(window_or).value();
      const auto entries = std::move(window->EstimateTopK(kDomain)).value();
      std::printf(
          "  tail at %2llu/%llu epochs (gen %3llu)   f(42) = %8.0f   "
          "f(311) = %8.0f\n",
          static_cast<unsigned long long>(seen),
          static_cast<unsigned long long>(kEpochs),
          static_cast<unsigned long long>(replica->manifest_sequence()),
          EstimateOf(entries, 42), EstimateOf(entries, 311));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ingest.join();
  if (ingest_failed.load()) return 1;

  // --- verify: replica == primary == crash-free baseline, bit for bit ----
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
  for (const Window w : {Window{0, kEpochs / 2 - 1, "old regime "},
                         Window{kEpochs / 2, kEpochs - 1, "new regime "},
                         Window{kEpochs / 2 - 3, kEpochs / 2 + 2, "transition "},
                         Window{0, kEpochs - 1, "all history"}}) {
    auto from_replica_or = view.WindowedQuery(w.first, w.last);
    auto from_primary_or = primary->WindowedQuery(w.first, w.last);
    if (!from_replica_or.ok() || !from_primary_or.ok()) return 1;
    std::string replica_state, primary_state;
    if (!from_replica_or.value()->SerializeState(&replica_state).ok() ||
        !from_primary_or.value()->SerializeState(&primary_state).ok()) {
      return 1;
    }
    if (replica_state != primary_state) identical = false;
    auto got = std::move(from_replica_or).value();
    auto want = baseline(w.first, w.last);
    const auto got_entries = std::move(got->EstimateTopK(kDomain)).value();
    const auto want_entries = std::move(want->EstimateTopK(kDomain)).value();
    if (got_entries.size() != want_entries.size()) identical = false;
    for (size_t i = 0; identical && i < got_entries.size(); ++i) {
      if (got_entries[i].item != want_entries[i].item ||
          got_entries[i].estimate != want_entries[i].estimate) {
        identical = false;
      }
    }
    std::printf("  epochs [%2llu, %2llu] (%s): f(42) = %8.0f   f(311) = %8.0f\n",
                static_cast<unsigned long long>(w.first),
                static_cast<unsigned long long>(w.last), w.label,
                EstimateOf(got_entries, 42), EstimateOf(got_entries, 311));
  }

  // --- retention: keep the newest epochs, let compaction reclaim the rest --
  // Epoch blobs are written once, so only retention makes garbage: the
  // pruned blobs and their tombstones push the sealed segments past the
  // compactor's half-dead trigger.
  if (!primary->PruneEpochsBefore(kEpochs - kEpochs / 4).ok()) return 1;
  if (!store->WaitForCompaction().ok()) return 1;
  const CheckpointStoreStats store_stats = store->Stats();
  std::printf(
      "retention: kept epochs [%llu, %llu]; %llu compactions, %llu of %llu "
      "sealed bytes dead\n",
      static_cast<unsigned long long>(kEpochs - kEpochs / 4),
      static_cast<unsigned long long>(kEpochs - 1),
      static_cast<unsigned long long>(store_stats.compactions),
      static_cast<unsigned long long>(store_stats.dead_bytes),
      static_cast<unsigned long long>(store_stats.sealed_bytes));

  const ReplicaStoreStats stats = replica->Stats();
  std::printf(
      "replica: %llu polls, %llu snapshots, %llu segment replays "
      "(%llu incremental), %llu cache hits, %llu races retried\n",
      static_cast<unsigned long long>(stats.refreshes),
      static_cast<unsigned long long>(stats.snapshots_installed),
      static_cast<unsigned long long>(stats.segments_replayed),
      static_cast<unsigned long long>(stats.incremental_replays),
      static_cast<unsigned long long>(stats.segment_cache_hits),
      static_cast<unsigned long long>(stats.segment_races));
  std::printf("replica == primary == crash-free baseline: %s\n",
              identical ? "bit-for-bit identical" : "MISMATCH");

  // Linger with primary, store, and replica all still live: /statusz shows
  // every layer, the replica-lag readiness check and the epsilon-budget
  // health check are armed, and the lag gauge is real. SIGINT/SIGTERM (or
  // the deadline) ends the linger.
  if (admin != nullptr) {
    const int linger = serve_seconds >= 0 ? serve_seconds : 60;
    std::printf("serving admin plane for up to %d s "
                "(SIGINT/SIGTERM to stop)...\n",
                linger);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(linger);
    while (!g_stop.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    admin->Stop();
  }

  if (!primary->Close().ok()) return 1;

  // The full run is observable after the fact: replication lag, epoch-close
  // latency, manifest fsyncs, and the privacy budget the fleet spent are all
  // in the one process-wide registry. Dump while replica and store are still
  // live so their gauges (lag, segment counts) are present.
  std::printf("\n--- metrics (MetricsRegistry DumpText) ---\n%s",
              obs::MetricsRegistry::Global().DumpText().c_str());
  std::printf("\n--- trace (last structural events) ---\n%s",
              obs::TraceRing::Global().DumpText().c_str());

  replica.reset();
  store.reset();
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
