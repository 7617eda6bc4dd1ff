// Ingestion-service throughput: reports/sec through ShardedAggregator as a
// function of shard count, the wire-codec encode/decode rates, and the
// full network path — framed batches over TCP/UDS loopback through
// ReportServer, in-memory and into fsync'd epochs (SyncMode::kFull).
//
//   ./bench_ingest --benchmark_counters_tabular=true
//
// The acceptance metric for the server subsystem is BM_ShardedIngest at
// shard counts {1, 2, 4, 8}: items_per_second is ingested reports/sec.
// For the network front-end it is BM_NetIngestDurable: reports/sec over
// loopback with every epoch checkpoint fsync'd (frames are acked before
// their epoch is; see that benchmark's comment). BM_NetIngestDurableKrr
// runs the same path with a one-add-per-report oracle, so the sink's
// hand-off to the shards, not Aggregate, bounds it.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/metrics_dump.h"
#include "src/common/random.h"
#include "src/net/report_client.h"
#include "src/protocols/registry.h"
#include "src/server/epoch_manager.h"
#include "src/server/report_codec.h"
#include "src/server/report_server.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

// RAPPOR-style unary encoding: Aggregate walks all K histogram bits per
// report, so per-report server work is substantial enough for sharding to
// matter (Hadamard response at one add per report is producer-bound).
constexpr uint64_t kDomain = 56;
constexpr uint64_t kNumReports = 1 << 18;

ProtocolConfig Config() {
  ProtocolConfig config("rappor_unary");
  config.SetUint("domain", kDomain).SetDouble("eps", 1.0);
  return config;
}

// k-ary randomized response over the same domain: Aggregate is one add per
// report, so a durable column on it is bound by the path to the shards.
ProtocolConfig KrrConfig() {
  ProtocolConfig config("k_rr");
  config.SetUint("domain", kDomain).SetDouble("eps", 1.0);
  return config;
}

// Client-side encodes are expensive relative to aggregation, so each report
// stream is produced once and replayed by every benchmark iteration.
std::vector<WireReport> EncodeReports(const ProtocolConfig& config) {
  auto client = std::move(CreateAggregator(config)).value();
  Rng rng(2024);
  std::vector<WireReport> reports;
  reports.reserve(kNumReports);
  for (uint64_t i = 0; i < kNumReports; ++i) {
    const uint64_t value = rng.Bernoulli(0.25) ? 42 : rng.UniformU64(kDomain);
    reports.push_back(client->Encode(i, DomainItem(value), rng).value());
  }
  return reports;
}

const std::vector<WireReport>& Reports() {
  static const auto* reports =
      new std::vector<WireReport>(EncodeReports(Config()));
  return *reports;
}

void BM_ShardedIngest(benchmark::State& state) {
  const auto& reports = Reports();
  ShardedAggregatorOptions opts;
  opts.num_shards = static_cast<int>(state.range(0));
  opts.queue_capacity = 1 << 14;
  opts.batch_size = 512;
  for (auto _ : state) {
    auto agg_or = ShardedAggregator::Create(Config(), opts);
    if (!agg_or.ok()) {
      // SkipWithError only marks the run; falling through to .value() on an
      // error would abort the whole bench job.
      state.SkipWithError("Create failed");
      return;
    }
    auto agg = std::move(agg_or).value();
    if (!agg->Start().ok()) state.SkipWithError("Start failed");
    if (!agg->SubmitBatch(reports).ok()) state.SkipWithError("Submit failed");
    auto merged = agg->Finish();
    if (!merged.ok()) state.SkipWithError("Finish failed");
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNumReports));
  state.counters["shards"] = static_cast<double>(opts.num_shards);
}
BENCHMARK(BM_ShardedIngest)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// A report stream pre-framed into 512-report batch payloads stamped with
// the protocol's registry wire id (stable across aggregator instances), so
// the network benches measure transport + ingestion, not encoding.
std::vector<std::string> FrameReports(const ProtocolConfig& config,
                                      const std::vector<WireReport>& reports) {
  const uint16_t wire_id =
      std::move(ShardedAggregator::Create(config, {})).value()->wire_id();
  constexpr size_t kBatch = 512;
  std::vector<std::string> frames;
  frames.reserve(reports.size() / kBatch + 1);
  for (size_t lo = 0; lo < reports.size(); lo += kBatch) {
    const size_t hi = lo + kBatch < reports.size() ? lo + kBatch
                                                   : reports.size();
    frames.push_back(EncodeReportBatch(
        std::vector<WireReport>(reports.begin() + lo, reports.begin() + hi),
        wire_id));
  }
  return frames;
}

const std::vector<std::string>& BatchFrames() {
  static const auto* frames =
      new std::vector<std::string>(FrameReports(Config(), Reports()));
  return *frames;
}

const std::vector<std::string>& KrrFrames() {
  static const auto* frames = new std::vector<std::string>(
      FrameReports(KrrConfig(), EncodeReports(KrrConfig())));
  return *frames;
}

std::string BenchUdsPath() {
  return fs::temp_directory_path().string() + "/ldphh_bench_net_" +
         std::to_string(::getpid()) + ".sock";
}

// Drives `clients` threads, each with its own ReportClient, through the
// pre-framed batches round-robin, then flushes (every frame acked).
bool DriveClients(const ReportServer& server, bool uds, int clients,
                  const std::vector<std::string>& frames) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &frames, &ok, uds, clients, c] {
      auto client_or =
          uds ? net::ReportClient::ConnectUds(server.uds_path(),
                                              net::ReportClient::Options{})
              : net::ReportClient::ConnectTcp("127.0.0.1", server.port(),
                                              net::ReportClient::Options{});
      if (!client_or.ok()) {
        ok.store(false);
        return;
      }
      auto client = std::move(client_or).value();
      for (size_t i = static_cast<size_t>(c); i < frames.size();
           i += static_cast<size_t>(clients)) {
        if (!client->Send(frames[i]).ok()) {
          ok.store(false);
          return;
        }
      }
      if (!client->Flush().ok()) ok.store(false);
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

// Full network path, in-memory sink: N loopback clients -> ReportServer ->
// ShardedAggregator::TrySubmitWire (busy acks retried client-side).
void NetIngest(benchmark::State& state, bool uds) {
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ShardedAggregatorOptions opts;
    opts.num_shards = 2;
    // Deep queues: on a small machine the shard workers, loop, sinks, and
    // clients all share cores, so shallow queues turn into busy-ack storms
    // and the bench measures the client's retry backoff instead of the
    // transport. Backpressure behavior is covered by tests, not here.
    opts.queue_capacity = 1 << 17;
    opts.batch_size = 512;
    auto agg_or = ShardedAggregator::Create(Config(), opts);
    if (!agg_or.ok() || !agg_or.value()->Start().ok()) {
      state.SkipWithError("aggregator start failed");
      return;
    }
    auto agg = std::move(agg_or).value();
    ReportServer::Options server_opts;
    server_opts.enable_tcp = !uds;
    if (uds) server_opts.uds_path = BenchUdsPath();
    auto server_or = ReportServer::Create(
        server_opts,
        [&agg](std::string_view p) { return agg->TrySubmitWire(p); });
    if (!server_or.ok() || !server_or.value()->Start().ok()) {
      state.SkipWithError("server start failed");
      return;
    }
    auto server = std::move(server_or).value();
    if (!DriveClients(*server, uds, clients, BatchFrames())) {
      state.SkipWithError("client failed");
      return;
    }
    server->Stop();
    auto merged = agg->Finish();
    if (!merged.ok() || agg->Stats().submitted != kNumReports) {
      state.SkipWithError("ingest incomplete");
      return;
    }
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNumReports));
  state.counters["clients"] = static_cast<double>(clients);
}

void BM_NetIngestTcp(benchmark::State& state) { NetIngest(state, false); }
BENCHMARK(BM_NetIngestTcp)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_NetIngestUds(benchmark::State& state) { NetIngest(state, true); }
BENCHMARK(BM_NetIngestUds)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The acceptance column: loopback TCP into EpochManager epochs
// checkpointed through a CheckpointStore in SyncMode::kFull, an fsync'd
// snapshot every 2^15 reports plus the final Close. Durability is not all
// the way on: SubmitWire acks a frame once its reports are queued in
// memory, before their epoch is fsync'd, so a crash loses the acked
// reports of the open epoch. sink_threads = 1 because EpochManager's
// control surface is single-threaded.
void NetIngestDurable(benchmark::State& state, const ProtocolConfig& config,
                      const std::vector<std::string>& frames, int num_shards) {
  const int clients = static_cast<int>(state.range(0));
  const std::string dir = fs::temp_directory_path().string() +
                          "/ldphh_bench_net_durable_" +
                          std::to_string(::getpid());
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    CheckpointStoreOptions store_opts;
    store_opts.sync_mode = SyncMode::kFull;
    auto store_or = CheckpointStore::Open(dir, store_opts);
    if (!store_or.ok()) {
      state.SkipWithError("store open failed");
      return;
    }
    auto store = std::move(store_or).value();
    EpochManagerOptions manager_opts;
    manager_opts.reports_per_epoch = 1 << 15;
    manager_opts.aggregator.num_shards = num_shards;
    manager_opts.aggregator.queue_capacity = 1 << 14;
    manager_opts.aggregator.batch_size = 512;
    auto manager_or = EpochManager::Create(config, store.get(), manager_opts);
    if (!manager_or.ok() || !manager_or.value()->Start().ok()) {
      state.SkipWithError("epoch manager start failed");
      return;
    }
    auto manager = std::move(manager_or).value();
    ReportServer::Options server_opts;
    server_opts.sink_threads = 1;
    auto server_or = ReportServer::Create(
        server_opts,
        [&manager](std::string_view p) { return manager->SubmitWire(p); });
    if (!server_or.ok() || !server_or.value()->Start().ok()) {
      state.SkipWithError("server start failed");
      return;
    }
    auto server = std::move(server_or).value();
    state.ResumeTiming();
    if (!DriveClients(*server, /*uds=*/false, clients, frames)) {
      state.SkipWithError("client failed");
      return;
    }
    server->Stop();
    if (!manager->Close().ok()) {
      state.SkipWithError("close failed");
      return;
    }
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNumReports));
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["shards"] = static_cast<double>(num_shards);
}

void BM_NetIngestDurable(benchmark::State& state) {
  NetIngestDurable(state, Config(), BatchFrames(), /*num_shards=*/2);
}
BENCHMARK(BM_NetIngestDurable)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_NetIngestDurableKrr(benchmark::State& state) {
  NetIngestDurable(state, KrrConfig(), KrrFrames(), /*num_shards=*/4);
}
BENCHMARK(BM_NetIngestDurableKrr)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EncodeBatch(benchmark::State& state) {
  const auto& reports = Reports();
  for (auto _ : state) {
    std::string wire = EncodeReportBatch(reports);
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNumReports));
}
BENCHMARK(BM_EncodeBatch)->Unit(benchmark::kMillisecond);

void BM_DecodeBatch(benchmark::State& state) {
  const std::string wire = EncodeReportBatch(Reports());
  for (auto _ : state) {
    std::vector<WireReport> out;
    out.reserve(kNumReports);
    if (!DecodeReportBatch(wire, &out).ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNumReports));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ldphh
