// Sharded telemetry ingestion — the server-side story at production scale.
//
// A telemetry backend serves millions of LDP clients. The protocol is named
// by a self-describing ProtocolConfig ("hadamard_response(domain=1024,
// eps=1)"); the registry builds identical client encoders and server shards
// from that one string. Each client privatizes its value locally and ships
// the report in the compact wire format, stamped with the protocol's wire
// id; the ingestion service rejects batches for the wrong protocol at
// decode time and fans accepted reports out across worker shards. Finish()
// merges the shards into one aggregator whose estimates are bit-for-bit
// what a single-threaded server would have produced, which the demo checks.
// (Durability is the epoch layer's job: see continuous_heavy_hitters.cpp.)
//
// With `--admin-port=N` the demo also starts the live admin plane on
// 127.0.0.1:N (0 = pick a free port) and, after the verification phase,
// keeps serving /metrics, /statusz, /spanz, /healthz etc. for
// `--serve-seconds=S` (default 60 when an admin port is given) or until
// SIGINT/SIGTERM. The exit-time text dump still runs either way.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.h"
#include "src/core/ldphh.h"
#include "src/obs/metrics.h"
#include "src/server/admin_server.h"

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

/// Serves the admin plane until the deadline or a termination signal.
void ServeAdminPlane(int serve_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(serve_seconds);
  while (!g_stop.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int admin_port = -1;     // -1 = no admin plane.
  int serve_seconds = -1;  // -1 = default (60 if admin plane is up).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--admin-port=", 13) == 0) {
      admin_port = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::atoi(argv[i] + 16);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--admin-port=N] [--serve-seconds=S]\n",
                   argv[0]);
      return 2;
    }
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::unique_ptr<ldphh::AdminServer> admin;
  if (admin_port >= 0) {
    ldphh::AdminServer::Options admin_opts;
    admin_opts.port = static_cast<uint16_t>(admin_port);
    auto admin_or = ldphh::AdminServer::Start(admin_opts);
    if (!admin_or.ok()) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   admin_or.status().ToString().c_str());
      return 1;
    }
    admin = std::move(admin_or).value();
    std::printf("admin plane on http://127.0.0.1:%u (try /metrics, "
                "/statusz, /spanz, /healthz)\n",
                admin->port());
  }
  using namespace ldphh;
  const uint64_t kDomain = 1024;
  const uint64_t n = 1 << 20;  // ~1M clients.
  const int kShards = 8;

  // The whole deployment is configured by one parseable line.
  const auto config_or =
      ProtocolConfig::FromText("hadamard_response(domain=1024,eps=1)");
  if (!config_or.ok()) return 1;
  const ProtocolConfig config = config_or.value();
  std::printf("serving protocol: %s\n", config.ToText().c_str());

  // --- client fleet: encode and frame reports in batches of 64k ----------
  std::printf("encoding %llu client reports...\n",
              static_cast<unsigned long long>(n));
  auto client_or = CreateAggregator(config);
  if (!client_or.ok()) return 1;
  auto client = std::move(client_or).value();
  const uint16_t wire_id =
      ProtocolRegistry::Global().WireIdOf(config.protocol()).value();
  Rng rng(7);
  std::vector<std::string> wire_batches;
  {
    std::vector<WireReport> batch;
    batch.reserve(1 << 16);
    for (uint64_t i = 0; i < n; ++i) {
      // A quarter of the fleet shares value 42; the rest is uniform noise.
      const uint64_t value = rng.Bernoulli(0.25) ? 42 : rng.UniformU64(kDomain);
      auto report_or = client->Encode(i, DomainItem(value), rng);
      if (!report_or.ok()) return 1;
      batch.push_back(report_or.value());
      if (batch.size() == (1 << 16) || i + 1 == n) {
        wire_batches.push_back(EncodeReportBatch(batch, wire_id));
        batch.clear();
      }
    }
  }
  uint64_t wire_bytes = 0;
  for (const auto& b : wire_batches) wire_bytes += b.size();
  std::printf("  %zu framed batches, %.1f MB on the wire (%.2f bytes/report)\n",
              wire_batches.size(), static_cast<double>(wire_bytes) / (1 << 20),
              static_cast<double>(wire_bytes) / static_cast<double>(n));

  ShardedAggregatorOptions opts;
  opts.num_shards = kShards;
  opts.queue_capacity = 1 << 14;
  opts.batch_size = 512;

  // --- the service ingests the whole stream, then merges its shards -------
  auto service_or = ShardedAggregator::Create(config, opts);
  if (!service_or.ok()) return 1;
  auto service = std::move(service_or).value();
  if (!service->Start().ok()) return 1;

  // A batch stamped for a different protocol bounces at the front door.
  const uint16_t foreign_id =
      ProtocolRegistry::Global().WireIdOf("k_rr").value();
  std::vector<WireReport> dummy(1);
  const Status bounced =
      service->SubmitWire(EncodeReportBatch(dummy, foreign_id));
  std::printf("wrong-protocol batch rejected: %s\n",
              bounced.ToString().c_str());

  Timer t;
  for (const auto& wire : wire_batches) {
    if (!service->SubmitWire(wire).ok()) return 1;
  }
  auto merged_or = service->Finish();
  if (!merged_or.ok()) return 1;
  auto merged = std::move(merged_or).value();
  const IngestStats stats = service->Stats();
  std::printf("ingested %llu reports on %d shards (%.2fM reports/s)\n",
              static_cast<unsigned long long>(stats.submitted), kShards,
              static_cast<double>(stats.submitted) / t.Seconds() / 1e6);

  // --- compare against a single-threaded server ---------------------------
  auto baseline_or = CreateAggregator(config);
  if (!baseline_or.ok()) return 1;
  auto baseline = std::move(baseline_or).value();
  for (const auto& wire : wire_batches) {
    std::vector<WireReport> reports;
    if (!DecodeReportBatch(wire, &reports).ok()) return 1;
    for (const auto& r : reports) {
      if (!baseline->Aggregate(r).ok()) return 1;
    }
  }

  auto got_or = merged->EstimateTopK(kDomain);
  auto want_or = baseline->EstimateTopK(kDomain);
  if (!got_or.ok() || !want_or.ok()) return 1;
  const auto& got = got_or.value();
  const auto& want = want_or.value();
  bool identical = got.size() == want.size();
  for (size_t i = 0; identical && i < got.size(); ++i) {
    identical = got[i].item == want[i].item &&
                got[i].estimate == want[i].estimate;
  }
  std::printf("estimate for the planted value 42: %.0f (true %.0f)\n",
              EstimateOf(got, 42), 0.25 * static_cast<double>(n));
  std::printf("sharded == sequential baseline: %s\n",
              identical ? "bit-for-bit identical" : "MISMATCH");

  // Keep the admin plane up while the service and its instruments are
  // still live, so scrapes see the full run (queue gauges, span samples,
  // ingest statusz). Ctrl-C or SIGTERM ends the linger early.
  if (admin != nullptr) {
    const int linger = serve_seconds >= 0 ? serve_seconds : 60;
    std::printf("serving admin plane for up to %d s "
                "(SIGINT/SIGTERM to stop)...\n",
                linger);
    ServeAdminPlane(linger);
    admin->Stop();
  }

  // Everything above left a metrics trail: ingest counters and latencies,
  // the privacy budget actually spent. One dump shows it all — the same
  // text a scrape endpoint would serve.
  std::printf("\n--- metrics (MetricsRegistry DumpText) ---\n%s",
              obs::MetricsRegistry::Global().DumpText().c_str());
  return identical ? 0 : 1;
}
