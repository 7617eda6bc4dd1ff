// End-to-end benchmark of the LDP telemetry service.
//
// One process runs the real serving stack over loopback TCP, at default
// options:
//
//   net::ReportClient -> ReportServer -> EpochManager::SubmitWire
//     -> ShardedAggregator -> CheckpointStore (kFull, background compaction)
//
// with a ReplicaStore / ReplicaView tailing the same store directory. Every
// workload runs the same five phases:
//
//   generate  (untimed) values from src/workload/, encoded by a registry
//             Aggregator on <= 4 threads and framed into wire-id-stamped
//             report batches; afterwards the reports exist only as frames.
//   saturate  closed loop over 2 connections (default pipeline window) for
//             a whole number of epochs, timed in segments of whole epochs.
//   restart   stop and tear the stack down, then reopen it (store recovery
//             through replica open), several times.
//   paced     open loop over 2 connections with pipeline window 1 for
//             --seconds: frames fall due at a fixed rate, and one reader
//             thread runs the workload's reader job on its own schedule.
//             Latency is timed from each due time.
//   verify    (untimed) the correctness gate.
//
// With --trace 1 the driver also records spans around every call it makes
// into a layer (plus every file-layer call, through a timing FileSystem),
// runs standalone codec / shard / protocol passes over the same frames, and
// reports the per-layer metrics instead of the end-to-end ones. Nothing
// inside src/ is instrumented for this.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// run.py builds this binary and is the command to use; README.md describes
// the workloads and metrics.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--quick] [--self-test]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/file.h"
#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/net/report_client.h"
#include "src/protocols/aggregator.h"
#include "src/protocols/protocol_config.h"
#include "src/protocols/registry.h"
#include "src/server/epoch_manager.h"
#include "src/server/replica_view.h"
#include "src/server/report_codec.h"
#include "src/server/report_server.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"
#include "src/workload/workload.h"

namespace ldphh {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Setup failures are bugs in the benchmark or the build, not measurements:
// they end the run without a result.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// The lowest, over up to 16 consecutive slices of at least 50 samples,
// of each slice's percentile. On a shared VM the host steals vCPUs for
// seconds at a time, and a stolen vCPU delays every request due meanwhile;
// a slice the host left alone shows what the program does. A change that
// slows every request shows here; one that stalls only some slices does
// not.
double BestSlice(const std::vector<double>& in_order, double pct) {
  constexpr size_t kMaxSlices = 16;
  constexpr size_t kMinSlice = 50;
  const size_t slices = std::max<size_t>(
      1, std::min(kMaxSlices, in_order.size() / kMinSlice));
  const size_t per = in_order.size() / slices;
  double best = 0.0;
  for (size_t s = 0; s < slices; ++s) {
    const auto lo = in_order.begin() + static_cast<ptrdiff_t>(s * per);
    const auto hi = s + 1 == slices ? in_order.end()
                                    : lo + static_cast<ptrdiff_t>(per);
    const double value = Percentile(std::vector<double>(lo, hi), pct);
    if (s == 0 || value < best) best = value;
  }
  return best;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ tracing

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // Span open on the same thread at start; 0 = none.
  const char* name = "";
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t frame_id = -1;  // Links client.send to its server.sink.
  uint64_t count = 0;     // Reports, bytes, or a flag, per span name.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Per-thread span buffers, kept in memory and read once every traced
// thread has stopped. Recording is off unless enabled.
class Tracer {
 public:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<uint64_t> open;  // Ids of the spans open on this thread.
    std::vector<SpanRecord> spans;
  };

  static Tracer& Global() {
    static Tracer* const tracer = new Tracer();
    return *tracer;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on); }

  Buffer& Local() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->thread = static_cast<uint32_t>(buffers_.size());
    }
    return *buffer;
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Every recorded span. Call only after the traced threads have stopped.
  std::vector<SpanRecord> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t frame_id = -1,
                      uint64_t count = 0) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.on()) return;
    buffer_ = &tracer.Local();
    record_.id = tracer.NextId();
    record_.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
    record_.name = name;
    record_.thread = buffer_->thread;
    record_.frame_id = frame_id;
    record_.count = count;
    buffer_->open.push_back(record_.id);
    record_.start_ns = NowNs();
  }

  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    record_.end_ns = NowNs();
    buffer_->open.pop_back();
    buffer_->spans.push_back(record_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Both take a string literal or another value that outlives the run.
  void set_name(const char* name) { record_.name = name; }
  void set_count(uint64_t count) { record_.count = count; }

 private:
  Tracer::Buffer* buffer_ = nullptr;
  SpanRecord record_;
};

// The file layer with every call recorded as a "file.*" span, so file time
// nests under whichever driver span is open on the calling thread, and file
// time on threads with none open (the store's compactor) shows as
// background I/O. Installed only in traced runs.
class TracedWritableFile : public WritableFile {
 public:
  explicit TracedWritableFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    ScopedSpan span("file.append", -1, data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    ScopedSpan span("file.flush");
    return base_->Flush();
  }
  Status Sync(SyncMode mode) override {
    ScopedSpan span(mode == SyncMode::kNone ? "file.flush" : "file.sync");
    return base_->Sync(mode);
  }
  Status Close() override {
    ScopedSpan span("file.close");
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
};

class TracedSequentialFile : public SequentialFile {
 public:
  explicit TracedSequentialFile(std::unique_ptr<SequentialFile> base)
      : base_(std::move(base)) {}

  Status Read(char* buf, size_t n, size_t* bytes_read) override {
    ScopedSpan span("file.read");
    Status status = base_->Read(buf, n, bytes_read);
    if (status.ok()) span.set_count(*bytes_read);
    return status;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }
  uint64_t Tell() const override { return base_->Tell(); }
  uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<SequentialFile> base_;
};

class TracedFileSystem : public FileSystem {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    ScopedSpan span("file.open");
    auto file = base_->NewWritableFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        new TracedWritableFile(std::move(file).value()));
  }
  StatusOr<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    ScopedSpan span("file.open");
    auto file = base_->NewSequentialFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<SequentialFile>(
        new TracedSequentialFile(std::move(file).value()));
  }
  StatusOr<bool> FileExists(const std::string& path) override {
    ScopedSpan span("file.stat");
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    ScopedSpan span("file.stat");
    return base_->FileSize(path);
  }
  Status ListDirectory(const std::string& dir,
                       std::vector<std::string>* names) override {
    ScopedSpan span("file.list");
    return base_->ListDirectory(dir, names);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    ScopedSpan span("file.truncate");
    return base_->Truncate(path, size);
  }
  Status RemoveFile(const std::string& path) override {
    ScopedSpan span("file.remove");
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    ScopedSpan span("file.rename");
    return base_->RenameFile(from, to);
  }
  Status CreateDirectories(const std::string& dir) override {
    ScopedSpan span("file.mkdir");
    return base_->CreateDirectories(dir);
  }
  Status SyncDirectory(const std::string& dir) override {
    ScopedSpan span("file.sync_dir");
    return base_->SyncDirectory(dir);
  }

 private:
  FileSystem* const base_ = FileSystem::Default();
};

// ---------------------------------------------------------------- workloads

enum class Values { kPlanted, kZipf };

struct WorkloadSpec {
  const char* name;
  const char* config;
  Values values;
  uint64_t reports_per_frame;
  uint64_t reports_per_epoch;
  uint64_t saturate_epochs;
  double paced_frames_per_s;
  // The reader job: the top-k over the newest query_epochs epochs (0 =
  // whole history), on the replica after a refresh or on the primary.
  bool query_replica;
  uint64_t query_epochs;
  double query_hz;
};

// Why these three (README.md has the long form):
//  small_frames  per-frame cost dominates: 32-report frames, rare epochs.
//  pes_zipf      the paper's protocol; the sink's per-report hand-off and
//                Aggregate dominate; its paced phase closes no epoch.
//  window_reads  saturate closes an epoch every 64th frame, so finish,
//                serialize, fsync, segment roll and compaction weigh on
//                ingest; each paced query restores and merges eight ~1 MB
//                epoch states from the replica.
// In the paced phase epochs close at most about once a second. A close
// stalls the frames and queries due during it for tens of ms, and the
// share it stalls grows when the host slows; at three closes a second
// that share crossed 10% on a busy host and the p90s jumped into the
// stalls.
constexpr WorkloadSpec kWorkloads[] = {
    {"small_frames", "hadamard_response(domain=1024,eps=4)", Values::kPlanted,
     32, 1 << 20, 8, 4000, /*query_replica=*/true, 0, 20},
    {"pes_zipf",
     "private_expander_sketch(domain_bits=32,eps=4,n_hint=2097152)",
     Values::kZipf, 512, 1 << 21, 4, 200, /*query_replica=*/false, 2, 20},
    {"window_reads", "treehist(domain_bits=32,eps=4,n_hint=32768)",
     Values::kZipf, 512, 1 << 15, 64, 50, /*query_replica=*/true, 8, 10},
};

constexpr int kClients = 2;
constexpr int kRestarts = 15;
constexpr size_t kTopK = 10;
constexpr size_t kTruthTop = 5;
constexpr int kMaxEncodeThreads = 4;

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  bool quick = false;
  bool self_test = false;
  std::string out_dir;
};

// ----------------------------------------------------------------- generate

struct Frames {
  std::vector<std::string> frames;  // Saturate frames first, then paced.
  size_t saturate_frames = 0;
  uint64_t reports_per_frame = 0;
  uint64_t reports = 0;
  uint64_t bytes = 0;  // Wire bytes, length prefixes included.
  // The true top items and their exact counts over every report.
  std::vector<std::pair<DomainItem, uint64_t>> truth;
  // Leading values, kept for the standalone encode pass.
  std::vector<DomainItem> sample;

  size_t paced_frames() const { return frames.size() - saturate_frames; }
};

std::vector<std::pair<DomainItem, uint64_t>> TrueTop(
    const std::vector<DomainItem>& database, size_t k) {
  std::unordered_map<DomainItem, uint64_t, DomainItemHash> counts;
  for (const DomainItem& item : database) ++counts[item];
  std::vector<std::pair<DomainItem, uint64_t>> top(counts.begin(),
                                                   counts.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > k) top.resize(k);
  return top;
}

Frames Generate(const WorkloadSpec& spec, const ProtocolConfig& config,
                uint16_t wire_id, uint64_t reports_per_epoch,
                const Options& opts) {
  Frames out;
  const uint64_t rpf = spec.reports_per_frame;
  out.reports_per_frame = rpf;
  out.saturate_frames =
      static_cast<size_t>(spec.saturate_epochs * reports_per_epoch / rpf);
  const size_t paced_frames = static_cast<size_t>(
      std::llround(spec.paced_frames_per_s * opts.seconds));
  const size_t total_frames = out.saturate_frames + paced_frames;
  out.reports = static_cast<uint64_t>(total_frames) * rpf;

  Workload workload =
      spec.values == Values::kZipf
          ? MakeZipfWorkload(out.reports, 32, 10000, 1.1, opts.seed)
          // 25% of users hold one item; the rest are uniform over 2^10.
          : MakePlantedWorkload(out.reports, 10, {0.25}, opts.seed);
  out.truth = TrueTop(workload.database, kTruthTop);
  out.sample.assign(
      workload.database.begin(),
      workload.database.begin() +
          static_cast<ptrdiff_t>(std::min<uint64_t>(out.reports, 1 << 16)));

  out.frames.resize(total_frames);
  const int threads = std::max(
      1, std::min<int>(kMaxEncodeThreads,
                       static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<Status> results(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto encoder = CreateAggregator(config);
      if (!encoder.ok()) {
        results[static_cast<size_t>(t)] = encoder.status();
        return;
      }
      std::vector<WireReport> reports(static_cast<size_t>(rpf));
      for (size_t f = static_cast<size_t>(t); f < total_frames;
           f += static_cast<size_t>(threads)) {
        // Per-frame coins: the frames do not depend on the thread count.
        Rng rng(Mix64(opts.seed * 0x9e3779b97f4a7c15ULL + f));
        for (uint64_t r = 0; r < rpf; ++r) {
          const uint64_t user = f * rpf + r;
          auto report = encoder.value()->Encode(
              user, workload.database[static_cast<size_t>(user)], rng);
          if (!report.ok()) {
            results[static_cast<size_t>(t)] = report.status();
            return;
          }
          reports[static_cast<size_t>(r)] = report.value();
        }
        out.frames[f] = EncodeReportBatch(reports, wire_id);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& status : results) Must(status, "encode");
  for (const std::string& frame : out.frames) out.bytes += frame.size() + 4;
  return out;
}

// The frame id a batch carries: its first user index over the frame size
// (the varint right after the fixed batch header).
int64_t FrameIdOf(std::string_view payload, uint64_t reports_per_frame) {
  if (payload.size() <= kReportBatchHeaderSize) return -1;
  ByteReader reader(payload.substr(kReportBatchHeaderSize));
  uint64_t user = 0;
  if (!reader.ReadVarint64(&user).ok()) return -1;
  return static_cast<int64_t>(user / reports_per_frame);
}

// The report count in the batch header (after magic, version, protocol).
uint64_t ReportsIn(std::string_view payload) {
  ByteReader reader(payload.substr(std::min<size_t>(payload.size(), 8)));
  uint32_t count = 0;
  return reader.ReadU32(&count).ok() ? count : 0;
}

struct EpochInfo {
  uint64_t reports = 0;  // The blob header's report_count.
  uint64_t bytes = 0;    // Blob size.
};

// Reads a persisted epoch's blob header (layout in epoch_manager.h: magic,
// version, epoch id, report count).
Status ReadEpochInfo(const CheckpointStore& store, uint64_t epoch,
                     EpochInfo* info) {
  std::string blob;
  LDPHH_RETURN_IF_ERROR(store.Get(epoch, &blob));
  ByteReader reader(blob);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint64_t id = 0;
  LDPHH_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kEpochBlobMagic) {
    return Status::DecodeFailure("epoch blob: bad magic");
  }
  LDPHH_RETURN_IF_ERROR(reader.ReadU16(&version));
  LDPHH_RETURN_IF_ERROR(reader.ReadU64(&id));
  info->bytes = blob.size();
  return reader.ReadU64(&info->reports);
}

// ------------------------------------------------------------------ process

uint64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// Peak resident memory over the timed phases, sampled by the otherwise idle
// main thread.
struct RssPeak {
  uint64_t base = 0;
  uint64_t peak = 0;
  void Sample() { peak = std::max(peak, RssBytes()); }
};

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Waits for \p threads while sampling memory every few milliseconds.
void JoinSampling(std::vector<std::thread>& threads,
                  const std::atomic<int>& running, RssPeak& rss) {
  while (running.load() > 0) {
    rss.Sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : threads) t.join();
  rss.Sample();
}

// -------------------------------------------------------------------- stack

// The serving stack under test, at default options: only the sink thread
// count (EpochManager's control surface is single-threaded) and the epoch
// size are set.
class Stack {
 public:
  Stack(ProtocolConfig config, uint64_t reports_per_epoch,
        uint64_t reports_per_frame, std::string dir, FileSystem* fs)
      : config_(std::move(config)),
        reports_per_epoch_(reports_per_epoch),
        reports_per_frame_(reports_per_frame),
        dir_(std::move(dir)),
        fs_(fs) {}

  ~Stack() { Shutdown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Recovery through replica open: what a restart costs before the
  // service answers again.
  void Open() {
    ScopedSpan restart("restart");
    {
      ScopedSpan span("store.open");
      CheckpointStoreOptions options;
      options.file_system = fs_;
      store_ = Must(CheckpointStore::Open(dir_, options), "store open");
    }
    {
      ScopedSpan span("epoch.start");
      EpochManagerOptions options;
      options.reports_per_epoch = reports_per_epoch_;
      manager_ =
          Must(EpochManager::Create(config_, store_.get(), options), "epochs");
      Must(manager_->Start(), "epoch start");
    }
    {
      ScopedSpan span("server.start");
      ReportServer::Options options;
      options.sink_threads = 1;
      server_ = Must(ReportServer::Create(options, MakeSink()), "server");
      Must(server_->Start(), "server start");
    }
    {
      ScopedSpan span("replica.open");
      ReplicaStoreOptions options;
      options.file_system = fs_;
      replica_ = Must(ReplicaStore::Open(dir_, options), "replica open");
      view_ = std::make_unique<ReplicaView>(replica_.get());
    }
    closed_ = false;
  }

  // Stops serving and closes the open epoch; queries still work.
  void StopServing() {
    if (server_ != nullptr) server_->Stop();
    if (manager_ != nullptr && !closed_) Must(manager_->Close(), "close");
    closed_ = true;
  }

  void Shutdown() {
    StopServing();
    if (replica_ != nullptr) {
      const ReplicaStoreStats stats = replica_->Stats();
      replica_cache_hits_ += stats.segment_cache_hits;
      replica_segment_loads_ += stats.segment_cache_hits +
                                stats.segments_replayed;
    }
    view_.reset();
    replica_.reset();
    server_.reset();
    manager_.reset();
    if (store_ != nullptr) compactions_ += store_->Stats().compactions;
    store_.reset();
  }

  uint16_t port() const { return server_->port(); }
  EpochManager& manager() { return *manager_; }
  CheckpointStore& store() { return *store_; }
  ReplicaView& view() { return *view_; }
  uint64_t compactions() const { return compactions_; }
  double replica_cache_hit_frac() const {
    return Ratio(static_cast<double>(replica_cache_hits_),
                 static_cast<double>(replica_segment_loads_));
  }

 private:
  ReportServer::Sink MakeSink() {
    if (!Tracer::Global().on()) {
      return [this](std::string_view payload) {
        return manager_->SubmitWire(payload);
      };
    }
    // Traced: one span per sink call, renamed when the call closed an
    // epoch. Reading current_epoch() is safe: this is the only thread
    // that drives the manager while serving.
    return [this](std::string_view payload) {
      ScopedSpan span("server.sink", FrameIdOf(payload, reports_per_frame_),
                      ReportsIn(payload));
      const uint64_t epoch = manager_->current_epoch();
      Status status = manager_->SubmitWire(payload);
      if (manager_->current_epoch() != epoch) span.set_name("server.sink_close");
      return status;
    };
  }

  const ProtocolConfig config_;
  const uint64_t reports_per_epoch_;
  const uint64_t reports_per_frame_;
  const std::string dir_;
  FileSystem* const fs_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<EpochManager> manager_;
  std::unique_ptr<ReportServer> server_;
  std::unique_ptr<ReplicaStore> replica_;
  std::unique_ptr<ReplicaView> view_;
  bool closed_ = true;
  uint64_t compactions_ = 0;
  uint64_t replica_cache_hits_ = 0;
  uint64_t replica_segment_loads_ = 0;
};

// ------------------------------------------------------------------ clients

struct ClientTotals {
  uint64_t sends = 0;         // Frames handed to Send.
  uint64_t failed_sends = 0;  // Connect/Send/Flush calls that failed.
  uint64_t acked = 0;
  uint64_t rejected = 0;
  uint64_t busy_retries = 0;
  uint64_t reconnects = 0;

  void AddStats(const net::ReportClient::Stats& stats) {
    acked += stats.frames_acked;
    rejected += stats.frames_rejected;
    busy_retries += stats.busy_retries;
    reconnects += stats.reconnects;
  }
  void Add(const ClientTotals& o) {
    sends += o.sends;
    failed_sends += o.failed_sends;
    acked += o.acked;
    rejected += o.rejected;
    busy_retries += o.busy_retries;
    reconnects += o.reconnects;
  }
  uint64_t errors() const { return failed_sends + rejected + reconnects; }
};

struct SaturateResult {
  std::vector<double> segment_rps;
  std::vector<double> segment_cpu_us;  // Process CPU per report.
  double wall_s = 0.0;
  ClientTotals clients;
};

// Closed loop: each connection keeps the default pipeline window full. The
// frames go out in segments of whole epochs, each timed on its own.
SaturateResult Saturate(Stack& stack, const Frames& frames, uint64_t segments,
                        bool self_test, RssPeak& rss) {
  SaturateResult result;
  std::vector<ClientTotals> totals(kClients);
  std::vector<std::unique_ptr<net::ReportClient>> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto client = net::ReportClient::ConnectTcp("127.0.0.1", stack.port(),
                                                net::ReportClient::Options{});
    if (client.ok()) {
      clients[static_cast<size_t>(c)] = std::move(client).value();
    } else {
      ++totals[static_cast<size_t>(c)].failed_sends;
    }
  }
  const size_t per_segment = frames.saturate_frames / segments;
  const Clock::time_point start = Clock::now();
  for (uint64_t seg = 0; seg < segments; ++seg) {
    const size_t lo = seg * per_segment;
    const size_t hi = seg + 1 == segments ? frames.saturate_frames
                                          : lo + per_segment;
    std::atomic<int> running{kClients};
    std::vector<std::thread> threads;
    const double cpu_start = CpuSeconds();
    const Clock::time_point seg_start = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientTotals& mine = totals[static_cast<size_t>(c)];
        net::ReportClient* client = clients[static_cast<size_t>(c)].get();
        if (client != nullptr) {
          for (size_t i = lo + static_cast<size_t>(c); i < hi; i += kClients) {
            ScopedSpan span("client.send", static_cast<int64_t>(i));
            ++mine.sends;
            if (!client->Send(frames.frames[i]).ok()) ++mine.failed_sends;
          }
          if (self_test && c == 0 && seg == 0) {
            // Delivered twice but counted once: the gate must catch it.
            if (!client->Send(frames.frames[0]).ok()) ++mine.failed_sends;
          }
          if (!client->Flush().ok()) ++mine.failed_sends;
        }
        running.fetch_sub(1);
      });
    }
    JoinSampling(threads, running, rss);
    const double wall = SecondsSince(seg_start);
    const double reports =
        static_cast<double>((hi - lo) * frames.reports_per_frame);
    result.segment_rps.push_back(reports / wall);
    result.segment_cpu_us.push_back((CpuSeconds() - cpu_start) * 1e6 / reports);
  }
  result.wall_s = SecondsSince(start);
  for (int c = 0; c < kClients; ++c) {
    ClientTotals& mine = totals[static_cast<size_t>(c)];
    if (clients[static_cast<size_t>(c)] != nullptr) {
      mine.AddStats(clients[static_cast<size_t>(c)]->stats());
    }
    result.clients.Add(mine);
  }
  return result;
}

// The workload's reader job, one call per scheduled tick: the top-k over
// the newest epochs, on the replica after a refresh or on the primary.
// Runs on the reader thread only.
class Reader {
 public:
  Reader(const WorkloadSpec& spec, Stack* stack) : spec_(spec), stack_(stack) {}

  uint64_t refreshes() const { return refreshes_; }
  uint64_t advanced() const { return advanced_; }
  const std::vector<double>& lag_epochs() const { return lag_epochs_; }

  Status Run() {
    const bool replica = spec_.query_replica;
    std::vector<uint64_t> epochs;
    if (replica) {
      ScopedSpan span("replica.refresh");
      auto advanced = stack_->view().Refresh();
      if (!advanced.ok()) return advanced.status();
      span.set_count(advanced.value() ? 1 : 0);
      ++refreshes_;
      advanced_ += advanced.value() ? 1 : 0;
      epochs = stack_->view().PersistedEpochs();
      const std::vector<uint64_t> primary = stack_->manager().PersistedEpochs();
      if (!primary.empty() && !epochs.empty()) {
        lag_epochs_.push_back(static_cast<double>(primary.back() - epochs.back()));
      }
    } else {
      epochs = stack_->manager().PersistedEpochs();
    }
    if (epochs.empty()) return Status::OutOfRange("no persisted epoch");
    const size_t window =
        spec_.query_epochs == 0
            ? epochs.size()
            : std::min<size_t>(epochs.size(),
                               static_cast<size_t>(spec_.query_epochs));
    const uint64_t first = epochs[epochs.size() - window];
    std::unique_ptr<Aggregator> merged;
    {
      ScopedSpan span("query.window");
      auto window_or =
          replica ? stack_->view().WindowedQuery(first, epochs.back())
                  : stack_->manager().WindowedQuery(first, epochs.back());
      if (!window_or.ok()) return window_or.status();
      merged = std::move(window_or).value();
    }
    ScopedSpan span("query.topk");
    return merged->EstimateTopK(kTopK).status();
  }

 private:
  const WorkloadSpec& spec_;
  Stack* const stack_;
  uint64_t refreshes_ = 0;
  uint64_t advanced_ = 0;
  std::vector<double> lag_epochs_;
};

struct PacedResult {
  std::vector<double> ack_ms;          // Due time -> OK ack, in due order.
  std::vector<double> send_late_ms;    // Due time -> Send call, in due order.
  std::vector<double> reader_ms;       // Due time -> job done.
  std::vector<double> reader_late_ms;  // Due time -> job start.
  ClientTotals clients;
  uint64_t reader_jobs = 0;
  uint64_t reader_failures = 0;
};

// Open loop: frame j falls due at start + j / rate whatever happened to
// earlier frames; each connection sends its share with pipeline window 1,
// so Send returns at the ack.
PacedResult Paced(Stack& stack, const Frames& frames, const WorkloadSpec& spec,
                  double seconds, Reader& reader, RssPeak& rss) {
  PacedResult result;
  std::vector<ClientTotals> totals(kClients);
  // Indexed by frame; each client writes only its own frames.
  std::vector<double> ack_ms(frames.paced_frames(), -1.0);
  result.send_late_ms.resize(frames.paced_frames());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [start](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::atomic<int> running{kClients + 1};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientTotals& mine = totals[static_cast<size_t>(c)];
      net::ReportClient::Options options;
      options.pipeline_window = 1;
      auto client =
          net::ReportClient::ConnectTcp("127.0.0.1", stack.port(), options);
      if (!client.ok()) {
        ++mine.failed_sends;
        running.fetch_sub(1);
        return;
      }
      for (size_t j = static_cast<size_t>(c); j < frames.paced_frames();
           j += kClients) {
        const Clock::time_point due =
            due_at(static_cast<double>(j) / spec.paced_frames_per_s);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const size_t index = frames.saturate_frames + j;
        Status status;
        {
          ScopedSpan span("client.send", static_cast<int64_t>(index));
          ++mine.sends;
          status = client.value()->Send(frames.frames[index]);
        }
        const Clock::time_point acked = Clock::now();
        result.send_late_ms[j] = MsBetween(due, sent);
        if (status.ok()) {
          ack_ms[j] = MsBetween(due, acked);
        } else {
          ++mine.failed_sends;
        }
      }
      if (!client.value()->Flush().ok()) ++mine.failed_sends;
      mine.AddStats(client.value()->stats());
      running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    for (uint64_t k = 0;; ++k) {
      const double offset = static_cast<double>(k) / spec.query_hz;
      if (offset >= seconds) break;
      const Clock::time_point due = due_at(offset);
      std::this_thread::sleep_until(due);
      const Clock::time_point begun = Clock::now();
      ++result.reader_jobs;
      const Status status = reader.Run();
      const Clock::time_point done = Clock::now();
      result.reader_late_ms.push_back(MsBetween(due, begun));
      if (status.ok()) {
        result.reader_ms.push_back(MsBetween(due, done));
      } else {
        ++result.reader_failures;
        std::fprintf(stderr, "reader job failed: %s\n",
                     status.ToString().c_str());
      }
    }
    running.fetch_sub(1);
  });
  JoinSampling(threads, running, rss);
  for (const ClientTotals& t : totals) result.clients.Add(t);
  for (double ms : ack_ms) {
    if (ms >= 0.0) result.ack_ms.push_back(ms);
  }
  return result;
}

// ------------------------------------------------------------------- verify

bool SameTopK(const std::vector<HeavyHitterEntry>& a,
              const std::vector<HeavyHitterEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].estimate != b[i].estimate) return false;
  }
  return true;
}

struct VerifyResult {
  std::vector<std::string> failures;
  uint64_t epochs = 0;
  double blob_bytes_mean = 0.0;
  uint64_t blob_bytes_total = 0;
  double direct_rps = 0.0;
  double hh_recall = 0.0;
  double hh_err_frac = 0.0;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

VerifyResult Verify(Stack& stack, const Frames& frames,
                    uint64_t reports_per_epoch, const ProtocolConfig& config,
                    const ClientTotals& clients, uint64_t reader_failures) {
  VerifyResult v;
  stack.StopServing();

  v.Check(clients.rejected == 0,
          "rejected frames: " + std::to_string(clients.rejected));
  v.Check(clients.reconnects == 0,
          "reconnects: " + std::to_string(clients.reconnects));
  v.Check(clients.failed_sends == 0,
          "failed sends: " + std::to_string(clients.failed_sends));
  v.Check(reader_failures == 0,
          "failed reader jobs: " + std::to_string(reader_failures));

  // Report counts are conserved: epoch headers sum to the reports sent,
  // and every epoch but the one closed at shutdown holds exactly
  // reports_per_epoch.
  std::map<uint64_t, EpochInfo> epochs;
  for (uint64_t epoch : stack.manager().PersistedEpochs()) {
    Must(ReadEpochInfo(stack.store(), epoch, &epochs[epoch]), "epoch header");
  }
  uint64_t counted = 0;
  uint64_t short_epochs = 0;
  for (const auto& [epoch, info] : epochs) {
    counted += info.reports;
    v.blob_bytes_total += info.bytes;
    const bool last = epoch == epochs.rbegin()->first;
    if (!last && info.reports != reports_per_epoch) ++short_epochs;
  }
  v.epochs = epochs.size();
  v.blob_bytes_mean = Ratio(static_cast<double>(v.blob_bytes_total),
                            static_cast<double>(v.epochs));
  v.Check(counted == frames.reports,
          "report count: epochs hold " + std::to_string(counted) +
              ", sent " + std::to_string(frames.reports));
  v.Check(short_epochs == 0, std::to_string(short_epochs) +
                                 " count-closed epochs do not hold " +
                                 std::to_string(reports_per_epoch) +
                                 " reports");

  // Direct single-threaded aggregation of every report sent.
  std::unique_ptr<Aggregator> direct = Must(CreateAggregator(config), "direct");
  std::vector<WireReport> decoded;
  double aggregate_s = 0.0;
  for (const std::string& frame : frames.frames) {
    decoded.clear();
    Must(DecodeReportBatch(frame, &decoded), "decode");
    const Clock::time_point t = Clock::now();
    for (const WireReport& report : decoded) {
      Must(direct->Aggregate(report), "direct aggregate");
    }
    aggregate_s += SecondsSince(t);
  }
  v.direct_rps = Ratio(static_cast<double>(frames.reports), aggregate_s);
  const std::vector<HeavyHitterEntry> direct_top =
      Must(direct->EstimateTopK(kTopK), "direct top-k");

  const std::vector<uint64_t> persisted = stack.manager().PersistedEpochs();
  v.Check(!persisted.empty(), "no persisted epoch");
  if (!persisted.empty()) {
    auto primary = Must(
        stack.manager().WindowedQuery(persisted.front(), persisted.back()),
        "primary window");
    const auto primary_top = Must(primary->EstimateTopK(kTopK), "top-k");
    Must(stack.view().Refresh().status(), "replica refresh");
    auto replica = stack.view().WindowedQuery(persisted.front(),
                                              persisted.back());
    v.Check(replica.ok(), "replica window: " + replica.status().ToString());
    v.Check(SameTopK(primary_top, direct_top),
            "primary top-k differs from a direct aggregation");
    if (replica.ok()) {
      const auto replica_top =
          Must(replica.value()->EstimateTopK(kTopK), "replica top-k");
      v.Check(SameTopK(replica_top, direct_top),
              "replica top-k differs from a direct aggregation");
    }
  }

  // Accuracy of the protocol over every report sent: equal to what is
  // served, by the top-k check above.
  size_t recovered = 0;
  double worst = 0.0;
  for (const auto& [item, count] : frames.truth) {
    for (const HeavyHitterEntry& entry : direct_top) {
      if (entry.item != item) continue;
      ++recovered;
      worst = std::max(worst, std::fabs(entry.estimate -
                                        static_cast<double>(count)));
    }
  }
  v.hh_recall = Ratio(static_cast<double>(recovered),
                      static_cast<double>(frames.truth.size()));
  v.hh_err_frac = worst / static_cast<double>(frames.reports);
  return v;
}

// -------------------------------------------------------- standalone passes

struct Standalone {
  double decode_ns = 0, encode_ns = 0;
  double shard_create_ms = 0, shard_submit_ns = 0, shard_finish_ms = 0;
  double protocol_encode_ns = 0, protocol_aggregate_ns = 0;
  double state_bytes = 0, serialize_ms = 0, restore_ms = 0, merge_ms = 0,
         topk_ms = 0;
};

// Each layer alone over the workload's own frames.
Standalone RunStandalone(const Frames& frames, const ProtocolConfig& config,
                         uint64_t reports_per_epoch, uint16_t wire_id) {
  Standalone s;
  // Codec, over up to 2^21 reports of saturate frames.
  const size_t codec_frames = std::min<size_t>(
      frames.saturate_frames,
      std::max<size_t>(1, (size_t{1} << 21) / frames.reports_per_frame));
  std::vector<std::vector<WireReport>> batches(codec_frames);
  Clock::time_point t = Clock::now();
  for (size_t f = 0; f < codec_frames; ++f) {
    Must(DecodeReportBatch(frames.frames[f], &batches[f]), "decode");
  }
  const double decode_s = SecondsSince(t);
  size_t encoded_bytes = 0;
  t = Clock::now();
  for (const auto& batch : batches) {
    encoded_bytes += EncodeReportBatch(batch, wire_id).size();
  }
  const double encode_s = SecondsSince(t);
  size_t frame_bytes = 0;
  std::vector<WireReport> reports;
  for (size_t f = 0; f < codec_frames; ++f) {
    frame_bytes += frames.frames[f].size();
    reports.insert(reports.end(), batches[f].begin(), batches[f].end());
  }
  if (encoded_bytes != frame_bytes) Die("codec re-encode changed the bytes");
  batches.clear();
  const double n = static_cast<double>(reports.size());
  s.decode_ns = decode_s * 1e9 / n;
  s.encode_ns = encode_s * 1e9 / n;

  // Sharded aggregator, default options, one epoch.
  std::vector<WireReport> epoch(
      reports.begin(),
      reports.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(
                            reports.size(), reports_per_epoch)));
  t = Clock::now();
  auto sharded = Must(ShardedAggregator::Create(config, {}), "shards");
  Must(sharded->Start(), "shards start");
  s.shard_create_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  Must(sharded->SubmitBatch(epoch), "shards submit");
  Must(sharded->Drain(), "shards drain");
  s.shard_submit_ns =
      SecondsSince(t) * 1e9 / static_cast<double>(epoch.size());
  t = Clock::now();
  Must(sharded->Finish().status(), "shards finish");
  s.shard_finish_ms = SecondsSince(t) * 1e3;

  // Protocol: one registry aggregator.
  auto encoder = Must(CreateAggregator(config), "encoder");
  Rng rng(7);
  t = Clock::now();
  for (size_t i = 0; i < frames.sample.size(); ++i) {
    Must(encoder->Encode(i, frames.sample[i], rng).status(), "encode");
  }
  s.protocol_encode_ns =
      SecondsSince(t) * 1e9 / static_cast<double>(frames.sample.size());
  auto aggregator = Must(CreateAggregator(config), "aggregator");
  t = Clock::now();
  for (const WireReport& report : reports) {
    Must(aggregator->Aggregate(report), "aggregate");
  }
  s.protocol_aggregate_ns = SecondsSince(t) * 1e9 / n;
  std::string state;
  t = Clock::now();
  Must(aggregator->SerializeState(&state), "serialize");
  s.serialize_ms = SecondsSince(t) * 1e3;
  s.state_bytes = static_cast<double>(state.size());
  auto restored = Must(CreateAggregator(config), "restored");
  auto other = Must(CreateAggregator(config), "other");
  Must(other->RestoreState(state), "restore");
  t = Clock::now();
  Must(restored->RestoreState(state), "restore");
  s.restore_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  Must(restored->Merge(*other), "merge");
  s.merge_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  Must(restored->EstimateTopK(kTopK).status(), "top-k");
  s.topk_ms = SecondsSince(t) * 1e3;
  return s;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Span analysis for the per-layer metrics.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != 0) children_[spans_[i].parent].push_back(i);
    }
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  std::vector<const SpanRecord*> Named(std::string_view name) const {
    std::vector<const SpanRecord*> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.push_back(&s);
    }
    return out;
  }

  // The span's duration minus the union of its children's intervals.
  uint64_t SelfNs(const SpanRecord& span) const {
    const uint64_t total = span.end_ns - span.start_ns;
    auto it = children_.find(span.id);
    if (it == children_.end()) return total;
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    for (size_t i : it->second) {
      intervals.emplace_back(std::max(spans_[i].start_ns, span.start_ns),
                             std::min(spans_[i].end_ns, span.end_ns));
    }
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0, reach = span.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    return total - std::min(total, covered);
  }

  bool HasAncestor(const SpanRecord& span, std::string_view name) const {
    uint64_t parent = span.parent;
    while (parent != 0) {
      auto it = by_id_.find(parent);
      if (it == by_id_.end()) return false;
      if (name == spans_[it->second].name) return true;
      parent = spans_[it->second].parent;
    }
    return false;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::unordered_map<uint64_t, size_t> by_id_;
  std::unordered_map<uint64_t, std::vector<size_t>> children_;
};

std::vector<double> MsOf(const std::vector<const SpanRecord*>& spans) {
  std::vector<double> out;
  for (const SpanRecord* s : spans) out.push_back(s->ms());
  return out;
}

bool IsFileSpan(const SpanRecord& s) {
  return std::strncmp(s.name, "file.", 5) == 0;
}

bool IsSyncSpan(const SpanRecord& s) {
  return std::strcmp(s.name, "file.sync") == 0 ||
         std::strcmp(s.name, "file.sync_dir") == 0;
}

void PrintSelfTimes(const SpanIndex& index) {
  struct Row {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : index.spans()) {
    Row& row = rows[s.name];
    ++row.count;
    row.total_ns += s.end_ns - s.start_ns;
    row.self_ns += index.SelfNs(s);
  }
  std::fprintf(stderr, "%-22s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-22s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(row.count),
                 static_cast<double>(row.total_ns) / 1e6,
                 static_cast<double>(row.self_ns) / 1e6);
  }
}

void WriteTrace(const std::string& path, const Options& opts,
                const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"fields\": [\"id\", "
               "\"parent\", \"name\", \"thread\", \"start_ns\", \"end_ns\", "
               "\"frame_id\", \"count\"],\n\"spans\": [",
               opts.spec->name, static_cast<unsigned long long>(opts.seed));
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f, "%s\n[%llu,%llu,\"%s\",%u,%llu,%llu,%lld,%llu]",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.thread,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.frame_id),
                 static_cast<unsigned long long>(s.count));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ------------------------------------------------------------------- driver

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = next();
      for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) opts->spec = &spec;
      }
      if (opts->spec == nullptr) Die("unknown workload " + name);
    } else if (arg == "--seed") {
      opts->seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts->seconds = std::strtod(next(), nullptr);
    } else if (arg == "--trace") {
      opts->trace = std::string(next()) != "0";
    } else if (arg == "--out") {
      opts->out_dir = next();
    } else if (arg == "--quick") {
      opts->quick = true;
    } else if (arg == "--self-test") {
      opts->self_test = true;
    } else {
      return false;
    }
  }
  return opts->spec != nullptr && !opts->out_dir.empty() &&
         opts->seconds > 0.0;
}

int Run(const Options& opts) {
  const WorkloadSpec& spec = *opts.spec;
  // --quick: about a tenth of the sizes (a power of two keeps frames
  // aligned to epochs), every check on.
  const uint64_t reports_per_epoch =
      opts.quick ? spec.reports_per_epoch / 8 : spec.reports_per_epoch;
  const ProtocolConfig config =
      Must(ProtocolConfig::FromText(spec.config), "config");
  const uint16_t wire_id =
      Must(ProtocolRegistry::Global().WireIdOf(config.protocol()), "wire id");
  Must(FileSystem::Default()->CreateDirectories(opts.out_dir), "out dir");
  const std::string dir = opts.out_dir + "/run-" + spec.name + "-" +
                          std::to_string(::getpid());

  Clock::time_point t = Clock::now();
  const Frames frames =
      Generate(spec, config, wire_id, reports_per_epoch, opts);
  std::fprintf(stderr, "[%s] generate %.2fs: %zu frames, %llu reports\n",
               spec.name, SecondsSince(t), frames.frames.size(),
               static_cast<unsigned long long>(frames.reports));

  // Every saturate_epochs is at most 16 or a multiple of 16, so each
  // segment holds whole epochs.
  const uint64_t segments = std::min<uint64_t>(spec.saturate_epochs, 16);
  // Traced runs first saturate an untraced throwaway stack, the base of
  // trace.overhead_frac.
  double untraced_rps = 0.0;
  if (opts.trace) {
    RssPeak unused;
    fs::remove_all(dir + "-untraced");
    {
      Stack baseline(config, reports_per_epoch, spec.reports_per_frame,
                     dir + "-untraced", nullptr);
      baseline.Open();
      untraced_rps = Percentile(
          Saturate(baseline, frames, segments, false, unused).segment_rps, 50);
    }
    fs::remove_all(dir + "-untraced");
    Tracer::Global().set_on(true);
  }

  TracedFileSystem traced_fs;
  RssPeak rss;
  rss.base = RssBytes();
  rss.peak = rss.base;
  fs::remove_all(dir);
  auto stack = std::make_unique<Stack>(config, reports_per_epoch,
                                       spec.reports_per_frame, dir,
                                       opts.trace ? &traced_fs : nullptr);
  stack->Open();

  const SaturateResult sat =
      Saturate(*stack, frames, segments, opts.self_test, rss);
  for (size_t i = 0; i < sat.segment_rps.size(); ++i) {
    std::fprintf(stderr, "[%s] segment %zu: %.0f reports/s, %.3f us/report\n",
                 spec.name, i, sat.segment_rps[i], sat.segment_cpu_us[i]);
  }
  std::fprintf(stderr, "[%s] saturate %.2fs\n", spec.name, sat.wall_s);

  std::vector<double> setup_s;
  for (int r = 0; r < kRestarts; ++r) {
    stack->Shutdown();
    rss.Sample();
    const Clock::time_point open_start = Clock::now();
    stack->Open();
    setup_s.push_back(SecondsSince(open_start));
    rss.Sample();
  }
  std::fprintf(stderr, "[%s] restart median %.4fs\n", spec.name,
               Percentile(setup_s, 50));

  Reader reader(spec, stack.get());
  const PacedResult paced =
      Paced(*stack, frames, spec, opts.seconds, reader, rss);
  std::fprintf(stderr, "[%s] paced: %zu acks, %llu reader jobs\n", spec.name,
               paced.ack_ms.size(),
               static_cast<unsigned long long>(paced.reader_jobs));

  Tracer::Global().set_on(false);
  ClientTotals clients = sat.clients;
  clients.Add(paced.clients);
  t = Clock::now();
  VerifyResult verify =
      Verify(*stack, frames, reports_per_epoch, config, clients,
             paced.reader_failures);
  std::fprintf(stderr, "[%s] verify %.2fs\n", spec.name, SecondsSince(t));
  stack->Shutdown();
  const uint64_t compactions = stack->compactions();
  const double cache_hit_frac = stack->replica_cache_hit_frac();
  stack.reset();
  fs::remove_all(dir);

  const double ingest_rps = Percentile(sat.segment_rps, 50);
  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"ingest_rps", ingest_rps, "reports/s"},
        {"cpu_us_per_report", Percentile(sat.segment_cpu_us, 50), "us"},
        {"ack_p50_ms", BestSlice(paced.ack_ms, 50), "ms"},
        {"ack_p90_ms", BestSlice(paced.ack_ms, 90), "ms"},
        {"reader_p90_ms", BestSlice(paced.reader_ms, 90), "ms"},
        {"rss_mb", static_cast<double>(rss.peak - rss.base) / (1 << 20), "MB"},
    };
  } else {
    const SpanIndex index(Tracer::Global().Collect());
    // Frame self time: client.send minus its linked sink call, over the
    // paced frames (window 1, so Send spans the whole round trip).
    std::unordered_map<int64_t, uint64_t> sink_ns;
    double sink_saturate_ns = 0.0, sink_plain_ns = 0.0, sink_plain_reports = 0.0;
    std::vector<double> roll_ms;
    for (const SpanRecord& s : index.spans()) {
      const bool plain = std::strcmp(s.name, "server.sink") == 0;
      const bool close = std::strcmp(s.name, "server.sink_close") == 0;
      if (!plain && !close) continue;
      sink_ns[s.frame_id] = s.end_ns - s.start_ns;
      if (s.frame_id >= 0 &&
          static_cast<size_t>(s.frame_id) < frames.saturate_frames) {
        sink_saturate_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
      if (plain) {
        sink_plain_ns += static_cast<double>(s.end_ns - s.start_ns);
        sink_plain_reports += static_cast<double>(s.count);
      } else {
        roll_ms.push_back(s.ms());
      }
    }
    std::vector<double> frame_self_us;
    for (const SpanRecord* s : index.Named("client.send")) {
      if (static_cast<size_t>(s->frame_id) < frames.saturate_frames) continue;
      auto it = sink_ns.find(s->frame_id);
      if (it == sink_ns.end()) continue;
      frame_self_us.push_back(
          (static_cast<double>(s->end_ns - s->start_ns) -
           static_cast<double>(it->second)) / 1e3);
    }
    std::vector<double> sync_ms;
    double syncs_in_close = 0.0, appended = 0.0, background_ns = 0.0;
    for (const SpanRecord& s : index.spans()) {
      if (!IsFileSpan(s)) continue;
      if (s.parent == 0) background_ns += static_cast<double>(s.end_ns - s.start_ns);
      if (std::strcmp(s.name, "file.append") == 0) {
        appended += static_cast<double>(s.count);
      }
      if (IsSyncSpan(s)) {
        sync_ms.push_back(s.ms());
        if (index.HasAncestor(s, "server.sink_close")) syncs_in_close += 1.0;
      }
    }
    std::vector<double> refresh_ms;
    for (const SpanRecord* s : index.Named("replica.refresh")) {
      if (s->count != 0) refresh_ms.push_back(s->ms());
    }
    PrintSelfTimes(index);
    const Standalone alone =
        RunStandalone(frames, config, reports_per_epoch, wire_id);
    const double closes = static_cast<double>(roll_ms.size());
    metrics = {
        {"net.frame_self_us_p50", Percentile(frame_self_us, 50), "us"},
        {"net.busy_retry_ratio",
         Ratio(static_cast<double>(clients.busy_retries),
               static_cast<double>(clients.acked)),
         "ratio"},
        {"net.bytes_per_report",
         Ratio(static_cast<double>(frames.bytes),
               static_cast<double>(frames.reports)),
         "B"},
        {"sink.busy_frac", sink_saturate_ns / 1e9 / sat.wall_s, "ratio"},
        {"sink.ns_per_report", Ratio(sink_plain_ns, sink_plain_reports), "ns"},
        {"codec.decode_ns_per_report", alone.decode_ns, "ns"},
        {"codec.encode_ns_per_report", alone.encode_ns, "ns"},
        {"shard.create_ms", alone.shard_create_ms, "ms"},
        {"shard.submit_ns_per_report", alone.shard_submit_ns, "ns"},
        {"shard.finish_ms", alone.shard_finish_ms, "ms"},
        {"protocol.encode_ns", alone.protocol_encode_ns, "ns"},
        {"protocol.aggregate_ns", alone.protocol_aggregate_ns, "ns"},
        {"protocol.state_bytes", alone.state_bytes, "B"},
        {"protocol.serialize_ms", alone.serialize_ms, "ms"},
        {"protocol.restore_ms", alone.restore_ms, "ms"},
        {"protocol.merge_ms", alone.merge_ms, "ms"},
        {"protocol.topk_ms", alone.topk_ms, "ms"},
        {"epoch.closes", closes, "count"},
        {"epoch.roll_ms_p50", Percentile(roll_ms, 50), "ms"},
        {"epoch.roll_ms_p99", Percentile(roll_ms, 99), "ms"},
        {"epoch.blob_bytes", verify.blob_bytes_mean, "B"},
        {"file.syncs_per_epoch", Ratio(syncs_in_close, closes), "count"},
        {"file.sync_ms_p50", Percentile(sync_ms, 50), "ms"},
        {"file.sync_ms_p99", Percentile(sync_ms, 99), "ms"},
        {"store.write_amp",
         Ratio(appended, static_cast<double>(verify.blob_bytes_total)),
         "ratio"},
        {"store.compactions", static_cast<double>(compactions), "count"},
        {"store.background_io_ms", background_ns / 1e6, "ms"},
        {"store.recover_ms", Percentile(MsOf(index.Named("store.open")), 50),
         "ms"},
        {"replica.refresh_ms_p50", Percentile(refresh_ms, 50), "ms"},
        {"replica.refresh_ms_p90", Percentile(refresh_ms, 90), "ms"},
        {"replica.useful_refresh_frac",
         Ratio(static_cast<double>(reader.advanced()),
               static_cast<double>(reader.refreshes())),
         "ratio"},
        {"replica.cache_hit_frac", cache_hit_frac, "ratio"},
        {"replica.lag_epochs", Mean(reader.lag_epochs()), "epochs"},
        {"query.window_ms_p50",
         Percentile(MsOf(index.Named("query.window")), 50), "ms"},
        {"query.topk_ms_p50", Percentile(MsOf(index.Named("query.topk")), 50),
         "ms"},
        {"gen.send_late_ms_p99", Percentile(paced.send_late_ms, 99), "ms"},
        {"gen.query_late_ms_p90", Percentile(paced.reader_late_ms, 90), "ms"},
        {"baseline.direct_rps", verify.direct_rps, "reports/s"},
        {"trace.overhead_frac", 1.0 - Ratio(ingest_rps, untraced_rps), "ratio"},
        {"accuracy.hh_recall", verify.hh_recall, "fraction"},
        {"accuracy.hh_err_frac", verify.hh_err_frac, "fraction"},
    };
    const std::string trace_path =
        opts.out_dir + "/" + spec.name + ".trace.json";
    WriteTrace(trace_path, opts, index.spans());
    std::fprintf(stderr, "[%s] wrote %zu spans to %s\n", spec.name,
                 index.spans().size(), trace_path.c_str());
  }

  std::fprintf(stderr,
               "[%s] samples: ack %zu, reader %zu; epochs %llu; send lateness "
               "p99 %.3f ms\n",
               spec.name, paced.ack_ms.size(), paced.reader_ms.size(),
               static_cast<unsigned long long>(verify.epochs),
               Percentile(paced.send_late_ms, 99));
  // A backlog that grew means the open loop stopped being open.
  if (!paced.send_late_ms.empty() && paced.send_late_ms.back() > 1000.0) {
    std::fprintf(stderr,
                 "[%s] WARNING: the generator fell %.0f ms behind; the paced "
                 "numbers are not valid\n",
                 spec.name, paced.send_late_ms.back());
  }
  for (const std::string& failure : verify.failures) {
    std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", spec.name,
                 failure.c_str());
  }

  const uint64_t attempted = clients.sends + paced.reader_jobs;
  const uint64_t failed = clients.errors() + paced.reader_failures;
  const bool correct = verify.failures.empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s %s %s %s\n", spec.name, m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ldphh

int main(int argc, char** argv) {
  ldphh::Options opts;
  if (!ldphh::ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR [--quick] [--self-test]\n");
    return 2;
  }
  return ldphh::Run(opts);
}
