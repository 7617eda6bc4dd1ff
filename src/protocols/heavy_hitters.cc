#include "src/protocols/heavy_hitters.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/protocols/registry.h"

namespace ldphh {

StatusOr<HeavyHitterResult> RunServedProtocol(
    const ProtocolConfig& config, const std::vector<DomainItem>& database,
    uint64_t seed, size_t k, ProtocolConfig* resolved) {
  auto aggregator_or = CreateAggregator(config);
  LDPHH_RETURN_IF_ERROR(aggregator_or.status());
  const std::unique_ptr<Aggregator> aggregator =
      std::move(aggregator_or).value();
  const uint64_t n = database.size();

  HeavyHitterResult result;
  ProtocolMetrics& m = result.metrics;
  m.num_users = n;

  // Client side. Reports are buffered so user and server time are measured
  // separately.
  Rng coins = Rng(seed).Fork(/*stream_id=*/1);
  std::vector<WireReport> reports;
  reports.reserve(static_cast<size_t>(n));
  Timer user_timer;
  for (uint64_t i = 0; i < n; ++i) {
    auto report_or = aggregator->Encode(i, database[i], coins);
    LDPHH_RETURN_IF_ERROR(report_or.status());
    reports.push_back(report_or.value());
  }
  m.user_seconds_total = user_timer.Seconds();
  for (const WireReport& r : reports) {
    const uint64_t bits = static_cast<uint64_t>(r.report.num_bits);
    m.comm_bits_total += bits;
    m.comm_bits_max_user = std::max(m.comm_bits_max_user, bits);
  }

  // Server side. The snapshot is taken off the clock.
  Timer server_timer;
  for (const WireReport& r : reports) {
    LDPHH_RETURN_IF_ERROR(aggregator->Aggregate(r));
  }
  m.server_seconds = server_timer.Seconds();
  std::string state;
  LDPHH_RETURN_IF_ERROR(aggregator->SerializeState(&state));
  m.server_memory_bytes = state.size();
  server_timer.Reset();
  auto entries_or = aggregator->EstimateTopK(k);
  LDPHH_RETURN_IF_ERROR(entries_or.status());
  result.entries = std::move(entries_or).value();
  m.server_seconds += server_timer.Seconds();

  if (resolved != nullptr) *resolved = aggregator->config();
  return result;
}

std::vector<std::pair<DomainItem, uint64_t>> ExactFrequencies(
    const std::vector<DomainItem>& database) {
  std::unordered_map<DomainItem, uint64_t, DomainItemHash> freq;
  freq.reserve(database.size());
  for (const DomainItem& x : database) ++freq[x];
  std::vector<std::pair<DomainItem, uint64_t>> out(freq.begin(), freq.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

HeavyHitterEval EvaluateHeavyHitters(const std::vector<DomainItem>& database,
                                     const HeavyHitterResult& result,
                                     uint64_t threshold) {
  std::unordered_map<DomainItem, uint64_t, DomainItemHash> freq;
  freq.reserve(database.size());
  for (const DomainItem& x : database) ++freq[x];

  HeavyHitterEval eval;
  eval.list_size = result.entries.size();

  std::unordered_map<DomainItem, double, DomainItemHash> listed;
  listed.reserve(result.entries.size());
  for (const auto& entry : result.entries) {
    listed[entry.item] = entry.estimate;
    const auto it = freq.find(entry.item);
    const double truth =
        it == freq.end() ? 0.0 : static_cast<double>(it->second);
    eval.max_estimate_error =
        std::max(eval.max_estimate_error, std::abs(entry.estimate - truth));
  }

  for (const auto& [item, count] : freq) {
    const bool found = listed.count(item) > 0;
    if (count >= threshold) {
      ++eval.true_hitters_total;
      if (found) ++eval.true_hitters_found;
    }
    if (!found) {
      eval.max_missed_frequency = std::max(eval.max_missed_frequency, count);
    }
  }
  return eval;
}

}  // namespace ldphh
