/// \file heavy_hitters.h
/// \brief The heavy-hitters problem interface (Definition 3.1), the one
/// driver every protocol's `Run` goes through, and the evaluation helpers
/// that check a protocol's output against it.

#ifndef LDPHH_PROTOCOLS_HEAVY_HITTERS_H_
#define LDPHH_PROTOCOLS_HEAVY_HITTERS_H_

#include <string>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/status.h"
#include "src/protocols/metrics.h"
#include "src/protocols/protocol_config.h"

namespace ldphh {

/// One output entry: an identified element and its frequency estimate.
struct HeavyHitterEntry {
  DomainItem item;
  double estimate = 0.0;
};

/// Full protocol output.
struct HeavyHitterResult {
  std::vector<HeavyHitterEntry> entries;
  ProtocolMetrics metrics;
};

/// \brief A (simulated) distributed LDP heavy-hitters protocol.
///
/// `Run` executes the whole protocol over the distributed database: per-user
/// encoding with per-user private coins, server aggregation, and decoding.
/// Every implementation maps its parameters to a `ProtocolConfig` and calls
/// `RunServedProtocol`, so a simulated run executes exactly the registry
/// `Aggregator` the server runs.
class HeavyHitterProtocol {
 public:
  virtual ~HeavyHitterProtocol() = default;

  /// Executes the protocol; \p seed derives public and private randomness.
  virtual StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                          uint64_t seed) = 0;

  /// Protocol name for reports.
  virtual std::string Name() const = 0;
  /// The end-to-end privacy parameter.
  virtual double Epsilon() const = 0;
};

/// \brief Runs the registry protocol \p config over \p database in one shot:
/// builds the `Aggregator`, encodes user i's item as user index i, aggregates
/// every report, and decodes the top \p k entries.
///
/// Private coins come from a stream forked off \p seed, independent of the
/// config's public-randomness `seed` key. Metrics: `user_seconds_total` is
/// the encode loop, the communication counts are the wire reports' widths,
/// `server_seconds` is aggregation plus decoding, and `server_memory_bytes`
/// is the size of the aggregator's `SerializeState` snapshot after the last
/// report — the bytes an epoch persists. \p resolved (optional) receives the
/// aggregator's fully resolved config.
StatusOr<HeavyHitterResult> RunServedProtocol(
    const ProtocolConfig& config, const std::vector<DomainItem>& database,
    uint64_t seed, size_t k, ProtocolConfig* resolved);

/// Evaluation of a result against the true frequencies (Definition 3.1).
struct HeavyHitterEval {
  double max_estimate_error = 0.0;   ///< max over entries |estimate - f_S|.
  uint64_t max_missed_frequency = 0; ///< largest f_S(x) for x not in the list.
  size_t list_size = 0;
  size_t true_hitters_found = 0;     ///< Elements above the threshold found.
  size_t true_hitters_total = 0;
};

/// \brief Scores \p result against \p database.
///
/// \param threshold  elements with frequency >= threshold count as the
///                   "must find" set for the recall statistics.
HeavyHitterEval EvaluateHeavyHitters(const std::vector<DomainItem>& database,
                                     const HeavyHitterResult& result,
                                     uint64_t threshold);

/// Exact frequency map of the database (test/eval helper).
std::vector<std::pair<DomainItem, uint64_t>> ExactFrequencies(
    const std::vector<DomainItem>& database);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_HEAVY_HITTERS_H_
