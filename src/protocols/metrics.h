/// \file metrics.h
/// \brief Resource accounting for the Table-1 comparison.
///
/// Protocols run inside a simulation harness that measures, per run, the
/// seven Table-1 rows: server time, user time, server memory, user memory,
/// communication per user, public randomness per user, and worst-case
/// error (the last is computed by the evaluation helpers, not here).

#ifndef LDPHH_PROTOCOLS_METRICS_H_
#define LDPHH_PROTOCOLS_METRICS_H_

#include <cstdint>
#include <string>

namespace ldphh {

/// Resource measurements of one protocol execution.
struct ProtocolMetrics {
  double server_seconds = 0.0;       ///< Aggregation + decoding wall time.
  double user_seconds_total = 0.0;   ///< Sum of all users' encode time.
  uint64_t comm_bits_total = 0;      ///< Total bits users sent.
  uint64_t comm_bits_max_user = 0;   ///< Max bits any single user sent.
  uint64_t public_random_bits_per_user = 0;  ///< Seed words the user expands.
  size_t server_memory_bytes = 0;    ///< Serialized aggregation state.
  uint64_t num_users = 0;

  double UserSecondsAvg() const {
    return num_users ? user_seconds_total / static_cast<double>(num_users) : 0.0;
  }
  double CommBitsAvg() const {
    return num_users ? static_cast<double>(comm_bits_total) /
                           static_cast<double>(num_users)
                     : 0.0;
  }

  /// One human-readable line (Table-1 shorthand).
  std::string ToString() const;

  /// The same measurements as one JSON object, rendered through the shared
  /// obs::JsonWriter so harness output and runtime metrics expositions use
  /// one number-formatting/escaping policy.
  std::string ToJson() const;
};

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_METRICS_H_
