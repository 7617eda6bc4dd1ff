/// \file freq_scan.h
/// \brief The n > |X| regime: apply a frequency oracle to every domain
/// element (the remark before Theorem 3.13).
///
/// When the domain is small, heavy hitters reduce to "query the oracle
/// everywhere": this protocol runs the Theorem 3.8 Hadamard-response oracle
/// over the full domain and returns everything above threshold. It is both
/// the paper's complementary-case protocol and the natural correctness
/// reference for the other protocols on small domains.

#ifndef LDPHH_PROTOCOLS_FREQ_SCAN_H_
#define LDPHH_PROTOCOLS_FREQ_SCAN_H_

#include <cstdint>

#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// Tuning parameters for the scan protocol.
struct FreqScanParams {
  int domain_bits = 16;  ///< Server memory/time is 2^domain_bits: keep <= 24.
  double epsilon = 2.0;
  double beta = 1e-3;
  double threshold_sigmas = 4.0;
  int list_cap = 1024;
};

/// \brief Frequency-oracle scan protocol. `Run` drives the registry's
/// `hadamard_response` aggregator over domain 2^domain_bits.
class FreqScan final : public HeavyHitterProtocol {
 public:
  static StatusOr<FreqScan> Create(const FreqScanParams& params);

  StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                  uint64_t seed) override;
  std::string Name() const override { return "freq-scan"; }
  double Epsilon() const override { return params_.epsilon; }

  /// Threshold ~ threshold_sigmas c_eps sqrt(n).
  double DetectionThreshold(uint64_t n) const;

 private:
  explicit FreqScan(const FreqScanParams& params) : params_(params) {}

  FreqScanParams params_;
};

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_FREQ_SCAN_H_
