/// \file bitstogram.h
/// \brief The Bassily-Nissim-Stemmer-Thakurta 2017 heavy-hitters baseline
/// ("Bitstogram", Theorem 3.3 / Section 3.1.1 of the paper).
///
/// One public hash h_c : X -> [Yb] per cohort; users decode the raw bits of
/// the item per hash value by majority (no error-correcting code, no
/// expander). A single hash fails a heavy hitter when another input
/// collides, so the construction amplifies with rho = O(log(1/beta))
/// independent cohorts — which costs the extra sqrt(log(1/beta)) factor in
/// the error that PrivateExpanderSketch removes. This implementation shares
/// the frequency-oracle machinery with PES so the F1 comparison isolates
/// exactly that reduction difference.

#ifndef LDPHH_PROTOCOLS_BITSTOGRAM_H_
#define LDPHH_PROTOCOLS_BITSTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/freq/hadamard_response.h"
#include "src/hashing/kwise_hash.h"
#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// Tuning parameters for Bitstogram.
struct BitstogramParams {
  int domain_bits = 64;
  double epsilon = 2.0;
  double beta = 1e-3;

  int hash_range = 0;   ///< Yb; 0 = auto next_pow2(2 sqrt(n)).
  int cohorts = 0;      ///< rho; 0 = auto max(1, ceil(log2(1/beta))).
  double threshold_sigmas = 4.0;
  int list_cap_per_cohort = 64;
};

/// \brief The [3] baseline protocol. `Run` drives the registry's
/// `bitstogram` aggregator (src/protocols/hh_serving.h) with n_hint = n.
class Bitstogram final : public HeavyHitterProtocol {
 public:
  static StatusOr<Bitstogram> Create(const BitstogramParams& params);

  StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                  uint64_t seed) override;
  std::string Name() const override { return "bitstogram"; }
  double Epsilon() const override { return params_.epsilon; }

  /// Detection threshold analogue of PES::DetectionThreshold:
  /// ~4.5 c_{eps/2} sqrt(n * rho * D) — note the sqrt(rho) = sqrt(log 1/beta)
  /// factor the paper's Theorem 3.3 charges.
  double DetectionThreshold(uint64_t n) const;

  int cohorts() const { return params_.cohorts; }
  const BitstogramParams& params() const { return params_; }

 private:
  explicit Bitstogram(const BitstogramParams& params) : params_(params) {}

  BitstogramParams params_;
};

/// Candidate reconstruction (the server decode step), run by the serving
/// aggregator's EstimateTopK (src/protocols/hh_serving.h): per cohort,
/// per hash value, majority bit at every position; keep hash values whose
/// support count clears \p tau and whose reconstructed item hashes back to
/// its own cell. \p cell_fo must be finalized, laid out
/// [cohort * domain_bits + bit_position]. Candidates return in recovery
/// order, deduplicated.
std::vector<DomainItem> BitstogramRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo,
    const HashFamily& cohort_hash, int cohorts, int domain_bits,
    int hash_range, int list_cap_per_cohort, double tau);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_BITSTOGRAM_H_
