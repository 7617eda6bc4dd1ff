/// \file succinct_hist.h
/// \brief The Bassily-Smith 2015 baseline (succinct histograms, Table 1's
/// third column).
///
/// Every user reports a single randomized-response bit of a public random
/// +-1 projection of its item (a personal 4-wise sign phi_i(x)); the server
/// estimates f^(x) = c_eps sum_i b~_i phi_i(x), which costs Theta(n) per
/// query, and finds heavy hitters by scanning the whole domain — time
/// Theta(n |X|). With the paper's |X| = poly(n) setting this reproduces the
/// O~(n^2.5) server time of Table 1. The per-user cost here is O~(1)
/// because we derive the projection from a seed; the O~(n^1.5) user time of
/// Table 1 is the cost of materializing the public randomness without
/// random access (footnote 2), which we account for but do not burn cycles
/// on — see EXPERIMENTS.md.

#ifndef LDPHH_PROTOCOLS_SUCCINCT_HIST_H_
#define LDPHH_PROTOCOLS_SUCCINCT_HIST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// Tuning parameters for the succinct-histogram baseline.
struct SuccinctHistParams {
  int domain_bits = 16;   ///< Scan cost is n * 2^domain_bits: keep small.
  double epsilon = 2.0;
  double beta = 1e-3;
  double threshold_sigmas = 4.0;
  int list_cap = 256;
};

/// \brief The [4] baseline protocol. `Run` drives the registry's
/// `succinct_hist` aggregator (src/protocols/hh_serving.h).
class SuccinctHist final : public HeavyHitterProtocol {
 public:
  static StatusOr<SuccinctHist> Create(const SuccinctHistParams& params);

  StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                  uint64_t seed) override;
  std::string Name() const override { return "succinct-hist"; }
  double Epsilon() const override { return params_.epsilon; }

  /// Detection threshold ~ threshold_sigmas * c_eps sqrt(n (D + ln(1/beta))).
  double DetectionThreshold(uint64_t n) const;

  const SuccinctHistParams& params() const { return params_; }

 private:
  explicit SuccinctHist(const SuccinctHistParams& params) : params_(params) {}

  SuccinctHistParams params_;
};

/// The personal +-1 projection phi_i(x), derived from (seed, user, item).
/// Public randomness: the serving aggregator's client Encode and its server
/// scan both evaluate it.
inline int SuccinctHistSign(uint64_t sign_seed, uint64_t user,
                            const DomainItem& x) {
  const uint64_t h = Mix64(sign_seed ^ Mix64(user + 1) ^ x.Fingerprint());
  return (h & 1) ? 1 : -1;
}

/// The server decode: full-domain scan of f^(x) = c_eps sum_i b~_i phi_i(x)
/// over the (user, report-bit) pairs, keeping estimates >= tau, capped at
/// \p list_cap by estimate. Entries return sorted by estimate descending
/// (ties: value ascending). Run by the serving aggregator's EstimateTopK.
std::vector<HeavyHitterEntry> SuccinctHistScan(
    uint64_t sign_seed, const std::vector<std::pair<uint64_t, int8_t>>& reports,
    int domain_bits, double epsilon, double tau, int list_cap);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_SUCCINCT_HIST_H_
