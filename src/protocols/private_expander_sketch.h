/// \file private_expander_sketch.h
/// \brief Algorithm PrivateExpanderSketch (Section 3.3) — the paper's main
/// contribution: an eps-LDP heavy-hitters protocol with worst-case error
/// O((1/eps) sqrt(n log(|X|/beta))), optimal in all parameters.
///
/// Pipeline (each user sends one combined message, eps/2 + eps/2):
///   1. Public randomness assigns user i to a coordinate group m in [M] and
///      a payload position j (DESIGN.md substitution 5: the argmax over the
///      exponential payload alphabet [Z] is realized bitwise), and publishes
///      the Theorem 3.6 code (expander + hashes h_1..h_M) and the bucket
///      hash g : X -> [B].
///   2. User i computes Enc(x_i) = (h_m(x_i), E~nc(x_i)_m), extracts payload
///      bit j, and reports the cell (g(x_i), h_m(x_i), bit) through the
///      small-domain Hashtogram (Theorem 3.8) of its (m, j) group — plus a
///      global Hashtogram (Theorem 3.7) report for step 5.
///   3. The server scans all (m, b, y) cells, keeps hash values whose
///      estimated support count stands out (step 3b threshold), recovers
///      payloads by per-position majority, and caps each list at ell.
///   4. Per bucket b, the Theorem 3.6 decoder (layered graph -> spectral
///      clusters -> RS errors-and-erasures) returns the candidate set H^b.
///   5. The global Hashtogram estimates f_S(x) for every candidate;
///      the output is Est = {(x, f^(x))}.

#ifndef LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_
#define LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_

#include <cstdint>
#include <vector>

#include "src/codes/url_code.h"
#include "src/freq/hadamard_response.h"
#include "src/hashing/kwise_hash.h"
#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// Tuning parameters for PrivateExpanderSketch.
struct PesParams {
  int domain_bits = 64;      ///< log2 |X|.
  double epsilon = 2.0;      ///< Total privacy budget (split eps/2 + eps/2).
  double beta = 1e-3;        ///< Failure probability target.

  int num_coords = 0;        ///< M; 0 = auto from domain_bits.
  int hash_range = 32;       ///< Y (power of two).
  int expander_degree = 4;   ///< d (even).
  int num_buckets = 0;       ///< B; 0 = auto ~ eps sqrt(n)/log^{3/2}|X|.
  double bucket_mult = 1.0;  ///< Scales the auto B.

  double threshold_sigmas = 4.0;  ///< Step 3b: tau = this * sd(count noise).
  int list_cap = 0;          ///< ell; 0 = auto 4 ceil(log2 |X|).
  double alpha = 0.25;       ///< Code's tolerated bad-coordinate fraction.
};

/// \brief The Section 3.3 protocol. `Run` drives the registry's
/// `private_expander_sketch` aggregator (src/protocols/hh_serving.h) with
/// n_hint = n; the step-5 global oracle's rows follow beta.
class PrivateExpanderSketch final : public HeavyHitterProtocol {
 public:
  /// Validates parameters and resolves the auto fields that do not depend
  /// on n (M, list cap).
  static StatusOr<PrivateExpanderSketch> Create(const PesParams& params);

  StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                  uint64_t seed) override;
  std::string Name() const override { return "private-expander-sketch"; }
  double Epsilon() const override { return params_.epsilon; }

  /// \brief The smallest frequency the protocol reliably detects at n users
  /// (the Theorem 3.13 item-2 guarantee, with this implementation's
  /// constants): ~4.5 c_{eps/2} sqrt(n M Lz), where Lz is the payload width.
  ///
  /// The paper's asymptotic form is O((1/eps) sqrt(n log(|X|/beta)));
  /// M * Lz = O(log |X|) realizes the log |X| factor.
  double DetectionThreshold(uint64_t n) const;

  /// Resolved M.
  int num_coords() const { return params_.num_coords; }
  /// Payload bits per coordinate (Lz).
  int payload_bits() const { return payload_bits_; }
  const PesParams& params() const { return params_; }

 private:
  PrivateExpanderSketch(const PesParams& params, int payload_bits);

  PesParams params_;
  int payload_bits_;
};

/// Steps 3-4 of the server decode (candidate-list reconstruction + the
/// Theorem 3.6 per-bucket decoder + bucket-hash verification), run by the
/// serving aggregator's EstimateTopK (src/protocols/hh_serving.h).
/// \p cell_fo must be finalized, laid out [m * payload_bits + j] over the
/// cell domain [num_buckets] x [hash_range] x {0,1}. Returns verified
/// candidates in recovery order, deduplicated.
std::vector<DomainItem> PesRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo, const UrlCode& code,
    const KWiseHash& bucket_hash, int num_coords, int num_buckets,
    int hash_range, int payload_bits, int list_cap, double tau,
    Rng& decode_rng);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_
