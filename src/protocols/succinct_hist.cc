#include "src/protocols/succinct_hist.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ldphh {

StatusOr<SuccinctHist> SuccinctHist::Create(const SuccinctHistParams& params) {
  if (params.domain_bits < 4 || params.domain_bits > 24) {
    return Status::InvalidArgument(
        "SuccinctHist: the full-domain scan needs domain_bits in [4, 24]");
  }
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("SuccinctHist: epsilon must be positive");
  }
  return SuccinctHist(params);
}

double SuccinctHist::DetectionThreshold(uint64_t n) const {
  const double e = std::exp(params_.epsilon);
  const double c = (e + 1.0) / (e - 1.0);
  return params_.threshold_sigmas * c *
         std::sqrt(static_cast<double>(n) *
                   (static_cast<double>(params_.domain_bits) * std::log(2.0) +
                    std::log(1.0 / params_.beta)));
}

StatusOr<HeavyHitterResult> SuccinctHist::Run(
    const std::vector<DomainItem>& database, uint64_t seed) {
  if (database.size() < 16) {
    return Status::InvalidArgument("SuccinctHist: need >= 16 users");
  }
  ProtocolConfig config("succinct_hist");
  config.SetUint("domain_bits", static_cast<uint64_t>(params_.domain_bits))
      .SetDouble("eps", params_.epsilon)
      .SetDouble("beta", params_.beta)
      .SetUint("seed", seed)
      .SetDouble("threshold_sigmas", params_.threshold_sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(params_.list_cap));
  auto result_or = RunServedProtocol(config, database, seed,
                                     std::numeric_limits<size_t>::max(),
                                     /*resolved=*/nullptr);
  LDPHH_RETURN_IF_ERROR(result_or.status());
  HeavyHitterResult result = std::move(result_or).value();
  // Without random access, a user materializes the sign table over X
  // (Table 1's O~(n^1.5) with |X| = n^1.5): account, do not simulate.
  result.metrics.public_random_bits_per_user = uint64_t{1}
                                               << params_.domain_bits;
  return result;
}

std::vector<HeavyHitterEntry> SuccinctHistScan(
    uint64_t sign_seed, const std::vector<std::pair<uint64_t, int8_t>>& reports,
    int domain_bits, double epsilon, double tau, int list_cap) {
  const uint64_t domain = uint64_t{1} << domain_bits;
  const double e = std::exp(epsilon);
  const double c_eps = (e + 1.0) / (e - 1.0);
  struct Scored {
    uint64_t value;
    double estimate;
  };
  std::vector<Scored> hits;
  for (uint64_t v = 0; v < domain; ++v) {
    const DomainItem item(v);
    // The summands are +-1, so the accumulator is integer-valued and the
    // sum is exact in any order — the merge-equivalence guarantee.
    double acc = 0.0;
    for (const auto& [user, bit] : reports) {
      acc += static_cast<double>(bit) *
             static_cast<double>(SuccinctHistSign(sign_seed, user, item));
    }
    const double estimate = c_eps * acc;
    if (estimate >= tau) hits.push_back(Scored{v, estimate});
  }
  // Canonical order (estimate descending, ties value ascending — a total
  // order), applied whether or not the cap truncates, so the documented
  // sorted-ness holds on every path and equal state scans byte-identically.
  std::sort(hits.begin(), hits.end(), [](const Scored& a, const Scored& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.value < b.value;
  });
  if (static_cast<int>(hits.size()) > list_cap) {
    hits.resize(static_cast<size_t>(list_cap));
  }
  std::vector<HeavyHitterEntry> entries;
  entries.reserve(hits.size());
  for (const Scored& s : hits) {
    entries.push_back(HeavyHitterEntry{DomainItem(s.value), s.estimate});
  }
  return entries;
}

}  // namespace ldphh
