#include "src/protocols/bitstogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace ldphh {

StatusOr<Bitstogram> Bitstogram::Create(const BitstogramParams& params) {
  BitstogramParams p = params;
  if (p.domain_bits < 8 || p.domain_bits > 256) {
    return Status::InvalidArgument("Bitstogram: domain_bits must be in [8, 256]");
  }
  if (p.epsilon <= 0.0) {
    return Status::InvalidArgument("Bitstogram: epsilon must be positive");
  }
  if (p.beta <= 0.0 || p.beta >= 1.0) {
    return Status::InvalidArgument("Bitstogram: beta must be in (0, 1)");
  }
  if (p.cohorts == 0) {
    p.cohorts = std::max(1, static_cast<int>(std::ceil(std::log2(1.0 / p.beta))));
  }
  return Bitstogram(p);
}

double Bitstogram::DetectionThreshold(uint64_t n) const {
  const double e = std::exp(params_.epsilon / 2.0);
  const double c = (e + 1.0) / (e - 1.0);
  const double groups = static_cast<double>(params_.cohorts) *
                        static_cast<double>(params_.domain_bits);
  return 4.5 * c * std::sqrt(static_cast<double>(n) * groups);
}

StatusOr<HeavyHitterResult> Bitstogram::Run(
    const std::vector<DomainItem>& database, uint64_t seed) {
  if (database.size() < 16) {
    return Status::InvalidArgument("Bitstogram: need >= 16 users");
  }
  ProtocolConfig config("bitstogram");
  config.SetUint("domain_bits", static_cast<uint64_t>(params_.domain_bits))
      .SetDouble("eps", params_.epsilon)
      .SetDouble("beta", params_.beta)
      .SetUint("n_hint", database.size())
      .SetUint("seed", seed)
      .SetUint("hash_range", static_cast<uint64_t>(params_.hash_range))
      .SetUint("cohorts", static_cast<uint64_t>(params_.cohorts))
      .SetDouble("threshold_sigmas", params_.threshold_sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(params_.list_cap_per_cohort));
  ProtocolConfig resolved;
  auto result_or = RunServedProtocol(config, database, seed,
                                     std::numeric_limits<size_t>::max(),
                                     &resolved);
  LDPHH_RETURN_IF_ERROR(result_or.status());
  HeavyHitterResult result = std::move(result_or).value();
  // Public randomness a user consumes, in 61-bit field elements: the cohort
  // hashes, the global Hashtogram row hashes, and the group-assignment word.
  result.metrics.public_random_bits_per_user =
      (2 * resolved.GetUintOr("cohorts", 0) + 4 +
       6 * resolved.GetUintOr("fo_rows", 0) + 1) *
      61;
  return result;
}

std::vector<DomainItem> BitstogramRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo,
    const HashFamily& cohort_hash, int cohorts, int domain_bits,
    int hash_range, int list_cap_per_cohort, double tau) {
  struct Candidate {
    DomainItem item;
    double count;
    int y;
  };
  std::unordered_set<DomainItem, DomainItemHash> recovered;
  std::vector<DomainItem> ordered;
  std::vector<Candidate> cands;
  for (int c = 0; c < cohorts; ++c) {
    cands.clear();
    for (int y = 0; y < hash_range; ++y) {
      double count = 0.0;
      DomainItem item;
      for (int j = 0; j < domain_bits; ++j) {
        const auto& fo = cell_fo[static_cast<size_t>(c * domain_bits + j)];
        const double e0 = fo.Estimate(static_cast<uint64_t>(y) * 2);
        const double e1 = fo.Estimate(static_cast<uint64_t>(y) * 2 + 1);
        count += e0 + e1;
        if (e1 > e0) item.SetBit(j, 1);
      }
      if (count >= tau) cands.push_back(Candidate{item, count, y});
    }
    if (static_cast<int>(cands.size()) > list_cap_per_cohort) {
      std::partial_sort(cands.begin(), cands.begin() + list_cap_per_cohort,
                        cands.end(), [](const Candidate& a, const Candidate& b) {
                          return a.count > b.count;
                        });
      cands.resize(static_cast<size_t>(list_cap_per_cohort));
    }
    for (const Candidate& cand : cands) {
      // A candidate is plausible only if it hashes back to its own cell.
      if (static_cast<int>(cohort_hash.at(c)(cand.item)) != cand.y) continue;
      if (recovered.insert(cand.item).second) ordered.push_back(cand.item);
    }
  }
  return ordered;
}

}  // namespace ldphh
