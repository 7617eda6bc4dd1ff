#include "src/protocols/treehist.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ldphh {

StatusOr<TreeHist> TreeHist::Create(const TreeHistParams& params) {
  if (params.domain_bits < 8 || params.domain_bits > 256) {
    return Status::InvalidArgument("TreeHist: domain_bits must be in [8, 256]");
  }
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("TreeHist: epsilon must be positive");
  }
  if (params.beta <= 0.0 || params.beta >= 1.0) {
    return Status::InvalidArgument("TreeHist: beta must be in (0, 1)");
  }
  if (params.frontier_cap < 2) {
    return Status::InvalidArgument("TreeHist: frontier_cap must be >= 2");
  }
  return TreeHist(params);
}

double TreeHist::DetectionThreshold(uint64_t n) const {
  const double e = std::exp(params_.epsilon / 2.0);
  const double c = (e + 1.0) / (e - 1.0);
  // The served level oracles resolve their rows from beta at this n_hint.
  HashtogramParams level;
  level.beta = params_.beta;
  Hashtogram rows_probe(std::max<uint64_t>(n / params_.domain_bits, 16),
                        params_.epsilon / 2.0, level, 1);
  return params_.threshold_sigmas * c *
         std::sqrt(static_cast<double>(n) *
                   static_cast<double>(params_.domain_bits) *
                   static_cast<double>(rows_probe.rows()));
}

StatusOr<HeavyHitterResult> TreeHist::Run(const std::vector<DomainItem>& database,
                                          uint64_t seed) {
  if (database.size() < static_cast<uint64_t>(4 * params_.domain_bits)) {
    return Status::InvalidArgument("TreeHist: need at least 4 log|X| users");
  }
  ProtocolConfig config("treehist");
  config.SetUint("domain_bits", static_cast<uint64_t>(params_.domain_bits))
      .SetDouble("eps", params_.epsilon)
      .SetDouble("beta", params_.beta)
      .SetUint("n_hint", database.size())
      .SetUint("seed", seed)
      .SetDouble("threshold_sigmas", params_.threshold_sigmas)
      .SetUint("frontier_cap", static_cast<uint64_t>(params_.frontier_cap));
  ProtocolConfig resolved;
  auto result_or = RunServedProtocol(config, database, seed,
                                     std::numeric_limits<size_t>::max(),
                                     &resolved);
  LDPHH_RETURN_IF_ERROR(result_or.status());
  HeavyHitterResult result = std::move(result_or).value();
  // The level and global Hashtogram row hashes plus the two assignment
  // words, all 61-bit field elements.
  result.metrics.public_random_bits_per_user =
      (6 * resolved.GetUintOr("level_rows", 0) +
       6 * resolved.GetUintOr("fo_rows", 0) + 2) *
      61;
  return result;
}

std::vector<DomainItem> TreeHistGrowFrontier(
    const std::vector<Hashtogram>& level_fo,
    const std::vector<uint64_t>& level_counts, int domain_bits, double c_eps,
    double threshold_sigmas, int frontier_cap) {
  struct Scored {
    DomainItem prefix;
    double score;
  };
  std::vector<Scored> frontier = {{DomainItem(), 0.0}};
  for (int l = 0; l < domain_bits; ++l) {
    const auto& fo = level_fo[static_cast<size_t>(l)];
    const double n_l = static_cast<double>(level_counts[static_cast<size_t>(l)]);
    const double tau = threshold_sigmas * c_eps *
                       std::sqrt(std::max(1.0, n_l) *
                                 static_cast<double>(fo.rows()));
    std::vector<Scored> next;
    next.reserve(frontier.size() * 2);
    for (const auto& cand : frontier) {
      for (int bit = 0; bit < 2; ++bit) {
        DomainItem child = cand.prefix;
        child.SetBit(l, bit);
        const double est = fo.Estimate(child);
        if (est >= tau) next.push_back({child, est});
      }
    }
    if (static_cast<int>(next.size()) > frontier_cap) {
      std::partial_sort(next.begin(), next.begin() + frontier_cap, next.end(),
                        [](const Scored& a, const Scored& b) {
                          return a.score > b.score;
                        });
      next.resize(static_cast<size_t>(frontier_cap));
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  std::vector<DomainItem> leaves;
  leaves.reserve(frontier.size());
  for (const auto& cand : frontier) leaves.push_back(cand.prefix);
  return leaves;
}

}  // namespace ldphh
