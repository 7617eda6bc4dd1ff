#include "src/protocols/private_expander_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace ldphh {

namespace {

// Default M for a domain width: keeps the RS chunk at 1-2 bytes.
int AutoNumCoords(int domain_bits) {
  if (domain_bits <= 32) return 8;
  if (domain_bits <= 96) return 16;
  return 32;
}

}  // namespace

PrivateExpanderSketch::PrivateExpanderSketch(const PesParams& params,
                                             int payload_bits)
    : params_(params), payload_bits_(payload_bits) {}

StatusOr<PrivateExpanderSketch> PrivateExpanderSketch::Create(
    const PesParams& params) {
  PesParams p = params;
  if (p.domain_bits < 8 || p.domain_bits > 256) {
    return Status::InvalidArgument("PES: domain_bits must be in [8, 256]");
  }
  if (p.epsilon <= 0.0) {
    return Status::InvalidArgument("PES: epsilon must be positive");
  }
  if (p.beta <= 0.0 || p.beta >= 1.0) {
    return Status::InvalidArgument("PES: beta must be in (0, 1)");
  }
  if (p.num_coords == 0) p.num_coords = AutoNumCoords(p.domain_bits);
  if (p.list_cap == 0) p.list_cap = 4 * p.domain_bits;

  UrlCodeParams cp;
  cp.domain_bits = p.domain_bits;
  cp.num_coords = p.num_coords;
  cp.hash_range = p.hash_range;
  cp.expander_degree = p.expander_degree;
  cp.alpha = p.alpha;
  // Validate the code construction once with a throwaway seed (the per-run
  // code is seeded from the run seed).
  auto probe = UrlCode::Create(cp, /*seed=*/1);
  if (!probe.ok()) return probe.status();
  return PrivateExpanderSketch(p, probe.value().PayloadBits());
}

double PrivateExpanderSketch::DetectionThreshold(uint64_t n) const {
  const double e = std::exp(params_.epsilon / 2.0);
  const double c = (e + 1.0) / (e - 1.0);
  const double groups =
      static_cast<double>(params_.num_coords) * static_cast<double>(payload_bits_);
  return 4.5 * c * std::sqrt(static_cast<double>(n) * groups);
}

StatusOr<HeavyHitterResult> PrivateExpanderSketch::Run(
    const std::vector<DomainItem>& database, uint64_t seed) {
  if (database.size() < 16) {
    return Status::InvalidArgument("PES: need at least 16 users");
  }
  ProtocolConfig config("private_expander_sketch");
  config.SetUint("domain_bits", static_cast<uint64_t>(params_.domain_bits))
      .SetDouble("eps", params_.epsilon)
      .SetDouble("beta", params_.beta)
      .SetUint("n_hint", database.size())
      .SetUint("seed", seed)
      .SetUint("num_coords", static_cast<uint64_t>(params_.num_coords))
      .SetUint("hash_range", static_cast<uint64_t>(params_.hash_range))
      .SetUint("expander_degree", static_cast<uint64_t>(params_.expander_degree))
      .SetUint("num_buckets", static_cast<uint64_t>(params_.num_buckets))
      .SetDouble("bucket_mult", params_.bucket_mult)
      .SetDouble("threshold_sigmas", params_.threshold_sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(params_.list_cap))
      .SetDouble("alpha", params_.alpha);
  ProtocolConfig resolved;
  auto result_or = RunServedProtocol(config, database, seed,
                                     std::numeric_limits<size_t>::max(),
                                     &resolved);
  LDPHH_RETURN_IF_ERROR(result_or.status());
  HeavyHitterResult result = std::move(result_or).value();

  // Public randomness a user consumes: the bucket-hash coefficients, its
  // coordinate hashes + expander slots, and the global Hashtogram row hashes
  // (all 61-bit field elements), plus the group-assignment word.
  const uint64_t g_independence =
      static_cast<uint64_t>(std::min(64, 2 * params_.domain_bits));
  const uint64_t m_count = resolved.GetUintOr("num_coords", 0);
  const uint64_t words =
      (g_independence + 4) +                                // g
      (2 * m_count + 4) +                                   // h_1..h_M
      m_count * resolved.GetUintOr("expander_degree", 0) +  // Gamma
      6 * resolved.GetUintOr("fo_rows", 0) + 1;             // Hashtogram
  result.metrics.public_random_bits_per_user = words * 61;
  return result;
}

std::vector<DomainItem> PesRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo, const UrlCode& code,
    const KWiseHash& bucket_hash, int num_coords, int num_buckets,
    int hash_range, int payload_bits, int list_cap, double tau,
    Rng& decode_rng) {
  struct Candidate {
    uint16_t y;
    uint64_t payload;
    double count;
  };
  // Step 3: lists[b][m] = entries for bucket b, coordinate m.
  std::vector<std::vector<std::vector<UrlCode::ListEntry>>> lists(
      static_cast<size_t>(num_buckets),
      std::vector<std::vector<UrlCode::ListEntry>>(
          static_cast<size_t>(num_coords)));

  std::vector<Candidate> cands;
  for (int m = 0; m < num_coords; ++m) {
    for (int b = 0; b < num_buckets; ++b) {
      cands.clear();
      for (int y = 0; y < hash_range; ++y) {
        const uint64_t base =
            (static_cast<uint64_t>(b) * static_cast<uint64_t>(hash_range) +
             static_cast<uint64_t>(y)) *
            2;
        double count = 0.0;
        uint64_t payload = 0;
        for (int j = 0; j < payload_bits; ++j) {
          const auto& fo = cell_fo[static_cast<size_t>(m * payload_bits + j)];
          const double e0 = fo.Estimate(base);
          const double e1 = fo.Estimate(base + 1);
          count += e0 + e1;
          if (e1 > e0) payload |= uint64_t{1} << j;
        }
        if (count >= tau) {
          cands.push_back(Candidate{static_cast<uint16_t>(y), payload, count});
        }
      }
      if (static_cast<int>(cands.size()) > list_cap) {
        std::partial_sort(cands.begin(), cands.begin() + list_cap, cands.end(),
                          [](const Candidate& lhs, const Candidate& rhs) {
                            return lhs.count > rhs.count;
                          });
        cands.resize(static_cast<size_t>(list_cap));
      }
      auto& lst = lists[static_cast<size_t>(b)][static_cast<size_t>(m)];
      lst.reserve(cands.size());
      for (const Candidate& cand : cands) {
        lst.push_back(UrlCode::ListEntry{cand.y, cand.payload});
      }
    }
  }

  // Step 4: per-bucket decode; verify the bucket hash.
  std::unordered_set<DomainItem, DomainItemHash> recovered;
  std::vector<DomainItem> ordered;
  for (int b = 0; b < num_buckets; ++b) {
    const auto items = code.Decode(lists[static_cast<size_t>(b)], decode_rng);
    for (const DomainItem& x : items) {
      if (bucket_hash(x) != static_cast<uint64_t>(b)) continue;
      if (recovered.insert(x).second) ordered.push_back(x);
    }
  }
  return ordered;
}

}  // namespace ldphh
