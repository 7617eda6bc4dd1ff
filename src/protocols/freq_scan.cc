#include "src/protocols/freq_scan.h"

#include <algorithm>
#include <cmath>

namespace ldphh {

StatusOr<FreqScan> FreqScan::Create(const FreqScanParams& params) {
  if (params.domain_bits < 4 || params.domain_bits > 24) {
    return Status::InvalidArgument("FreqScan: domain_bits must be in [4, 24]");
  }
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("FreqScan: epsilon must be positive");
  }
  return FreqScan(params);
}

double FreqScan::DetectionThreshold(uint64_t n) const {
  const double e = std::exp(params_.epsilon);
  const double c = (e + 1.0) / (e - 1.0);
  return params_.threshold_sigmas * c *
         std::sqrt(static_cast<double>(n) *
                   (static_cast<double>(params_.domain_bits) * std::log(2.0) +
                    std::log(1.0 / params_.beta)));
}

StatusOr<HeavyHitterResult> FreqScan::Run(const std::vector<DomainItem>& database,
                                          uint64_t seed) {
  const uint64_t n = database.size();
  if (n < 16) return Status::InvalidArgument("FreqScan: need >= 16 users");
  ProtocolConfig config("hadamard_response");
  config.SetUint("domain", uint64_t{1} << params_.domain_bits)
      .SetDouble("eps", params_.epsilon);
  auto result_or =
      RunServedProtocol(config, database, seed,
                        static_cast<size_t>(params_.list_cap),
                        /*resolved=*/nullptr);
  LDPHH_RETURN_IF_ERROR(result_or.status());
  HeavyHitterResult result = std::move(result_or).value();
  // The top list_cap estimates, kept where they clear the threshold.
  const double tau = DetectionThreshold(n);
  auto& entries = result.entries;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [tau](const HeavyHitterEntry& e) {
                                 return e.estimate < tau;
                               }),
                entries.end());
  result.metrics.public_random_bits_per_user = 64;
  return result;
}

}  // namespace ldphh
