/// \file treehist.h
/// \brief TreeHist — the prefix-tree heavy-hitters protocol of Bassily-
/// Nissim-Stemmer-Thakurta 2017 (the second algorithm of the paper's [3]).
///
/// Users are split across the D levels of a binary prefix tree over the
/// item bits; a user at level l reports the l-bit prefix of its item
/// through a per-level frequency oracle (Hashtogram). The server grows the
/// candidate set breadth-first: a prefix survives iff its estimated count
/// clears the threshold, and each survivor spawns two children. Surviving
/// leaves are the heavy-hitter candidates, re-estimated by a global oracle.
///
/// Compared to Bitstogram, TreeHist trades the single hash-decode for
/// log|X| adaptive levels; its error carries the same extra
/// sqrt(log(1/beta)) factor relative to PrivateExpanderSketch, which makes
/// it the second baseline for the F1 comparison.

#ifndef LDPHH_PROTOCOLS_TREEHIST_H_
#define LDPHH_PROTOCOLS_TREEHIST_H_

#include <cstdint>
#include <vector>

#include "src/freq/hashtogram.h"
#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// Tuning parameters for TreeHist.
struct TreeHistParams {
  int domain_bits = 64;
  double epsilon = 2.0;
  double beta = 1e-3;

  double threshold_sigmas = 3.0;  ///< Survival test on per-level estimates.
  int frontier_cap = 64;          ///< Max surviving prefixes per level.
};

/// \brief The [3] prefix-tree baseline protocol. `Run` drives the registry's
/// `treehist` aggregator (src/protocols/hh_serving.h) with n_hint = n; the
/// level and global oracles' rows follow beta.
class TreeHist final : public HeavyHitterProtocol {
 public:
  static StatusOr<TreeHist> Create(const TreeHistParams& params);

  StatusOr<HeavyHitterResult> Run(const std::vector<DomainItem>& database,
                                  uint64_t seed) override;
  std::string Name() const override { return "treehist"; }
  double Epsilon() const override { return params_.epsilon; }

  /// Detection threshold analogue: ~sigmas c_{eps/2} sqrt(n D R) where R is
  /// the per-level oracle's row count at this beta (the log(1/beta)
  /// amplification).
  double DetectionThreshold(uint64_t n) const;

  const TreeHistParams& params() const { return params_; }

 private:
  explicit TreeHist(const TreeHistParams& params) : params_(params) {}

  TreeHistParams params_;
};

/// Breadth-first frontier growth (the server decode step), run by the
/// serving aggregator's EstimateTopK (src/protocols/hh_serving.h). A
/// level-l prefix survives iff its level oracle's estimate clears
/// threshold_sigmas * c_eps * sqrt(n_l * rows); survivors spawn two
/// children, capped at \p frontier_cap per level. \p level_fo must be
/// finalized; \p level_counts[l] is the number of users assigned to level l.
/// Returns the surviving leaves in frontier order.
std::vector<DomainItem> TreeHistGrowFrontier(
    const std::vector<Hashtogram>& level_fo,
    const std::vector<uint64_t>& level_counts, int domain_bits, double c_eps,
    double threshold_sigmas, int frontier_cap);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_TREEHIST_H_
