/// \file hh_serving.h
/// \brief Streaming `Aggregator` implementations of the four heavy-hitter
/// protocols, so the server stack serves them exactly like a frequency
/// oracle.
///
/// These classes are the only implementation of each protocol. A serving
/// deployment streams one `WireReport` per user through
/// `ShardedAggregator`/`EpochManager`; the one-shot `HeavyHitterProtocol::Run`
/// of the paper experiments drives the same aggregator through
/// `RunServedProtocol` (heavy_hitters.h). They split each protocol at the
/// paper's natural seam:
///
///   - All public randomness (hashes, codes, group assignment) derives from
///     the config's `seed`, so clients and any number of server instances
///     reconstruct identical structures from the config alone.
///   - A user's sub-reports (e.g. Bitstogram's cell report + global
///     Hashtogram report) pack little-endian into the single 64-bit wire
///     payload; the fixed sub-widths come from the resolved config, and the
///     factory rejects configs whose packed width exceeds 64 bits.
///   - Per-user group/level assignment is a public function of the user
///     index (`Mix64(assign_seed ^ i)`), so the server re-derives routing at
///     aggregation time and reports may arrive in any order on any shard.
///   - `EstimateTopK` runs the protocol's decode (the helpers exported from
///     bitstogram.h / treehist.h / private_expander_sketch.h /
///     succinct_hist.h) against the aggregated state, with thresholds
///     computed from the actually aggregated report count.
///
/// Config grammars (defaults bracketed; auto fields resolve into config()):
///
///   bitstogram(domain_bits, eps, beta[1e-3], n_hint[65536], seed[1],
///              hash_range[auto], cohorts[auto], threshold_sigmas[4],
///              list_cap[64], fo_rows[auto], fo_table[auto])
///   treehist(domain_bits, eps, beta[1e-3], n_hint[65536], seed[1],
///            threshold_sigmas[3], frontier_cap[64], level_rows[auto],
///            level_table[auto], fo_rows[auto], fo_table[auto])
///   private_expander_sketch(domain_bits, eps, beta[1e-3], n_hint[65536],
///            seed[1], num_coords[auto], hash_range[32],
///            expander_degree[4], num_buckets[auto], bucket_mult[1],
///            threshold_sigmas[4], list_cap[auto], alpha[0.25],
///            fo_rows[auto], fo_table[auto])
///   succinct_hist(domain_bits, eps, beta[1e-3], seed[1],
///            threshold_sigmas[4], list_cap[256])

#ifndef LDPHH_PROTOCOLS_HH_SERVING_H_
#define LDPHH_PROTOCOLS_HH_SERVING_H_

#include <memory>

#include "src/protocols/aggregator.h"
#include "src/protocols/protocol_config.h"

namespace ldphh {

StatusOr<std::unique_ptr<Aggregator>> MakeBitstogramAggregator(
    const ProtocolConfig& config);
StatusOr<std::unique_ptr<Aggregator>> MakeTreeHistAggregator(
    const ProtocolConfig& config);
StatusOr<std::unique_ptr<Aggregator>> MakePesAggregator(
    const ProtocolConfig& config);
StatusOr<std::unique_ptr<Aggregator>> MakeSuccinctHistAggregator(
    const ProtocolConfig& config);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_HH_SERVING_H_
