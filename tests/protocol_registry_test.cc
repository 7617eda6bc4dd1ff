// Tests for the protocol registry and self-describing configs (the ISSUE 5
// acceptance criterion): every registered protocol — six frequency oracles
// and four heavy-hitter protocols — round-trips its config, is served
// end-to-end through ShardedAggregator and EpochManager from nothing but a
// ProtocolConfig, restores from a checkpoint without any caller-supplied
// factory, and produces estimates bit-for-bit equal to a direct
// single-threaded aggregation of the same reports.

#include "src/protocols/registry.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/server/epoch_manager.h"
#include "src/server/report_codec.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"
#include "tests/serving_test_util.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

using testutil::DirectAggregate;
using testutil::EncodeSkewedReports;
using testutil::ExpectSameEstimates;
using testutil::MustCreate;

/// One registered protocol with a serve-sized sample config.
struct ProtocolCase {
  std::string text;      ///< Sample config in canonical text form.
  uint64_t num_reports;  ///< Stream length for the end-to-end runs.
  bool expect_recovery;  ///< Top-1 must be the planted item 0.
};

std::vector<ProtocolCase> Cases() {
  return {
      {"k_rr(domain=32,eps=1)", 20000, true},
      {"rappor_unary(domain=24,eps=1)", 20000, true},
      {"olh(domain=16,eps=1,seed=7)", 20000, true},
      {"hadamard_response(domain=32,eps=1)", 20000, true},
      {"count_mean_sketch(domain_bits=8,eps=1,n_hint=8192,seed=3)", 8192,
       true},
      {"hashtogram(domain_bits=8,eps=1,n_hint=8192,seed=5)", 8192, true},
      {"bitstogram(beta=0.01,domain_bits=8,eps=4,n_hint=8192,seed=11,"
       "threshold_sigmas=3)",
       8192, true},
      {"treehist(beta=0.01,domain_bits=8,eps=4,level_rows=8,n_hint=8192,"
       "seed=13,threshold_sigmas=2)",
       8192, true},
      {"private_expander_sketch(beta=0.01,domain_bits=16,eps=4,hash_range=16,"
       "n_hint=8192,num_coords=8,seed=15,threshold_sigmas=3)",
       8192, false},
      {"succinct_hist(domain_bits=8,eps=2,seed=17,threshold_sigmas=3)", 4000,
       true},
  };
}

ProtocolConfig MustParse(const std::string& text) {
  auto config_or = ProtocolConfig::FromText(text);
  EXPECT_TRUE(config_or.ok()) << text << ": " << config_or.status().ToString();
  LDPHH_CHECK(config_or.ok(), "test: config parse failed");
  return std::move(config_or).value();
}

/// The value range the sample config's reports draw from.
uint64_t ValueDomainOf(const ProtocolConfig& config) {
  if (config.Has("domain")) return config.GetUintOr("domain", 0);
  return uint64_t{1} << config.GetUintOr("domain_bits", 0);
}

class RegistryProtocolTest : public testing::TestWithParam<ProtocolCase> {};

// ------------------------------------------------------- config round-trip --

TEST_P(RegistryProtocolTest, ConfigTextRoundTrips) {
  const std::string& text = GetParam().text;
  const ProtocolConfig config = MustParse(text);
  EXPECT_EQ(config.ToText(), text);
  // Binary form round-trips too.
  std::string bin;
  config.AppendTo(&bin);
  ByteReader reader(bin);
  ProtocolConfig decoded;
  ASSERT_TRUE(ProtocolConfig::ReadFrom(reader, &decoded).ok());
  EXPECT_EQ(decoded, config);
  EXPECT_TRUE(reader.empty());
}

TEST_P(RegistryProtocolTest, ResolvedConfigIsAFixedPoint) {
  const ProtocolConfig config = MustParse(GetParam().text);
  auto first = MustCreate(config);
  // The resolved config pins every auto parameter: building from it again
  // must resolve to the identical config (and the identical instance).
  auto second = MustCreate(first->config());
  EXPECT_EQ(second->config(), first->config());
  // It survives its own serialization.
  EXPECT_EQ(MustParse(first->config().ToText()), first->config());
}

TEST_P(RegistryProtocolTest, EncodeRejectsOutOfDomainValue) {
  const ProtocolConfig config = MustParse(GetParam().text);
  auto agg = MustCreate(config);
  Rng rng(7);
  // Wider than any config in the suite (every domain fits 64 bits).
  DomainItem wide;
  wide.limbs[1] = 1;
  EXPECT_FALSE(agg->Encode(0, wide, rng).ok());
  if (config.Has("domain")) {
    // Small-domain protocols also reject the first value past the domain.
    EXPECT_FALSE(
        agg->Encode(0, DomainItem(ValueDomainOf(config)), rng).ok());
  }
}

// --------------------------------------------------------------- rejection --

TEST(ProtocolRegistry, UnknownProtocolIsRejectedWithKnownList) {
  ProtocolConfig config("no_such_protocol");
  const auto created = CreateAggregator(config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("k_rr"), std::string::npos)
      << created.status().ToString();
}

TEST(ProtocolRegistry, BadParamsAreRejected) {
  // Malformed grammar.
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain=32").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain=32,domain=64)").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain)").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("K_RR(domain=32)").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain=3 2)").ok());
  // Stray commas are outside the grammar (and would break
  // serialize(parse(s)) == s).
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain=32,eps=1,)").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(,domain=32)").ok());
  EXPECT_FALSE(ProtocolConfig::FromText("k_rr(domain=32,,eps=1)").ok());

  // Well-formed but invalid values.
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(domain=1,eps=1)")).ok());
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(domain=32,eps=-1)")).ok());
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(domain=32,eps=zero)")).ok());
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(eps=1)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("rappor_unary(domain=60,eps=1)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("hashtogram(domain_bits=40,eps=1)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("bitstogram(domain_bits=8,eps=1,beta=2)"))
          .ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("succinct_hist(domain_bits=8,eps=0)")).ok());

  // NaN/inf parse as doubles but must not pass the positivity checks.
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(domain=32,eps=nan)")).ok());
  EXPECT_FALSE(CreateAggregator(MustParse("k_rr(domain=32,eps=inf)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("hashtogram(domain_bits=8,eps=nan)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("bitstogram(domain_bits=8,eps=nan)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("succinct_hist(domain_bits=8,eps=nan)")).ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("hashtogram(domain_bits=8,eps=1,beta=nan)"))
          .ok());

  // Values whose int cast would wrap (2^32-1 → -1, 2^32+5 → 5) must be
  // rejected by range validation before any cast, not silently truncated —
  // configs arrive from disk, so this is the corrupt-record path too.
  EXPECT_FALSE(CreateAggregator(MustParse(
                   "bitstogram(domain_bits=8,eps=1,list_cap=4294967295)"))
                   .ok());
  EXPECT_FALSE(
      CreateAggregator(
          MustParse(
              "private_expander_sketch(domain_bits=16,eps=1,num_buckets="
              "4294967295)"))
          .ok());
  EXPECT_FALSE(CreateAggregator(MustParse(
                   "hashtogram(domain_bits=8,eps=1,rows=4294967301)"))
                   .ok());
  EXPECT_FALSE(
      CreateAggregator(MustParse("treehist(domain_bits=8,eps=1,frontier_cap="
                                 "18446744073709551615)"))
          .ok());

  // width=64 with rows=1 passes the wire-fit sum but would make the packed
  // report's shifts UB; the 56 cap must reject it.
  EXPECT_FALSE(CreateAggregator(MustParse(
                   "count_mean_sketch(domain_bits=8,eps=1,rows=1,width=64)"))
                   .ok());

  // A typo'd key is an error, not a silently applied default.
  const auto typo =
      CreateAggregator(MustParse("k_rr(domain=32,epsilonn=1,eps=1)"));
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("epsilonn"), std::string::npos);
}

TEST(ProtocolRegistry, ListsAllBuiltinsWithDistinctWireIds) {
  const auto names = ProtocolRegistry::Global().Names();
  ASSERT_GE(names.size(), 10u);
  std::vector<uint16_t> ids;
  for (const auto& name : names) {
    auto id_or = ProtocolRegistry::Global().WireIdOf(name);
    ASSERT_TRUE(id_or.ok());
    EXPECT_NE(id_or.value(), 0) << name;
    ids.push_back(id_or.value());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::unique(ids.begin(), ids.end()) == ids.end());

  // Wire id 0 means "unstamped" and must stay unregistrable — a protocol
  // under it would silently lose the cross-protocol batch rejection.
  ProtocolRegistry local;
  EXPECT_FALSE(local.Register("custom", 0, [](const ProtocolConfig&) {
                      return StatusOr<std::unique_ptr<Aggregator>>(
                          Status::Internal("unused"));
                    })
                   .ok());
}

// ---------------------------------------------------- end-to-end acceptance --

// Sharded serve == direct aggregation, for every registered protocol, via
// the stamped wire format.
TEST_P(RegistryProtocolTest, ShardedServeMatchesDirectBitForBit) {
  const ProtocolCase& c = GetParam();
  const ProtocolConfig config = MustParse(c.text);
  const auto reports =
      EncodeSkewedReports(config, c.num_reports, 321, ValueDomainOf(config));

  auto direct = DirectAggregate(config, reports, 0, reports.size());

  ShardedAggregatorOptions opts;
  opts.num_shards = 4;
  auto agg_or = ShardedAggregator::Create(config, opts);
  ASSERT_TRUE(agg_or.ok()) << agg_or.status().ToString();
  auto agg = std::move(agg_or).value();
  ASSERT_TRUE(agg->Start().ok());
  const size_t chunk = 2048;
  for (size_t lo = 0; lo < reports.size(); lo += chunk) {
    const size_t hi = std::min(lo + chunk, reports.size());
    const std::vector<WireReport> slice(reports.begin() + lo,
                                        reports.begin() + hi);
    ASSERT_TRUE(
        agg->SubmitWire(EncodeReportBatch(slice, agg->wire_id())).ok());
  }

  auto merged_or = agg->Finish();
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  auto merged = std::move(merged_or).value();
  EXPECT_EQ(agg->Stats().rejected, 0u);

  // Sharded and direct agree, entry for entry, bit for bit. (The durable
  // serialize -> restore leg is EpochWindowMatchesDirectBitForBit below.)
  ExpectSameEstimates(*merged, *direct);

  if (c.expect_recovery) {
    auto top = direct->EstimateTopK(1);
    ASSERT_TRUE(top.ok());
    ASSERT_FALSE(top.value().empty())
        << config.protocol() << ": no candidates recovered";
    EXPECT_EQ(top.value()[0].item, DomainItem(0))
        << config.protocol() << ": planted item not on top";
  }
}

// Epoch-windowed serve == direct aggregation, for every registered
// protocol: two closed epochs, merged back through the self-describing
// epoch records.
TEST_P(RegistryProtocolTest, EpochWindowMatchesDirectBitForBit) {
  const ProtocolCase& c = GetParam();
  const ProtocolConfig config = MustParse(c.text);
  const uint64_t epoch_size = c.num_reports / 2;
  const auto reports =
      EncodeSkewedReports(config, 2 * epoch_size, 99, ValueDomainOf(config));

  const std::string dir = testing::TempDir() + "/ldphh_registry_epoch_" +
                          config.protocol() + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  CheckpointStoreOptions store_opts;
  store_opts.background_compaction = false;
  store_opts.sync_mode = SyncMode::kNone;  // Speed; durability has its own suite.
  auto store = std::move(CheckpointStore::Open(dir, store_opts)).value();

  EpochManagerOptions opts;
  opts.reports_per_epoch = epoch_size;
  opts.aggregator.num_shards = 4;
  auto mgr_or = EpochManager::Create(config, store.get(), opts);
  ASSERT_TRUE(mgr_or.ok()) << mgr_or.status().ToString();
  auto mgr = std::move(mgr_or).value();
  ASSERT_TRUE(mgr->Start().ok());
  for (const WireReport& r : reports) ASSERT_TRUE(mgr->Submit(r).ok());
  EXPECT_EQ(mgr->PersistedEpochs(), (std::vector<uint64_t>{0, 1}));

  auto window_or = mgr->WindowedQuery(0, 1);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  auto window = std::move(window_or).value();
  auto direct = DirectAggregate(config, reports, 0, reports.size());
  ExpectSameEstimates(*window, *direct);
  ASSERT_TRUE(mgr->Close().ok());
  store.reset();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RegistryProtocolTest, testing::ValuesIn(Cases()),
    [](const testing::TestParamInfo<ProtocolCase>& param_info) {
      const std::string& text = param_info.param.text;
      return text.substr(0, text.find('('));
    });

}  // namespace
}  // namespace ldphh
