#include "core/exact_hhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/prefix_trie.hpp"
#include "core/sharded_engine.hpp"
#include "harness/trace_builder.hpp"
#include "util/random.hpp"
#include "wire/snapshot.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
PrefixKey pfx(const char* s) { return *PrefixKey::parse(s); }

// --- Hand-verified scenarios ----------------------------------------------

TEST(ExactHhh, SingleHeavyHost) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 1000);
  agg.add(ip("99.0.0.1"), 10);

  const auto result = extract_hhh(agg, 500);
  // The host is an HHH; all its ancestors have conditioned count 10 or 0
  // (only the other host's traffic), so nothing else qualifies.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.3/32"));
  EXPECT_EQ(result.items()[0].total_bytes, 1000u);
  EXPECT_EQ(result.items()[0].conditioned_bytes, 1000u);
}

TEST(ExactHhh, SiblingsBelowThresholdAggregateToParent) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Four /32s with 300 each inside one /24: each below T=500, but the /24
  // conditioned count is 1200 >= T.
  agg.add(ip("10.1.2.1"), 300);
  agg.add(ip("10.1.2.2"), 300);
  agg.add(ip("10.1.2.3"), 300);
  agg.add(ip("10.1.2.4"), 300);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.0/24"));
  EXPECT_EQ(result.items()[0].conditioned_bytes, 1200u);
}

TEST(ExactHhh, HhhChildDiscountsParent) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Heavy host (600) + sibling noise (300): host is HHH; /24 conditioned
  // count is only the noise (300 < 500), so /24 is NOT an HHH even though
  // its total (900) crosses the threshold.
  agg.add(ip("10.1.2.1"), 600);
  agg.add(ip("10.1.2.2"), 300);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.1/32"));
}

TEST(ExactHhh, MultiLevelDiscounting) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // 10.1.2.1/32: 600 (HHH)
  // 10.1.2.0/24 residue: 450 x 2 hosts = 900 -> /24 conditioned 900 (HHH)
  // 10.1.0.0/16 extra: 200 + 350 spread in another /24 -> conditioned 550 (HHH)
  agg.add(ip("10.1.2.1"), 600);
  agg.add(ip("10.1.2.2"), 450);
  agg.add(ip("10.1.2.3"), 450);
  agg.add(ip("10.1.9.1"), 200);
  agg.add(ip("10.1.9.2"), 350);

  const auto result = extract_hhh(agg, 500);
  const auto prefixes = result.prefixes();
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.1/32")));
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.0/24")));
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.9.0/24")));
  // /16 conditioned: 2050 - 600 - 900 - 550 = 0 -> not an HHH.
  EXPECT_FALSE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.0.0/16")));

  for (const auto& item : result.items()) {
    if (item.prefix == pfx("10.1.2.0/24")) {
      EXPECT_EQ(item.conditioned_bytes, 900u);
      EXPECT_EQ(item.total_bytes, 1500u);
    }
    if (item.prefix == pfx("10.1.9.0/24")) {
      EXPECT_EQ(item.conditioned_bytes, 550u);
    }
  }
}

TEST(ExactHhh, RootCollectsResidue) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Scattered light traffic across distinct /8s: every level's conditioned
  // counts stay below T until the root.
  agg.add(ip("10.0.0.1"), 200);
  agg.add(ip("20.0.0.1"), 200);
  agg.add(ip("30.0.0.1"), 200);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, PrefixKey::root());
  EXPECT_EQ(result.items()[0].conditioned_bytes, 600u);
}

TEST(ExactHhh, ThresholdBoundaryIsInclusive) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 500);
  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u) << "count == T must qualify";
}

TEST(ExactHhh, ZeroThresholdClampedToOne) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 100);
  const auto result = extract_hhh(agg, 0);
  // T clamps to 1: host qualifies, ancestors are fully discounted.
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.threshold_bytes, 1u);
}

TEST(ExactHhh, RelativeThresholdUsesTotal) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 900);
  agg.add(ip("20.0.0.1"), 100);
  const auto result = extract_hhh_relative(agg, 0.5);
  EXPECT_EQ(result.threshold_bytes, 500u);
  EXPECT_EQ(result.total_bytes, 1000u);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.0.0.1/32"));
}

TEST(ExactHhh, EmptyAggregatesYieldEmptySet) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  const auto result = extract_hhh(agg, 100);
  EXPECT_TRUE(result.empty());
}

TEST(ExactHhh, BitGranularityFindsIntermediatePrefix) {
  LevelAggregates agg(Hierarchy::bit_granularity());
  // Two /32s differing in the last bit: their /31 aggregates them.
  agg.add(ip("10.0.0.2"), 300);
  agg.add(ip("10.0.0.3"), 300);
  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.0.0.2/31"));
}

TEST(ExactHhh, CustomHierarchyRespectsLevels) {
  LevelAggregates agg(Hierarchy({32, 16, 0}));
  agg.add(ip("10.1.2.1"), 300);
  agg.add(ip("10.1.3.1"), 300);
  const auto result = extract_hhh(agg, 500);
  // /24 is not a level here; the mass aggregates at /16 directly.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.0.0/16"));
}

// --- Cross-engine equivalence ----------------------------------------------

// The trie engine implements the same definition with a different
// algorithm; on random streams both must produce identical HHH sets and
// identical conditioned counts.
class EngineEquivalence : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EngineEquivalence, TrieMatchesLevelMaps) {
  const auto [seed, phi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto hierarchy = Hierarchy::byte_granularity();

  LevelAggregates agg(hierarchy);
  PrefixTrie trie;
  for (int i = 0; i < 3000; ++i) {
    // Clustered addresses: reuse a small pool of /24s for realistic overlap.
    const std::uint32_t base = static_cast<std::uint32_t>(rng.below(40)) << 24 |
                               static_cast<std::uint32_t>(rng.below(8)) << 16 |
                               static_cast<std::uint32_t>(rng.below(8)) << 8 |
                               static_cast<std::uint32_t>(rng.below(16));
    const std::uint64_t bytes = 1 + rng.below(1500);
    agg.add(Ipv4Address(base), bytes);
    trie.add(Ipv4Address(base), bytes);
  }

  const auto from_maps = extract_hhh_relative(agg, phi);
  const auto from_trie = trie.extract_relative(hierarchy, phi);

  ASSERT_EQ(from_maps.total_bytes, from_trie.total_bytes);
  ASSERT_EQ(from_maps.threshold_bytes, from_trie.threshold_bytes);

  auto a = from_maps.items();
  auto b = from_trie.items();
  const auto by_prefix = [](const HhhItem& x, const HhhItem& y) { return x.prefix < y.prefix; };
  std::sort(a.begin(), a.end(), by_prefix);
  std::sort(b.begin(), b.end(), by_prefix);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].conditioned_bytes, b[i].conditioned_bytes) << a[i].prefix.to_string();
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes) << a[i].prefix.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, EngineEquivalence,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Values(0.01, 0.05, 0.1, 0.3)));

// --- Canonical report order ------------------------------------------------

// Exact reports list items leaf level first and in ascending PrefixKey
// within a level, whatever the layout of the level maps they were
// extracted from: a map filled by add() or add_batch(), by shards, by a
// frame decode or by a merge holds the same counts in a different order.

/// (level, prefix) order: longer prefixes (lower levels) first, then
/// ascending PrefixKey.
bool canonical_less(const HhhItem& a, const HhhItem& b) {
  if (a.prefix.length() != b.prefix.length()) return a.prefix.length() > b.prefix.length();
  return a.prefix < b.prefix;
}

bool is_canonical(const HhhSet& set) {
  const auto& items = set.items();
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (!canonical_less(items[i - 1], items[i])) return false;
  }
  return true;
}

/// `set`'s items in canonical order (for the trie, which reports in walk
/// order).
std::vector<HhhItem> canonical_items(const HhhSet& set) {
  std::vector<HhhItem> items = set.items();
  std::sort(items.begin(), items.end(), canonical_less);
  return items;
}

Hierarchy hierarchy_for(bool v6) {
  return v6 ? Hierarchy::v6_byte_granularity() : Hierarchy::byte_granularity();
}

std::vector<PacketRecord> canonical_order_packets(bool v6, std::size_t n) {
  return harness::TraceBuilder(0x0CA2'0015).v6_fraction(v6 ? 1.0 : 0.0).packets(n);
}

class CanonicalOrder : public ::testing::TestWithParam<bool> {};

TEST_P(CanonicalOrder, ReportsDoNotDependOnHowTheMapsWereFilled) {
  const bool v6 = GetParam();
  const Hierarchy hierarchy = hierarchy_for(v6);
  const auto packets = canonical_order_packets(v6, 20000);
  const std::span<const PacketRecord> all(packets);
  const std::size_t half = packets.size() / 2;

  std::vector<std::pair<std::string, std::unique_ptr<HhhEngine>>> engines;
  auto by_add = make_exact_engine(hierarchy);
  for (const auto& p : packets) by_add->add(p);
  auto by_batch = make_exact_engine(hierarchy);
  by_batch->add_batch(all);
  auto x1 = make_sharded_exact_engine(hierarchy, 1);
  x1->add_batch(all);
  auto x4 = make_sharded_exact_engine(hierarchy, 4);
  x4->add_batch(all);
  auto decoded = wire::load_engine(wire::save_engine(*by_batch));
  // The second half first, then the first half merged in: an insertion
  // order no other engine here sees.
  auto merged = make_exact_engine(hierarchy);
  merged->add_batch(all.subspan(half));
  auto first_half = make_exact_engine(hierarchy);
  first_half->add_batch(all.first(half));
  merged->merge_from(*first_half);
  engines.emplace_back("add_batch", std::move(by_batch));
  engines.emplace_back("sharded_x1", std::move(x1));
  engines.emplace_back("sharded_x4", std::move(x4));
  engines.emplace_back("load(save)", std::move(decoded));
  engines.emplace_back("merge_from", std::move(merged));

  for (const double phi : {0.0001, 0.001, 0.01, 0.05, 0.2}) {
    SCOPED_TRACE(phi);
    const HhhSet reference = by_add->extract(phi);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(is_canonical(reference));
    for (const auto& [name, engine] : engines) {
      SCOPED_TRACE(name);
      const HhhSet report = engine->extract(phi);
      EXPECT_EQ(report.total_bytes, reference.total_bytes);
      EXPECT_EQ(report.threshold_bytes, reference.threshold_bytes);
      EXPECT_EQ(report.items(), reference.items());
    }
  }
}

template <typename D>
void expect_trie_agrees(const Hierarchy& hierarchy, const std::vector<PacketRecord>& packets) {
  BasicLevelAggregates<D> agg(hierarchy);
  PrefixTrie trie(hierarchy.family());
  for (const auto& p : packets) {
    agg.add(p.src(), p.ip_len);
    trie.add(p.src(), p.ip_len);
  }
  const std::uint64_t total = agg.total_bytes();
  ASSERT_GT(total, 0u);

  // T = 1 reports every prefix with bytes of its own; T > total none.
  const HhhSet everything = extract_hhh(agg, 1);
  EXPECT_FALSE(everything.empty());
  EXPECT_TRUE(is_canonical(everything));
  EXPECT_EQ(everything.items(), canonical_items(trie.extract(hierarchy, 1)));
  EXPECT_TRUE(extract_hhh(agg, total + 1).empty());
  EXPECT_TRUE(trie.extract(hierarchy, total + 1).empty());

  const std::vector<double> phis = {0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
  std::vector<std::uint64_t> thresholds;
  for (const double phi : phis) {
    thresholds.push_back(static_cast<std::uint64_t>(phi * static_cast<double>(total)) + 1);
  }
  const std::vector<HhhSet> sweep = extract_hhh_multi(agg, thresholds);
  ASSERT_EQ(sweep.size(), thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    SCOPED_TRACE(thresholds[i]);
    EXPECT_TRUE(is_canonical(sweep[i]));
    EXPECT_EQ(sweep[i].threshold_bytes, thresholds[i]);
    EXPECT_EQ(sweep[i].items(), canonical_items(trie.extract(hierarchy, thresholds[i])));
  }
}

TEST_P(CanonicalOrder, SetsAndConditionedCountsMatchTheTrie) {
  const bool v6 = GetParam();
  const auto packets = canonical_order_packets(v6, 5000);
  if (v6) {
    expect_trie_agrees<V6Domain>(hierarchy_for(v6), packets);
  } else {
    expect_trie_agrees<V4Domain>(hierarchy_for(v6), packets);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CanonicalOrder, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "v6" : "v4"; });

TEST(PrefixTrie, SubtreeBytesAnswersArbitraryPrefixes) {
  PrefixTrie trie;
  trie.add(ip("10.1.2.3"), 100);
  trie.add(ip("10.1.2.9"), 50);
  trie.add(ip("10.1.200.1"), 25);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.0/24")), 150u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.0.0/16")), 175u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.3/32")), 100u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.0/27")), 150u);  // non-level length
  EXPECT_EQ(trie.subtree_bytes(pfx("99.0.0.0/8")), 0u);
  EXPECT_EQ(trie.subtree_bytes(PrefixKey::root()), 175u);
}

TEST(PrefixTrie, ClearResets) {
  PrefixTrie trie;
  trie.add(ip("10.0.0.1"), 5);
  trie.clear();
  EXPECT_EQ(trie.total_bytes(), 0u);
  EXPECT_EQ(trie.subtree_bytes(PrefixKey::root()), 0u);
  EXPECT_EQ(trie.node_count(), 1u);
}

TEST(HhhSet, PrefixesSortedUnique) {
  HhhSet set;
  set.add(HhhItem{pfx("10.0.0.0/8"), 10, 10});
  set.add(HhhItem{pfx("9.0.0.0/8"), 10, 10});
  set.add(HhhItem{pfx("10.0.0.0/8"), 10, 10});
  const auto p = set.prefixes();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
}

TEST(PrefixUnion, AccumulatesDistinct) {
  PrefixUnion u;
  u.add({pfx("10.0.0.0/8"), pfx("11.0.0.0/8")});
  u.add(pfx("10.0.0.0/8"));
  u.add({pfx("12.0.0.0/8")});
  EXPECT_EQ(u.size(), 3u);
  EXPECT_TRUE(u.contains(pfx("12.0.0.0/8")));
  EXPECT_FALSE(u.contains(pfx("13.0.0.0/8")));
}

TEST(PrefixDifference, Basics) {
  const std::vector<PrefixKey> a = {pfx("1.0.0.0/8"), pfx("2.0.0.0/8"), pfx("3.0.0.0/8")};
  const std::vector<PrefixKey> b = {pfx("2.0.0.0/8")};
  const auto d = prefix_difference(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], pfx("1.0.0.0/8"));
  EXPECT_EQ(d[1], pfx("3.0.0.0/8"));
}

}  // namespace
}  // namespace hhh
