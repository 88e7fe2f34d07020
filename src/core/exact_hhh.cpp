#include "core/exact_hhh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/flat_hash_map.hpp"

namespace hhh {
namespace {

constexpr std::size_t kMaxThresholds = 8;
constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

// Level maps restored from a frame are trusted only to be well-formed, not
// consistent: a parent below the sum of its children must neither wrap
// its conditioned count nor the discount carried to the next level.
std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

}  // namespace

template <typename D>
std::vector<HhhSet> extract_hhh_multi(const BasicLevelAggregates<D>& agg,
                                      std::span<const std::uint64_t> thresholds) {
  using MapKey = typename D::MapKey;
  using DiscountMap = FlatHashMap<MapKey, std::uint64_t, typename D::Hash>;
  const std::size_t k = thresholds.size();
  if (k == 0) return {};
  if (k > kMaxThresholds) {
    throw std::invalid_argument("extract_hhh_multi: more than 8 thresholds");
  }
  const Hierarchy& hierarchy = agg.hierarchy();

  std::array<std::uint64_t, kMaxThresholds> t{};
  std::uint64_t min_threshold = kSaturated;
  std::vector<HhhSet> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    t[i] = std::max<std::uint64_t>(thresholds[i], 1);
    min_threshold = std::min(min_threshold, t[i]);
    results[i].total_bytes = agg.total_bytes();
    results[i].threshold_bytes = t[i];
  }

  // discount[i] holds, for prefixes at the current level, the bytes of
  // their closest HHH descendants under threshold i; parent[i] collects
  // the same for the level above.
  std::vector<DiscountMap> discount(k);
  std::vector<DiscountMap> parent(k);
  std::vector<std::vector<HhhItem>> found(k);

  for (std::size_t level = 0; level < hierarchy.levels(); ++level) {
    agg.for_each_at(level, [&](const MapKey& key, std::uint64_t count) {
      if (count < min_threshold) return;
      for (std::size_t i = 0; i < k; ++i) {
        if (count < t[i]) continue;
        const std::uint64_t* const d = discount[i].find(key);
        const std::uint64_t conditioned = d != nullptr ? saturating_sub(count, *d) : count;
        if (conditioned < t[i]) continue;
        found[i].push_back(HhhItem{D::prefix(key), count, conditioned});
        // An HHH absorbs its whole subtree: its ancestors discount all of it.
        discount[i][key] = count;
      }
    });
    const bool has_parent = level + 1 < hierarchy.levels();
    const unsigned parent_len = has_parent ? hierarchy.length_at(level + 1) : 0;
    for (std::size_t i = 0; i < k; ++i) {
      // Canonical order: leaf level first, ascending prefix within a level.
      std::sort(found[i].begin(), found[i].end(),
                [](const HhhItem& a, const HhhItem& b) { return a.prefix < b.prefix; });
      for (const HhhItem& item : found[i]) results[i].add(item);
      found[i].clear();
      if (!has_parent) continue;
      parent[i].clear();
      discount[i].for_each([&](const MapKey& key, std::uint64_t bytes) {
        std::uint64_t& up = parent[i][D::truncate(key, parent_len)];
        up = saturating_add(up, bytes);
      });
      std::swap(discount[i], parent[i]);
    }
  }
  return results;
}

template <typename D>
std::vector<HhhSet> extract_hhh_multi_relative(const BasicLevelAggregates<D>& agg,
                                               std::span<const double> phis) {
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(phis.size());
  for (const double phi : phis) {
    thresholds.push_back(
        static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(agg.total_bytes()))));
  }
  return extract_hhh_multi(agg, thresholds);
}

template <typename D>
HhhSet extract_hhh(const BasicLevelAggregates<D>& agg, std::uint64_t threshold_bytes) {
  auto results = extract_hhh_multi(agg, std::span<const std::uint64_t>(&threshold_bytes, 1));
  return std::move(results.front());
}

template <typename D>
HhhSet extract_hhh_relative(const BasicLevelAggregates<D>& agg, double phi) {
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(agg.total_bytes())));
  return extract_hhh(agg, threshold);
}

HhhSet exact_hhh_of(std::span<const PacketRecord> packets, const Hierarchy& hierarchy,
                    double phi) {
  if (hierarchy.family() == AddressFamily::kIpv4) {
    LevelAggregates agg(hierarchy);
    for (const auto& p : packets) {
      if (p.family() == AddressFamily::kIpv4) agg.add(p.src(), p.ip_len);
    }
    return extract_hhh_relative(agg, phi);
  }
  LevelAggregatesV6 agg(hierarchy);
  for (const auto& p : packets) {
    if (p.family() == AddressFamily::kIpv6) agg.add(p.src(), p.ip_len);
  }
  return extract_hhh_relative(agg, phi);
}

template HhhSet extract_hhh<V4Domain>(const BasicLevelAggregates<V4Domain>&, std::uint64_t);
template HhhSet extract_hhh<V6Domain>(const BasicLevelAggregates<V6Domain>&, std::uint64_t);
template HhhSet extract_hhh_relative<V4Domain>(const BasicLevelAggregates<V4Domain>&, double);
template HhhSet extract_hhh_relative<V6Domain>(const BasicLevelAggregates<V6Domain>&, double);
template std::vector<HhhSet> extract_hhh_multi<V4Domain>(
    const BasicLevelAggregates<V4Domain>&, std::span<const std::uint64_t>);
template std::vector<HhhSet> extract_hhh_multi<V6Domain>(
    const BasicLevelAggregates<V6Domain>&, std::span<const std::uint64_t>);
template std::vector<HhhSet> extract_hhh_multi_relative<V4Domain>(
    const BasicLevelAggregates<V4Domain>&, std::span<const double>);
template std::vector<HhhSet> extract_hhh_multi_relative<V6Domain>(
    const BasicLevelAggregates<V6Domain>&, std::span<const double>);

}  // namespace hhh
