/// \file
/// Exact HHH extraction — the ground truth of every experiment.
///
/// Implements the paper's definition (discounted/conditioned counts,
/// Cormode et al.) as the output step of Mitzenmacher-Steinke-Thaler:
///
///     conditioned(p) = count(p) - sum of count(h) over p's closest HHH
///                      descendants h (no HHH between h and p)
///     p is an HHH  <=>  conditioned(p) >= T
///
/// The level maps are read in place, leaf level first. Per level, a scan
/// of the live (prefix, count) entries skips every count below T (its
/// conditioned count cannot be larger); a candidate's conditioned count
/// is its count minus its entry in the level's discount map. A new HHH
/// sets its discount entry to its whole count, and every discount entry
/// then adds its value to its parent's entry in the next level's map.
///
/// Cost: one read-only scan per level, O(distinct prefixes) sequential
/// reads. Work and memory beyond the scan are proportional to the HHHs
/// and their ancestors (at most ~total/T per level), not to the level's
/// distinct count: no per-level copy of the counters is built.
///
/// Report order is canonical and independent of the maps' layout: leaf
/// level first, ascending PrefixKey within a level.
///
/// Every level's counts are trusted. On consistent maps (each count is
/// the sum of its children's, as add, merge and loading a saved engine
/// keep them) count minus discount is exactly conditioned(p). A restored
/// frame may be inconsistent: a count below the bytes of its HHH
/// descendants yields conditioned count 0 (saturating, never wrapped),
/// and a count with no descendants at all is reported from its own count.
///
/// All extraction entry points are templates over the key domain (IPv4 /
/// IPv6 instantiations are explicit in exact_hhh.cpp); the packet-level
/// convenience exact_hhh_of dispatches on the hierarchy's family at
/// runtime.
#pragma once

#include <cstdint>
#include <span>

#include "core/hhh_types.hpp"
#include "core/level_aggregates.hpp"
#include "net/packet.hpp"

namespace hhh {

/// Extract the HHH set at an absolute byte threshold (T >= 1 enforced:
/// a zero threshold would mark every live prefix).
template <typename D>
HhhSet extract_hhh(const BasicLevelAggregates<D>& agg, std::uint64_t threshold_bytes);

/// Extract at a relative threshold: T = max(1, ceil(phi * total_bytes)).
/// This is the paper's setting ("flows which exceed 1%, 5%, 10% of the
/// total bytes measured in a specific time-window").
template <typename D>
HhhSet extract_hhh_relative(const BasicLevelAggregates<D>& agg, double phi);

/// One-shot convenience: aggregate `packets` and extract at fraction `phi`.
/// Dispatches on hierarchy.family(); packets of the other family are
/// ignored by the aggregation (their bytes never enter the counters).
HhhSet exact_hhh_of(std::span<const PacketRecord> packets, const Hierarchy& hierarchy,
                    double phi);

/// Multi-threshold extraction in ONE scan per level: returns one HhhSet
/// per threshold (same order). Each threshold keeps its own discount map
/// because the HHH-descendant discount depends on which descendants
/// qualified at that threshold. extract_hhh is the one-threshold case.
/// At most 8 thresholds per call.
template <typename D>
std::vector<HhhSet> extract_hhh_multi(const BasicLevelAggregates<D>& agg,
                                      std::span<const std::uint64_t> thresholds);

/// Relative-threshold variant of the multi-extraction.
template <typename D>
std::vector<HhhSet> extract_hhh_multi_relative(const BasicLevelAggregates<D>& agg,
                                               std::span<const double> phis);

}  // namespace hhh
