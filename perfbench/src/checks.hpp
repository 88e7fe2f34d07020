/// \file
/// The benchmark's correctness checks, run after each pass outside the
/// timed region. Each returns an empty string when the output is right
/// and a one-line reason otherwise; the workloads count every non-empty
/// result (and every exception) as one failed operation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/disjoint_window.hpp"
#include "core/hhh_types.hpp"
#include "net/hierarchy.hpp"
#include "pipeline/frame_ring.hpp"
#include "pipeline/source.hpp"
#include "service/merge.hpp"

namespace perfbench {

/// Item-for-item equality of two HHH sets, totals and threshold included.
bool same_set(const hhh::HhhSet& a, const hhh::HhhSet& b);

/// Replay `source` through one unsharded exact engine with disjoint
/// windows of `window`, relative threshold `phi` and the final partial
/// window flushed: the reference the sharded vantage must match.
std::vector<hhh::WindowReport> replay_exact(std::unique_ptr<hhh::pipeline::PacketSource> source,
                                            const hhh::Hierarchy& hierarchy,
                                            hhh::Duration window, double phi);

/// Windows of `observed` that differ from `reference` (index, span, total,
/// threshold or HHH set), plus every window present in only one of them.
std::size_t count_window_mismatches(const std::vector<hhh::WindowReport>& observed,
                                    const std::vector<hhh::WindowReport>& reference);

/// What the collector reported when it closed one epoch.
struct EpochRecord {
  std::int64_t index = 0;
  std::int64_t start_ns = 0;
  std::int64_t revealed_ns = 0;          ///< steady clock at the epoch callback
  bool complete = false;                  ///< closed by completeness, none missing
  std::vector<std::string> arrival;       ///< contributing vantages, arrival order
  hhh::service::LedgerReport report;
};

/// One vantage's frame for an epoch.
struct VantageFrame {
  std::string vantage;
  std::span<const std::uint8_t> frame;
  std::uint64_t window_total = 0;  ///< the vantage's own report total
};

/// Check one closed epoch: complete; merged total equals the sum of the
/// vantages' window totals; merged and hidden sets equal an offline
/// MergeLedger fold of the same frames in the collector's arrival order.
std::string check_epoch(const EpochRecord& epoch, const std::vector<VantageFrame>& frames,
                        const hhh::service::Thresholds& thresholds);

/// Decode, merge and extract `frames` offline, the way
/// FrameRing::query_interval does, through public wire/service calls.
/// Records "wire.decode", "pipeline.query_merge" and
/// "pipeline.query_extract" spans, tagged with `query_id`, when the thread
/// is traced.
hhh::HhhSet offline_merge(const std::vector<const hhh::pipeline::RetainedFrame*>& frames,
                          double phi, std::int64_t query_id = -1);

/// Check one interval query: it equals the offline merge of `frames`
/// (the ring's frames_in() selection) and its total equals
/// `covered_total`, the sum of the covered windows' own totals.
std::string check_query(const hhh::pipeline::IntervalReport& got,
                        const std::vector<const hhh::pipeline::RetainedFrame*>& frames,
                        double phi, std::uint64_t covered_total,
                        std::int64_t query_id = -1);

}  // namespace perfbench
