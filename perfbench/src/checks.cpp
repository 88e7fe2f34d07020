#include "checks.hpp"

#include "core/engine.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/window_policy.hpp"
#include "spans.hpp"
#include "wire/snapshot.hpp"

namespace perfbench {

using hhh::HhhSet;
using hhh::WindowReport;

bool same_set(const HhhSet& a, const HhhSet& b) {
  return a.total_bytes == b.total_bytes && a.threshold_bytes == b.threshold_bytes &&
         a.items() == b.items();
}

std::vector<WindowReport> replay_exact(std::unique_ptr<hhh::pipeline::PacketSource> source,
                                       const hhh::Hierarchy& hierarchy, hhh::Duration window,
                                       double phi) {
  hhh::pipeline::PipelineConfig config;
  config.phi = phi;
  config.flush_open_window = true;
  config.metrics = false;
  hhh::pipeline::Pipeline pipe(std::move(source),
                               hhh::pipeline::make_engine_stage(hhh::make_exact_engine(hierarchy)),
                               hhh::pipeline::make_disjoint_policy(window), config);
  auto& collect = pipe.add_sink(std::make_unique<hhh::pipeline::CollectSink>());
  pipe.run();
  return collect.reports();
}

std::size_t count_window_mismatches(const std::vector<WindowReport>& observed,
                                    const std::vector<WindowReport>& reference) {
  const std::size_t common = std::min(observed.size(), reference.size());
  std::size_t bad = std::max(observed.size(), reference.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    const WindowReport& o = observed[i];
    const WindowReport& r = reference[i];
    if (o.index != r.index || o.start != r.start || o.end != r.end || !same_set(o.hhhs, r.hhhs)) {
      ++bad;
    }
  }
  return bad;
}

std::string check_epoch(const EpochRecord& epoch, const std::vector<VantageFrame>& frames,
                        const hhh::service::Thresholds& thresholds) {
  const std::string at = "epoch " + std::to_string(epoch.index) + ": ";
  if (!epoch.complete) return at + "closed incomplete";
  if (epoch.arrival.size() != frames.size()) return at + "contributor count differs";
  std::uint64_t sum = 0;
  for (const VantageFrame& f : frames) sum += f.window_total;
  if (epoch.report.groups.size() != 1) return at + "expected one merged group";
  if (epoch.report.groups[0].merged.total_bytes != sum) {
    return at + "merged total " + std::to_string(epoch.report.groups[0].merged.total_bytes) +
           " != vantage totals " + std::to_string(sum);
  }
  hhh::service::MergeLedger ledger(thresholds);
  for (const std::string& name : epoch.arrival) {
    const VantageFrame* match = nullptr;
    for (const VantageFrame& f : frames) {
      if (f.vantage == name) match = &f;
    }
    if (match == nullptr) return at + "no captured frame from " + name;
    hhh::service::Scope scope;
    {
      ScopedSpan span("wire.decode", epoch.index);
      scope = hhh::service::decode_scope(hhh::wire::parse_frame(match->frame), name);
    }
    ScopedSpan span("service.fold", epoch.index);
    ledger.fold(std::move(scope));
  }
  hhh::service::LedgerReport offline;
  {
    ScopedSpan span("service.report", epoch.index);
    offline = ledger.report();
  }
  if (offline.groups.size() != 1 || offline.groups[0].key != epoch.report.groups[0].key ||
      !same_set(offline.groups[0].merged, epoch.report.groups[0].merged)) {
    return at + "merged set differs from the offline fold";
  }
  if (offline.hidden != epoch.report.hidden) return at + "hidden set differs from the offline fold";
  return {};
}

HhhSet offline_merge(const std::vector<const hhh::pipeline::RetainedFrame*>& frames, double phi,
                     std::int64_t query_id) {
  std::unique_ptr<hhh::HhhEngine> merged;
  for (const hhh::pipeline::RetainedFrame* f : frames) {
    hhh::service::Scope scope;
    {
      ScopedSpan span("wire.decode", query_id);
      scope = hhh::service::decode_scope(hhh::wire::parse_frame(f->frame), "ring");
    }
    if (!scope.engine) throw std::invalid_argument("offline_merge: not an engine frame");
    ScopedSpan span("pipeline.query_merge", query_id);
    if (!merged) {
      merged = std::move(scope.engine);
    } else {
      merged->merge_from(*scope.engine);
    }
  }
  if (!merged) return {};
  ScopedSpan span("pipeline.query_extract", query_id);
  return merged->extract(phi);
}

std::string check_query(const hhh::pipeline::IntervalReport& got,
                        const std::vector<const hhh::pipeline::RetainedFrame*>& frames, double phi,
                        std::uint64_t covered_total, std::int64_t query_id) {
  if (frames.empty() || got.frames_merged != frames.size()) {
    return "query merged " + std::to_string(got.frames_merged) + " frames, expected " +
           std::to_string(frames.size());
  }
  if (got.hhhs.total_bytes != covered_total) {
    return "query total " + std::to_string(got.hhhs.total_bytes) + " != covered windows' " +
           std::to_string(covered_total);
  }
  if (!same_set(got.hhhs, offline_merge(frames, phi, query_id))) return "query differs from the offline merge";
  return {};
}

}  // namespace perfbench
