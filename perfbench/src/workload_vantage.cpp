// vantage_v4 and vantage_sharded: one long-lived `hhh-live --pcap`
// vantage, unsharded or with `--shards=2`.
//
// Set-up writes a pcap capture of the seeded ddos_carpet scenario with
// PcapWriter (deleted when the run ends). The run is one vantage reading
// the capture lap after lap through make_pcap_source into an exact engine
// behind route_shards (1 shard: the engine itself; 2 shards: the front-end
// thread plus 2 workers), with 30 s disjoint windows, the snapshot-frame
// sink writing to a discarding stream, and the frames retained in a
// FrameRing (hhh-live --retain) for the interval queries asked after the
// last lap. The first lap warms the vantage up and is not measured; every
// window of every lap must match an unsharded exact replay of the capture.
//
// 30 s windows cut the day into two halves that hold about the same span
// of carpet episodes (the episodes cover 15-84% of the day), so every
// close costs about the same and p50 and p90 sit inside one cluster of
// samples. Shorter windows mix closes of quiet and carpet-heavy windows,
// and the median then sits on the edge between the two clusters, where
// host noise moves it by a quarter.
#include <functional>

#include "checks.hpp"
#include "core/engine.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "probes.hpp"
#include "trace/scenarios.hpp"
#include "trace/synthetic_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hhh;

constexpr int kDaySeconds = 60;
constexpr int kWindowSeconds = 30;
constexpr double kBackgroundPps = 2000.0;
constexpr double kPhi = 0.05;  // hhh-live's default relative threshold
constexpr std::size_t kWindowsPerLap = kDaySeconds / kWindowSeconds;
// Three blocks of queries, so that query_p50/p90 are a median over blocks
// as the close percentiles are; the laps leave them kLapShare of the run.
constexpr QueryPlan kQueries{.queries = 3 * kMinSamples, .span_windows = 1, .phi = kPhi};
constexpr double kLapShare = 0.8;

void write_capture(const Options& opt, const std::string& path, Collected& c) {
  const ScenarioSpec* spec = find_scenario("ddos_carpet");
  if (spec == nullptr) throw std::runtime_error("scenario ddos_carpet is not registered");
  write_pcap(SyntheticTraceGenerator(spec->make(opt.seed, Duration::seconds(kDaySeconds),
                                                kBackgroundPps)),
             path, c);
}

std::unique_ptr<HhhEngine> routed_exact(std::size_t shards) {
  return pipeline::route_shards({.shards = shards}, [](std::size_t) {
    return make_exact_engine(Hierarchy::byte_granularity());
  });
}

/// Replays the capture lap after lap as one continuous stream: each lap
/// reads the file through a fresh make_pcap_source and shifts its
/// timestamps by whole days, so the vantage runs like a long-lived one
/// while its input stays the seeded capture. `another(laps_done)` decides
/// at each lap's end whether to start the next.
class LapSource final : public pipeline::PacketSource {
 public:
  LapSource(std::string path, std::function<bool(std::size_t)> another,
            pipeline::PcapSourceStats* stats)
      : path_(std::move(path)), another_(std::move(another)), stats_(stats) {
    open_lap();
  }

  std::optional<PacketRecord> next() override {
    PacketRecord p;
    return next_batch({&p, 1}) == 1 ? std::optional<PacketRecord>(p) : std::nullopt;
  }

  std::size_t next_batch(std::span<PacketRecord> out) override {
    for (;;) {
      const std::size_t n = inner_->next_batch(out);
      if (n > 0) {
        const Duration shift = Duration::seconds(kDaySeconds * static_cast<std::int64_t>(lap_));
        for (std::size_t i = 0; i < n; ++i) out[i].ts += shift;
        lap_packets_.back() += n;
        return n;
      }
      if (!another_(lap_ + 1)) return 0;
      ++lap_;
      open_lap();
    }
  }

  std::string name() const override { return "pcap-laps"; }

  /// Steady-clock time each lap was opened, its packet count, and the
  /// process's peak RSS during each finished lap.
  const std::vector<std::int64_t>& lap_start_ns() const noexcept { return lap_start_ns_; }
  const std::vector<std::uint64_t>& lap_packets() const noexcept { return lap_packets_; }
  const std::vector<double>& lap_peak_rss_mb() const noexcept { return lap_peak_rss_mb_; }

  /// Close the last lap's peak-RSS reading (call once the stream ended).
  void finish() { lap_peak_rss_mb_.push_back(peak_rss_mb()); }

 private:
  void open_lap() {
    if (!lap_start_ns_.empty()) lap_peak_rss_mb_.push_back(peak_rss_mb());
    reset_peak_rss();
    lap_start_ns_.push_back(now_ns());
    lap_packets_.push_back(0);
    inner_ = pipeline::make_pcap_source(path_, true, stats_);
  }

  std::string path_;
  std::function<bool(std::size_t)> another_;
  pipeline::PcapSourceStats* stats_;
  std::unique_ptr<pipeline::PacketSource> inner_;
  std::size_t lap_ = 0;
  std::vector<std::int64_t> lap_start_ns_;
  std::vector<std::uint64_t> lap_packets_;
  std::vector<double> lap_peak_rss_mb_;
};

/// The unsharded reference for `laps` laps: the one-day replay repeated
/// with each lap's windows shifted by whole days.
std::vector<WindowReport> repeat_reference(const std::vector<WindowReport>& day, std::size_t laps) {
  std::vector<WindowReport> out;
  out.reserve(day.size() * laps);
  for (std::size_t lap = 0; lap < laps; ++lap) {
    const Duration shift = Duration::seconds(kDaySeconds * static_cast<std::int64_t>(lap));
    for (WindowReport w : day) {
      w.index += lap * day.size();
      w.start += shift;
      w.end += shift;
      out.push_back(std::move(w));
    }
  }
  return out;
}

/// One continuous vantage run: laps until kLapShare of `seconds` have
/// passed and the measured laps (all but the first, which warms the
/// vantage up) hold enough closes; then the interval queries over the last
/// lap's frames.
PassSamples vantage_run(const Options& opt, std::size_t shards, const std::string& path,
                        const std::vector<WindowReport>& reference, double seconds, bool traced,
                        Collected& c) {
  PassSamples s;
  const std::size_t min_laps = 1 + (kMinSamples + kWindowsPerLap - 1) / kWindowsPerLap;
  CloseLog log;
  log.keep_reports = true;
  pipeline::FrameRing ring(kWindowsPerLap);
  DiscardStream out;
  pipeline::PcapSourceStats pcap_stats;

  const std::int64_t start = now_ns();
  auto source = std::make_unique<LapSource>(
      path,
      [&](std::size_t laps_done) {
        const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
        return laps_done < min_laps || (elapsed < kLapShare * seconds && elapsed < kRunCapSeconds);
      },
      &pcap_stats);
  LapSource* laps = source.get();
  auto probe = std::make_unique<SourceProbe>(std::move(source));
  SourceProbe* source_probe = probe.get();
  std::unique_ptr<HhhEngine> engine = routed_exact(shards);
  if (traced && shards > 1) {
    auto& reg = obs::MetricsRegistry::process();
    for (std::size_t i = 0; i < shards; ++i) {
      log.ring_depth.push_back(&reg.gauge(
          "hhh_sharded_ring_depth", {{"engine", engine->name()}, {"shard", std::to_string(i)}}));
    }
  }
  auto stage = std::make_unique<StageProbe>(pipeline::make_engine_stage(std::move(engine)), log);
  pipeline::PipelineConfig config;
  config.phi = kPhi;
  config.flush_open_window = true;
  pipeline::Pipeline pipe(std::move(probe), std::move(stage),
                          pipeline::make_disjoint_policy(Duration::seconds(kWindowSeconds)),
                          config);
  pipe.add_sink(std::make_unique<SinkProbe>(pipeline::make_frame_ring_sink(&ring),
                                            "pipeline.ring_push", log));
  pipe.add_sink(std::make_unique<SinkProbe>(pipeline::make_snapshot_stream_sink(out.file()),
                                            "pipeline.sink", log));
  pipe.add_sink(std::make_unique<CloseEndSink>(log));

  SpanLog frontend("frontend");
  std::vector<AskedQuery> asked;
  std::int64_t end = 0;
  {
    ThreadTrace trace(traced ? &frontend : nullptr);
    {
      ScopedSpan span("pipeline.run");
      pipe.run();
    }
    end = now_ns();
    laps->finish();
    std::mt19937_64 rng(opt.seed * 1'000'003 + (traced ? 1 : 0));
    asked = run_queries(ring, kQueries, rng, s, 0);
  }

  // --- untimed: samples and checks -----------------------------------
  const auto& lap_start = laps->lap_start_ns();
  const auto& lap_packets = laps->lap_packets();
  for (std::size_t lap = 1; lap < lap_start.size(); ++lap) {
    const std::int64_t lap_end = lap + 1 < lap_start.size() ? lap_start[lap + 1] : end;
    const double wall_s = static_cast<double>(lap_end - lap_start[lap]) * 1e-9;
    c.pass_pps.push_back(static_cast<double>(lap_packets[lap]) / wall_s);
    c.packets += static_cast<double>(lap_packets[lap]);
    (traced ? c.traced_wall_s : c.untraced_wall_s).push_back(wall_s);
    c.peak_rss_mb.push_back(laps->lap_peak_rss_mb().at(lap));
  }
  s.replays = lap_start.size();
  s.packets = source_probe->packets();
  s.wall_ns = end - lap_start.front();
  // Each measured lap is one group of close samples.
  for (std::size_t w = kWindowsPerLap; w < log.close_ms.size(); w += kWindowsPerLap) {
    const std::size_t n = std::min(kWindowsPerLap, log.close_ms.size() - w);
    const auto at = [w](const std::vector<double>& v) { return v.begin() + static_cast<std::ptrdiff_t>(w); };
    c.close_ms.add({at(log.close_ms), at(log.close_ms) + static_cast<std::ptrdiff_t>(n)});
    c.reveal_ms.add({at(log.report_ms), at(log.report_ms) + static_cast<std::ptrdiff_t>(n)});
  }

  SpanLog check_log("checks");
  SpanLog* previous = active_log();
  active_log() = traced ? &check_log : nullptr;
  c.check(pcap_stats.skipped_malformed == 0 ? "" : "pcap decode skipped malformed frames");
  const auto expected = repeat_reference(reference, lap_start.size());
  const std::size_t bad = count_window_mismatches(log.reports, expected);
  c.attempted += std::max(log.reports.size(), expected.size());
  for (std::size_t i = 0; i < bad; ++i) c.fail("window differs from the unsharded exact replay");
  check_queries(ring, log.totals, asked, kQueries.phi, c);
  if (traced) replay_stream_ledger(ring, log.totals, {.phi = kPhi}, c);
  active_log() = previous;

  if (traced) {
    s.batches = source_probe->batches();
    s.frame_bytes = log.frame_bytes;
    s.state_bytes = log.state_bytes;
    s.ring_bytes.push_back(static_cast<double>(ring.memory_bytes()));
    if (shards > 1) s.extra["core.ring_depth_max"].push_back(static_cast<double>(log.ring_depth_max));
    s.logs.push_back(std::move(frontend));
    s.check_logs.push_back(std::move(check_log));
  }
  return s;
}

void run_pcap_vantage(const Options& opt, std::size_t shards, Collected& c) {
  const ScratchFile capture(opt, "ddos_carpet.pcap");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    write_capture(opt, capture.path(), c);
    c.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  // The reference: the same capture through one unsharded exact engine.
  const std::vector<WindowReport> reference =
      replay_exact(pipeline::make_pcap_source(capture.path()), Hierarchy::byte_granularity(),
                   Duration::seconds(kWindowSeconds), kPhi);

  // One continuous vantage; with --trace 1, an untraced half then a
  // traced half, whose lap times give the tracing overhead.
  const auto keep = [&](PassSamples s, bool traced) {
    // Each kMinSamples consecutive queries are one block.
    for (std::size_t q = 0; q < s.query_ms.size(); q += kMinSamples) {
      const auto first = s.query_ms.begin() + static_cast<std::ptrdiff_t>(q);
      c.query_ms.add({first, first + static_cast<std::ptrdiff_t>(
                                         std::min(kMinSamples, s.query_ms.size() - q))});
    }
    if (traced) c.traced.push_back(std::move(s));
  };
  try {
    if (!opt.trace) {
      keep(vantage_run(opt, shards, capture.path(), reference, opt.seconds, false, c), false);
    } else {
      keep(vantage_run(opt, shards, capture.path(), reference, opt.seconds / 2, false, c), false);
      keep(vantage_run(opt, shards, capture.path(), reference, opt.seconds / 2, true, c), true);
    }
  } catch (const std::exception& e) {
    c.check(std::string("run raised: ") + e.what());
  }

  if (shards == 1) return;
  // Sharded-engine internals, from the histograms the library exports.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::process().snapshot();
  for (const auto* h : find_samples(snap, "hhh_sharded_snapshot_ns")) {
    c.extra["core.sharded_snapshot_ms_p50"].push_back(hist_quantile(h->histogram, 0.5) * 1e-6);
  }
  for (const auto* h : find_samples(snap, "hhh_sharded_quiesce_ns")) {
    c.extra["core.sharded_quiesce_ms_p50"].push_back(hist_quantile(h->histogram, 0.5) * 1e-6);
  }
  std::vector<double> batches;
  for (const auto* b : find_samples(snap, "hhh_sharded_batches_total")) {
    batches.push_back(static_cast<double>(b->counter_value));
  }
  if (!batches.empty()) {
    double sum = 0.0;
    double max = 0.0;
    for (const double b : batches) {
      sum += b;
      max = std::max(max, b);
    }
    if (sum > 0.0) {
      c.extra["core.shard_imbalance"].push_back(max / (sum / static_cast<double>(batches.size())));
    }
  }
}

}  // namespace

void run_vantage_v4(const Options& opt, Collected& c) { run_pcap_vantage(opt, 1, c); }

void run_vantage_sharded(const Options& opt, Collected& c) { run_pcap_vantage(opt, 2, c); }

}  // namespace perfbench
