// v6_interval: a v6-only vantage, its write path beside its read path.
//
// Set-up generates a pure-v6 CAIDA-like day and writes it as a pcap
// capture with PcapWriter (deleted when the run ends). A pass reads it
// through make_pcap_source into an exact_v6 engine stage with hhh-live's
// byte-granularity v6 hierarchy and disjoint windows, retaining every
// window's frame in a FrameRing through make_frame_ring_sink, then asks a
// seeded sequence of interval queries, each over a fixed number of
// consecutive retained windows.
#include "checks.hpp"
#include "core/engine.hpp"
#include "pipeline/pipeline.hpp"
#include "probes.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hhh;

constexpr int kDaySeconds = 60;
constexpr int kWindowSeconds = 5;
constexpr int kDay = 2;
constexpr double kBackgroundPps = 2000.0;
constexpr double kPhi = 0.05;
constexpr QueryPlan kQueries{.queries = 8, .span_windows = 2, .phi = kPhi};

void write_v6_day(std::uint64_t seed, const std::string& path, Collected& c) {
  // One day's structure for every seed; the seed draws its traffic.
  TraceConfig config =
      TraceConfig::caida_like_day(kDay, Duration::seconds(kDaySeconds), kBackgroundPps);
  config.seed = mix64(seed ^ config.seed);
  config.v6_fraction = 1.0;
  write_pcap(SyntheticTraceGenerator(config), path, c);
}

PassSamples v6_pass(const Options& opt, const std::string& path, std::size_t index, bool traced,
                    bool replay_ledger, Collected& c) {
  PassSamples s;
  CloseLog log;
  log.window_base = static_cast<std::int64_t>(index * 1000);
  pipeline::FrameRing ring(kDaySeconds / kWindowSeconds + 1);

  pipeline::PcapSourceStats pcap_stats;
  auto source = std::make_unique<SourceProbe>(pipeline::make_pcap_source(path, true, &pcap_stats));
  SourceProbe* source_probe = source.get();
  auto stage = std::make_unique<StageProbe>(
      pipeline::make_engine_stage(make_exact_engine(Hierarchy::v6_byte_granularity())), log);
  pipeline::PipelineConfig config;
  config.phi = kPhi;
  config.flush_open_window = true;
  pipeline::Pipeline pipe(std::move(source), std::move(stage),
                          pipeline::make_disjoint_policy(Duration::seconds(kWindowSeconds)),
                          config);
  pipe.add_sink(std::make_unique<SinkProbe>(pipeline::make_frame_ring_sink(&ring),
                                            "pipeline.ring_push", log));
  pipe.add_sink(std::make_unique<CloseEndSink>(log));

  SpanLog vantage("vantage");
  std::vector<AskedQuery> asked;
  {
    ThreadTrace trace(traced ? &vantage : nullptr);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span("pipeline.run");
      pipe.run();
    }
    s.wall_ns = now_ns() - t0;
    std::mt19937_64 rng(opt.seed * 1'000'003 + index);
    asked = run_queries(ring, kQueries, rng, s, static_cast<std::int64_t>(index * 1000));
  }
  s.peak_rss_mb = peak_rss_mb();

  // --- untimed: samples and checks -----------------------------------
  s.packets = source_probe->packets();
  s.close_ms = log.close_ms;
  s.reveal_ms = log.report_ms;
  SpanLog check_log("checks");
  SpanLog* previous = active_log();
  active_log() = traced ? &check_log : nullptr;
  c.check(pcap_stats.skipped_malformed == 0 && pcap_stats.decoded_v4 == 0
              ? ""
              : "pcap decode skipped frames or found v4 packets");
  c.check(log.totals.size() == ring.size() ? "" : "ring lost window frames");
  check_queries(ring, log.totals, asked, kQueries.phi, c);
  if (replay_ledger) replay_stream_ledger(ring, log.totals, {.phi = kPhi}, c);
  active_log() = previous;

  if (traced) {
    s.batches = source_probe->batches();
    s.frame_bytes = log.frame_bytes;
    s.state_bytes = log.state_bytes;
    s.ring_bytes.push_back(static_cast<double>(ring.memory_bytes()));
    s.logs.push_back(std::move(vantage));
    s.check_logs.push_back(std::move(check_log));
  }
  return s;
}

}  // namespace

void run_v6_interval(const Options& opt, Collected& c) {
  const ScratchFile capture(opt, "v6.pcap");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    write_v6_day(opt.seed, capture.path(), c);
    c.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  bool ledger_replayed = false;
  drive_passes(opt, c, [&](std::size_t index, bool traced) {
    const bool replay = traced && !ledger_replayed;
    ledger_replayed = ledger_replayed || replay;
    return v6_pass(opt, capture.path(), index, traced, replay, c);
  });
}

}  // namespace perfbench
