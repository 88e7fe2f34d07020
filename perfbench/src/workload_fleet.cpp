// fleet_v4: the paper's multi-vantage deployment, end to end.
//
// Set-up generates one CAIDA-like v4 day and splits it by flow hash
// (ECMP-style) across two vantages, so near-threshold prefixes are hidden
// at each vantage and revealed only by the merge. A pass runs both
// vantages on their own threads — each a pipeline::Pipeline over a vector
// source into an rhhh engine stage configured as hhh-live configures it,
// with disjoint windows and an absolute threshold — and ships every
// window through a VantageClient over a Unix socket to an in-process
// CollectorService (two expected vantages, no checkpoint) polled on the
// main thread. Each vantage also retains its frames in a FrameRing
// (hhh-live --retain), which serves the pass's interval queries and the
// correctness checks.
#include <array>
#include <atomic>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>

#include "checks.hpp"
#include "core/rhhh.hpp"
#include "pipeline/pipeline.hpp"
#include "probes.hpp"
#include "service/collectord.hpp"
#include "service/vantage_client.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hhh;

constexpr int kDaySeconds = 60;
constexpr int kWindowSeconds = 5;
constexpr int kDay = 1;
constexpr double kBackgroundPps = 16000.0;
/// Absolute threshold: this share of an average window's traffic.
constexpr double kThresholdShare = 0.05;
constexpr std::size_t kVantages = 2;
constexpr std::uint64_t kRhhhSeed = 42;  // hhh-live's rhhh seed
constexpr QueryPlan kQueries{.queries = 4, .span_windows = 3, .phi = 0.05};

struct Day {
  std::array<std::vector<PacketRecord>, kVantages> vantage;
  double threshold_bytes = 0.0;
};

/// ECMP-style path choice: a hash of the 5-tuple.
std::size_t path_of(const PacketRecord& p) {
  std::uint64_t h = mix64(p.src_hi() ^ 0x9E3779B97F4A7C15ULL);
  h = mix64(h ^ p.dst_hi());
  h = mix64(h ^ ((std::uint64_t{p.src_port} << 24) | (std::uint64_t{p.dst_port} << 8) |
                 static_cast<std::uint64_t>(p.proto)));
  return static_cast<std::size_t>(h % kVantages);
}

Day make_day(std::uint64_t seed, Collected& c) {
  Day day;
  const std::int64_t t0 = now_ns();
  // One day's structure for every seed; the seed draws its traffic.
  TraceConfig config =
      TraceConfig::caida_like_day(kDay, Duration::seconds(kDaySeconds), kBackgroundPps);
  config.seed = mix64(seed ^ config.seed);
  std::vector<PacketRecord> packets = SyntheticTraceGenerator(config).generate_all();
  c.generate_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  std::uint64_t bytes = 0;
  for (const PacketRecord& p : packets) {
    day.vantage[path_of(p)].push_back(p);
    bytes += p.ip_len;
  }
  day.threshold_bytes =
      kThresholdShare * static_cast<double>(bytes) / (kDaySeconds / kWindowSeconds);
  return day;
}

/// hhh-live's --connect sink: ship the window's frame as one epoch.
class ConnectSink final : public pipeline::ReportSink {
 public:
  ConnectSink(service::VantageClient& client, const CloseLog& log, std::vector<double>& send_ms,
              std::uint64_t& journal_bytes)
      : client_(client), log_(log), send_ms_(send_ms), journal_bytes_(journal_bytes) {}

  void on_window(const WindowReport& report, pipeline::SinkContext& ctx) override {
    const std::int64_t w = log_.window_base + static_cast<std::int64_t>(report.index);
    ScopedSpan sink("pipeline.sink", w);
    const std::vector<std::uint8_t>& frame = ctx.snapshot();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan send("service.send_epoch", w);
      client_.send_epoch(report.start.ns(), report.end.ns(), frame);
    }
    send_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    journal_bytes_ += frame.size();
  }

 private:
  service::VantageClient& client_;
  const CloseLog& log_;
  std::vector<double>& send_ms_;
  std::uint64_t& journal_bytes_;
};

/// One vantage's pass state; lives on the main thread's stack, used by
/// the vantage thread between the start latch and its join.
struct Vantage {
  std::string name;
  CloseLog log;
  pipeline::FrameRing ring{kDaySeconds / kWindowSeconds + 1};
  std::unique_ptr<service::VantageClient> client;
  std::unique_ptr<pipeline::Pipeline> pipe;
  SourceProbe* source = nullptr;
  std::vector<double> send_ms;
  std::uint64_t journal_bytes = 0;
  std::string error;
};

PassSamples fleet_pass(const Options& opt, const Day& day, std::size_t index, bool traced,
                       Collected& c) {
  PassSamples s;
  const Duration window = Duration::seconds(kWindowSeconds);
  const service::Thresholds thresholds{.phi = 0.05, .threshold_bytes = day.threshold_bytes};
  const ScratchFile socket(opt, "fleet.sock");
  std::filesystem::remove(socket.path());  // a stale socket file would fail the bind
  const auto endpoint = service::Endpoint::parse("unix:" + socket.path());

  service::CollectorOptions co;
  co.listen = {*endpoint};
  co.window_ns = window.ns();
  co.grace_ns = 30'000'000'000;  // epochs close by completeness, not by timeout
  co.expected_vantages = kVantages;
  co.thresholds = thresholds;
  service::CollectorService collector(co);
  std::vector<EpochRecord> epochs;
  collector.set_epoch_callback([&](const service::ReadyEpoch& e,
                                   const service::LedgerReport& report) {
    EpochRecord rec;
    rec.revealed_ns = now_ns();
    rec.index = e.index;
    rec.start_ns = e.start_ns;
    rec.complete = !e.grace_expired && e.missing.empty();
    for (const auto& f : e.frames) rec.arrival.push_back(f.vantage);
    rec.report = report;
    epochs.push_back(std::move(rec));
  });
  collector.start();

  std::array<Vantage, kVantages> vantages;
  for (std::size_t v = 0; v < kVantages; ++v) {
    Vantage& van = vantages[v];
    van.name = "vantage" + std::to_string(v);
    van.log.window_base = static_cast<std::int64_t>((index * kVantages + v) * 1000);
    van.client = std::make_unique<service::VantageClient>(service::VantageClientOptions{
        .endpoint = *endpoint,
        .name = van.name,
        .window_ns = window.ns(),
        .retry_for_s = 10.0,
        .ack_timeout_s = 10.0});
    auto source =
        std::make_unique<SourceProbe>(pipeline::make_vector_source(day.vantage[v]));
    van.source = source.get();
    auto stage = std::make_unique<StageProbe>(
        pipeline::make_engine_stage(std::make_unique<RhhhEngine>(
            RhhhEngine::Params{.counters_per_level = 1024, .seed = kRhhhSeed})),
        van.log);
    pipeline::PipelineConfig config;
    config.phi = 1.0;
    config.threshold_bytes = day.threshold_bytes;
    config.flush_open_window = true;
    van.pipe = std::make_unique<pipeline::Pipeline>(std::move(source), std::move(stage),
                                                    pipeline::make_disjoint_policy(window),
                                                    config);
    // hhh-live's order: the retaining ring first, then the collector.
    van.pipe->add_sink(std::make_unique<SinkProbe>(pipeline::make_frame_ring_sink(&van.ring),
                                                   "pipeline.ring_push", van.log));
    van.pipe->add_sink(
        std::make_unique<ConnectSink>(*van.client, van.log, van.send_ms, van.journal_bytes));
    van.pipe->add_sink(std::make_unique<CloseEndSink>(van.log));
  }

  std::vector<SpanLog> logs;
  logs.reserve(kVantages + 1);
  for (std::size_t v = 0; v < kVantages; ++v) logs.emplace_back(vantages[v].name);
  logs.emplace_back("collector");

  std::latch go(1);
  std::atomic<std::size_t> running{kVantages};
  std::string collector_error;
  std::vector<std::jthread> threads;  // joined before anything they use is destroyed
  for (std::size_t v = 0; v < kVantages; ++v) {
    threads.emplace_back([&, v] {
      Vantage& van = vantages[v];
      go.wait();
      {
        ThreadTrace trace(traced ? &logs[v] : nullptr);
        try {
          {
            ScopedSpan span("pipeline.run");
            van.pipe->run();
          }
          ScopedSpan span("service.finish");
          if (!van.client->finish()) van.error = van.name + ": collector never acknowledged";
        } catch (const std::exception& e) {
          van.error = van.name + ": " + e.what();
        }
      }
      if (running.fetch_sub(1) == 1) collector.stop();
    });
  }

  std::int64_t start = 0;
  std::array<std::vector<AskedQuery>, kVantages> asked;
  {
    ThreadTrace trace(traced ? &logs[kVantages] : nullptr);
    start = now_ns();
    go.count_down();
    {
      // The collector's share of the pass, until the fleet has exited.
      ScopedSpan span("service.collector_run");
      try {
        collector.run();
      } catch (const std::exception& e) {
        collector_error = std::string("collector: ") + e.what();
      }
      for (auto& t : threads) t.join();
    }
    s.wall_ns = (epochs.empty() ? now_ns() : epochs.back().revealed_ns) - start;
    std::mt19937_64 rng(opt.seed * 1'000'003 + index);
    for (std::size_t v = 0; v < kVantages; ++v) {
      asked[v] = run_queries(vantages[v].ring, kQueries, rng, s,
                             static_cast<std::int64_t>((index * kVantages + v) * 1000));
    }
  }
  s.peak_rss_mb = peak_rss_mb();

  // --- untimed: samples and checks -----------------------------------
  for (const Vantage& van : vantages) {
    s.packets += van.source->packets();
    s.close_ms.insert(s.close_ms.end(), van.log.close_ms.begin(), van.log.close_ms.end());
  }
  for (const EpochRecord& e : epochs) {
    std::int64_t later = 0;
    for (const Vantage& van : vantages) {
      for (std::size_t w = 0; w < van.log.window_start_ns.size(); ++w) {
        if (van.log.window_start_ns[w] == e.start_ns) later = std::max(later, van.log.close_begin_ns[w]);
      }
    }
    if (later > 0) s.reveal_ms.push_back(static_cast<double>(e.revealed_ns - later) * 1e-6);
  }

  SpanLog check_log("checks");
  SpanLog* previous = active_log();
  active_log() = traced ? &check_log : nullptr;
  c.check(collector_error);
  for (const Vantage& van : vantages) c.check(van.error);
  const service::CollectorStats stats = collector.stats();
  c.check(stats.protocol_errors == 0 ? "" : "collector counted protocol errors");
  c.check(stats.epochs_incomplete == 0 ? "" : "collector closed epochs incomplete");
  const std::size_t windows = vantages[0].log.totals.size();
  c.check(epochs.size() == windows && vantages[1].log.totals.size() == windows
              ? ""
              : "collector revealed " + std::to_string(epochs.size()) + " epochs for " +
                    std::to_string(windows) + " windows");
  for (const EpochRecord& e : epochs) {
    std::vector<VantageFrame> frames;
    for (const Vantage& van : vantages) {
      for (const auto& f : van.ring.frames()) {
        if (f.start.ns() == e.start_ns) {
          frames.push_back({van.name, f.frame, van.log.totals.at(f.index)});
        }
      }
    }
    try {
      c.check(check_epoch(e, frames, thresholds));
    } catch (const std::exception& ex) {
      c.check(std::string("epoch check raised: ") + ex.what());
    }
  }
  for (std::size_t v = 0; v < kVantages; ++v) {
    check_queries(vantages[v].ring, vantages[v].log.totals, asked[v], kQueries.phi, c);
  }
  active_log() = previous;

  if (traced) {
    for (const Vantage& van : vantages) {
      s.batches += van.source->batches();
      s.frame_bytes.insert(s.frame_bytes.end(), van.log.frame_bytes.begin(),
                           van.log.frame_bytes.end());
      s.state_bytes.insert(s.state_bytes.end(), van.log.state_bytes.begin(),
                           van.log.state_bytes.end());
      s.ring_bytes.push_back(static_cast<double>(van.ring.memory_bytes()));
      auto& send = s.extra["service.send_epoch_ms"];
      send.insert(send.end(), van.send_ms.begin(), van.send_ms.end());
      s.extra["service.journal_mb"].push_back(static_cast<double>(van.journal_bytes) /
                                              (1024.0 * 1024.0));
    }
    s.extra["service.backpressure_pauses"].push_back(
        static_cast<double>(stats.backpressure_pauses));
    s.extra["service.epochs_incomplete"].push_back(static_cast<double>(stats.epochs_incomplete));
    for (const auto* h :
         find_samples(collector.metrics_snapshot(), "hhh_collector_epoch_close_latency_ns")) {
      s.extra["service.collector_close_ms"].push_back(hist_quantile(h->histogram, 0.5) * 1e-6);
    }
    s.logs = std::move(logs);
    s.check_logs.push_back(std::move(check_log));
  }
  return s;
}

}  // namespace

void run_fleet_v4(const Options& opt, Collected& c) {
  Day day;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    day = make_day(opt.seed, c);
    c.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  drive_passes(opt, c, [&](std::size_t index, bool traced) {
    return fleet_pass(opt, day, index, traced, c);
  });
}

}  // namespace perfbench
