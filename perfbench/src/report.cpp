#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kCoverageTolerance = 0.05;

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<double> ns_to_ms(const std::vector<std::int64_t>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const std::int64_t x : v) out.push_back(static_cast<double>(x) * 1e-6);
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Collected& c) {
  return {
      {"setup_s", median(c.setup_s), "s"},
      {"pps", median(c.pass_pps), "packets/s"},
      {"reveal_p50_ms", c.reveal_ms.blocked_quantile(0.5), "ms"},
      {"reveal_p90_ms", c.reveal_ms.blocked_quantile(0.9), "ms"},
      {"close_p50_ms", c.close_ms.blocked_quantile(0.5), "ms"},
      {"close_p90_ms", c.close_ms.blocked_quantile(0.9), "ms"},
      {"query_p50_ms", c.query_ms.blocked_quantile(0.5), "ms"},
      {"query_p90_ms", c.query_ms.blocked_quantile(0.9), "ms"},
      {"peak_rss_mb", median(c.peak_rss_mb), "MiB"},
  };
}

/// Values of a workload figure across the run and its traced passes.
std::vector<double> figure(const Collected& c, const std::string& name) {
  std::vector<double> out;
  if (const auto it = c.extra.find(name); it != c.extra.end()) out = it->second;
  for (const PassSamples& s : c.traced) {
    if (const auto it = s.extra.find(name); it != s.extra.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

double max_or(const std::vector<double>& v, double fallback) {
  return v.empty() ? fallback : *std::max_element(v.begin(), v.end());
}

/// Per traced thread (by name, over all traced passes): summed layer self
/// time over summed thread wall time.
std::map<std::string, double> coverage_by_thread(const Collected& c) {
  std::map<std::string, std::pair<double, double>> sums;  // self, wall
  for (const PassSamples& s : c.traced) {
    for (const SpanLog& log : s.logs) {
      const auto wall = static_cast<double>(log.thread_wall_ns());
      sums[log.thread()].first += coverage(log) * wall;
      sums[log.thread()].second += wall;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [thread, sw] : sums) out[thread] = sw.second > 0.0 ? sw.first / sw.second : 0.0;
  return out;
}

std::vector<Metric> per_layer(const Collected& c) {
  std::vector<SpanLog> timed;
  std::vector<SpanLog> checks;
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  std::vector<double> frame_bytes, state_bytes, ring_bytes;
  for (const PassSamples& s : c.traced) {
    timed.insert(timed.end(), s.logs.begin(), s.logs.end());
    checks.insert(checks.end(), s.check_logs.begin(), s.check_logs.end());
    packets += s.packets;
    batches += s.batches;
    frame_bytes.insert(frame_bytes.end(), s.frame_bytes.begin(), s.frame_bytes.end());
    state_bytes.insert(state_bytes.end(), s.state_bytes.begin(), s.state_bytes.end());
    ring_bytes.insert(ring_bytes.end(), s.ring_bytes.begin(), s.ring_bytes.end());
  }
  double replays = 0.0;
  for (const PassSamples& s : c.traced) replays += static_cast<double>(s.replays);
  replays = std::max(replays, 1.0);
  const auto t = aggregate(timed);
  const auto k = aggregate(checks);
  const auto stat = [](const std::map<std::string, LayerStat>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? LayerStat{} : it->second;
  };
  const auto self_s = [&](const char* name) {
    return static_cast<double>(stat(t, name).self_ns) * 1e-9;
  };
  const auto p50 = [](const std::vector<std::int64_t>& ns) { return quantile(ns_to_ms(ns), 0.5); };
  const auto per_window_ms = [](const LayerStat& st) {
    std::vector<double> out;
    for (const auto& [w, ns] : st.self_by_window) out.push_back(static_cast<double>(ns) * 1e-6);
    return out;
  };

  // Sink time per window, all sinks together, the snapshot encode excluded.
  std::map<std::int64_t, std::int64_t> sink_ns;
  for (const char* name : {"pipeline.sink", "pipeline.ring_push", "service.send_epoch"}) {
    for (const auto& [w, ns] : stat(t, name).self_by_window) sink_ns[w] += ns;
  }
  std::vector<double> sink_ms;
  for (const auto& [w, ns] : sink_ns) sink_ms.push_back(static_cast<double>(ns) * 1e-6);

  double coverage_min = 1.0;
  for (const auto& [thread, cov] : coverage_by_thread(c)) coverage_min = std::min(coverage_min, cov);
  const double untraced = median(c.untraced_wall_s);
  const double overhead =
      untraced > 0.0 ? (median(c.traced_wall_s) / untraced - 1.0) * 100.0 : 0.0;
  const double source_s = self_s("pipeline.source");
  const double ingest_s = self_s("core.ingest");
  const auto extract_ms = ns_to_ms(stat(t, "core.extract").durations);

  return {
      {"trace.generate_s", median(c.generate_s), "s"},
      {"pipeline.source_s", source_s / replays, "s"},
      {"pipeline.source_mpps",
       source_s > 0.0 ? static_cast<double>(packets) / source_s * 1e-6 : 0.0, "Mpps"},
      {"pipeline.driver_self_s", self_s("pipeline.run") / replays, "s"},
      {"pipeline.batches", static_cast<double>(batches) / replays, "count"},
      {"pipeline.sink_ms_p50", quantile(sink_ms, 0.5), "ms"},
      {"pipeline.ring_push_ms_p50", p50(stat(t, "pipeline.ring_push").selfs), "ms"},
      {"pipeline.ring_mb", median(ring_bytes) / kMiB, "MiB"},
      {"pipeline.query_select_ms_p50", p50(stat(k, "pipeline.query_select").durations), "ms"},
      {"pipeline.query_merge_ms_p50",
       quantile(per_window_ms(stat(k, "pipeline.query_merge")), 0.5), "ms"},
      {"pipeline.query_extract_ms_p50", p50(stat(k, "pipeline.query_extract").durations), "ms"},
      {"core.ingest_s", ingest_s / replays, "s"},
      {"core.ingest_mpps", ingest_s > 0.0 ? static_cast<double>(packets) / ingest_s * 1e-6 : 0.0,
       "Mpps"},
      {"core.extract_ms_p50", quantile(extract_ms, 0.5), "ms"},
      {"core.extract_ms_p90", quantile(extract_ms, 0.9), "ms"},
      {"core.reset_ms_p50", p50(stat(t, "core.reset").durations), "ms"},
      {"core.state_mb", median(state_bytes) / kMiB, "MiB"},
      {"wire.encode_ms_p50", p50(stat(t, "wire.encode").durations), "ms"},
      {"wire.frame_kb_p50", median(frame_bytes) / 1024.0, "KiB"},
      {"wire.decode_ms_p50", p50(stat(k, "wire.decode").durations), "ms"},
      {"service.fold_ms_p50", p50(stat(k, "service.fold").durations), "ms"},
      {"service.report_ms_p50", p50(stat(k, "service.report").durations), "ms"},
      {"trace.coverage_min", coverage_min, "ratio"},
      {"trace.overhead_pct", overhead, "%"},
  };
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void check_trace_coverage(Collected& c) {
  for (const auto& [thread, cov] : coverage_by_thread(c)) {
    c.check(cov >= 1.0 - kCoverageTolerance && cov <= 1.0 + kCoverageTolerance
                ? ""
                : "layer self times cover " + number(cov) + " of thread " + thread);
  }
}

std::string result_json(const Options& opt, const Collected& c) {
  const std::uint64_t attempted = std::max<std::uint64_t>(c.attempted, 1);
  const std::uint64_t failed = c.attempted == 0 ? 1 : c.failed;
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed
     << ", \"metrics\": " << metrics_object(opt.trace ? per_layer(c) : end_to_end(c)) << "}";
  return os.str();
}

std::string detail_json(const Options& opt, const Collected& c) {
  std::vector<Metric> figures;
  const auto add_p = [&](const std::string& name, const std::string& base, double q) {
    const auto v = figure(c, base);
    if (!v.empty()) figures.push_back({name, quantile(v, q), "ms"});
  };
  if (const auto v = figure(c, "trace.pcap_write_s"); !v.empty()) {
    figures.push_back({"trace.pcap_write_s", median(v), "s"});
  }
  const auto add_max = [&](const std::string& name, const std::string& unit) {
    const auto v = figure(c, name);
    if (!v.empty()) figures.push_back({name, max_or(v, 0.0), unit});
  };
  add_max("core.shard_imbalance", "ratio");
  add_max("core.ring_depth_max", "count");
  add_max("service.journal_mb", "MiB");
  add_max("service.backpressure_pauses", "count");
  add_max("service.epochs_incomplete", "count");
  add_p("service.send_epoch_ms_p50", "service.send_epoch_ms", 0.5);
  add_p("service.send_epoch_ms_p90", "service.send_epoch_ms", 0.9);
  add_p("service.collector_close_ms_p50", "service.collector_close_ms", 0.5);
  add_p("core.sharded_snapshot_ms_p50", "core.sharded_snapshot_ms_p50", 0.5);
  add_p("core.sharded_quiesce_ms_p50", "core.sharded_quiesce_ms_p50", 0.5);

  std::vector<Metric> coverage_figures;
  for (const auto& [thread, cov] : coverage_by_thread(c)) coverage_figures.push_back({thread, cov, "ratio"});

  std::ostringstream os;
  os << "{\"detail\": {\"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"samples\": {\"setup\": " << c.setup_s.size()
     << ", \"passes\": " << c.pass_pps.size() << ", \"traced_passes\": " << c.traced.size()
     << ", \"close\": " << c.close_ms.size() << ", \"reveal\": " << c.reveal_ms.size()
     << ", \"query\": " << c.query_ms.size() << "}, \"packets_per_pass\": "
     << number(c.pass_pps.empty() ? 0.0 : c.packets / static_cast<double>(c.pass_pps.size()))
     << ", \"pass_pps_quartiles\": [" << number(quantile(c.pass_pps, 0.25)) << ", "
     << number(quantile(c.pass_pps, 0.5)) << ", " << number(quantile(c.pass_pps, 0.75))
     << "], \"figures\": " << metrics_object(figures)
     << ", \"trace_coverage\": " << metrics_object(coverage_figures)
     << ", \"failures\": [";
  for (std::size_t i = 0; i < c.failures.size(); ++i) {
    os << (i > 0 ? ", " : "") << quoted(c.failures[i]);
  }
  os << "]}}";
  return os.str();
}

}  // namespace perfbench
