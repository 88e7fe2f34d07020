/// \file
/// What the three workloads share: options, the per-run sample store,
/// the pass loop, interval queries over a FrameRing, and host facts.
///
/// A run is set-up (repeated, so set-up time is a median), one warm-up
/// pass that is checked but not measured, then measured passes until
/// `--seconds` have elapsed and every percentile metric has enough
/// samples. A pass replays the workload's whole pre-generated traffic.
/// Correctness checks run after each pass's timed part. With `--trace 1`
/// every other measured pass is traced; the untraced passes in between
/// give the tracing overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/frame_ring.hpp"
#include "service/merge.hpp"
#include "spans.hpp"
#include "trace/synthetic_trace.hpp"

namespace perfbench {

/// Command-line options.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_run";  ///< working directory for sockets and captures
};

/// Percentile metrics need this many samples so that p90 has ten beyond it.
inline constexpr std::size_t kMinSamples = 100;
/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 3;
/// Hard stop for a run whose samples stay short (the benchmark must exit
/// well within its 180 s budget).
inline constexpr double kRunCapSeconds = 100.0;

/// What one pass measured.
struct PassSamples {
  std::uint64_t packets = 0;      ///< packets ingested (all vantages)
  std::uint64_t replays = 1;      ///< replays of the day the pass covered
  std::int64_t wall_ns = 0;       ///< first packet to last frame shipped/revealed
  std::vector<double> close_ms;
  std::vector<double> reveal_ms;
  std::vector<double> query_ms;
  double peak_rss_mb = 0.0;
  // Traced passes only.
  std::vector<SpanLog> logs;        ///< the timed threads
  std::vector<SpanLog> check_logs;  ///< the offline replays run by the checks
  std::uint64_t batches = 0;        ///< source batches
  std::vector<double> frame_bytes;
  std::vector<double> state_bytes;
  std::vector<double> ring_bytes;
  std::map<std::string, std::vector<double>> extra;  ///< workload-specific figures
};

/// Samples of one latency metric, grouped by the pass that produced them.
struct PassGrouped {
  std::vector<std::vector<double>> passes;

  void add(const std::vector<double>& pass) {
    if (!pass.empty()) passes.push_back(pass);
  }
  /// Samples over all passes.
  std::size_t size() const;
  /// Quantile q, estimated so that a stretch of slow passes moves it
  /// little: the passes are cut, in order, into blocks of at least
  /// kMinSamples samples (a short tail joins the last block), and the
  /// result is the median over blocks of each block's quantile q. With
  /// one block this is the plain quantile.
  double blocked_quantile(double q) const;
};

/// Everything a run accumulates.
struct Collected {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> pass_pps;  ///< per measured pass (or lap)
  double packets = 0.0;          ///< packets over the measured passes
  PassGrouped close_ms, reveal_ms, query_ms;
  std::vector<double> peak_rss_mb;  ///< per pass (or lap)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
  // Trace mode.
  std::vector<PassSamples> traced;
  std::vector<double> traced_wall_s, untraced_wall_s;
  std::map<std::string, std::vector<double>> extra;  ///< per-run workload figures

  /// Count one attempted operation; a non-empty reason marks it failed.
  void check(const std::string& reason);
  /// Count one failed operation that was attempted elsewhere.
  void fail(const std::string& reason);
};

/// Run `pass(index, traced)` until the run is measured (see file header).
/// An exception from a pass counts as one failed operation and ends the
/// run.
void drive_passes(const Options& opt, Collected& c,
                  const std::function<PassSamples(std::size_t, bool)>& pass);

/// Interval queries over consecutive retained windows.
struct QueryPlan {
  std::size_t queries = 0;       ///< queries per pass
  std::size_t span_windows = 2;  ///< consecutive windows per query
  double phi = 0.05;
};

/// One interval query as asked and answered.
struct AskedQuery {
  hhh::TimePoint t1, t2;
  hhh::pipeline::IntervalReport got;
  std::int64_t id = 0;  ///< span window id of the query
};

/// Run `plan.queries` interval queries over `ring`, each covering
/// `plan.span_windows` consecutive retained windows, cycling through the
/// start positions from an offset drawn from `rng`, and time each one into
/// `out.query_ms` ("pipeline.query" spans when traced).
std::vector<AskedQuery> run_queries(const hhh::pipeline::FrameRing& ring, const QueryPlan& plan,
                                    std::mt19937_64& rng, PassSamples& out,
                                    std::int64_t id_base);

/// Check each asked query against the offline merge of the ring's
/// frames_in() selection and the covered windows' `totals` (indexed by
/// window ordinal). Untimed; records "pipeline.query_select" and the
/// replay spans on the calling thread's log.
void check_queries(const hhh::pipeline::FrameRing& ring, const std::vector<std::uint64_t>& totals,
                   const std::vector<AskedQuery>& asked, double phi, Collected& c);

/// Fold every retained frame of a single-vantage stream into a
/// MergeLedger, as the offline collector does with a vantage's output,
/// and check that the merged total equals the sum of the windows' totals.
/// Records "wire.decode", "service.fold" and "service.report" spans on
/// the calling thread's log.
void replay_stream_ledger(const hhh::pipeline::FrameRing& ring,
                          const std::vector<std::uint64_t>& totals,
                          const hhh::service::Thresholds& thresholds, Collected& c);

/// A file under the scratch directory, named per process and removed
/// when the run ends.
class ScratchFile {
 public:
  ScratchFile(const Options& opt, const std::string& name);
  ~ScratchFile();
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Drain `generator` and write its packets as a pcap capture at `path`
/// with PcapWriter; records the generator time in `c.generate_s` and the
/// write time as the "trace.pcap_write_s" figure.
void write_pcap(hhh::SyntheticTraceGenerator generator, const std::string& path, Collected& c);

/// Reset the process's peak-RSS mark (Linux clear_refs); false when the
/// kernel refuses.
bool reset_peak_rss();
/// Peak resident set size since the last reset, in MiB.
double peak_rss_mb();

/// One-line JSON description of the host and build.
std::string host_json();

/// Quantile q of a log2-bucketed obs histogram, interpolated linearly
/// inside the bucket that holds it; 0 when it is empty.
double hist_quantile(const hhh::obs::Histogram::Snapshot& h, double q);

/// Every sample named `name` in `snap` (one per label set).
std::vector<const hhh::obs::MetricSample*> find_samples(const hhh::obs::MetricsSnapshot& snap,
                                                        const std::string& name);

/// Quantile q in [0, 1] of `v` (linear interpolation between order
/// statistics); 0 for an empty vector.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
