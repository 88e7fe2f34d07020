/// \file
/// Decorators that time the library's layers from outside.
///
/// Each probe wraps one public interface (PacketSource, MeasurementStage,
/// ReportSink), forwards every call unchanged and records a span around
/// it on the calling thread's active log (spans.hpp). Untraced, the spans
/// cost one thread-local load; the probes then keep only the timestamps
/// the end-to-end metrics need: when a window close starts (the first
/// call into MeasurementStage::report) and when the last sink of that
/// close is reached.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/sink.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stage.hpp"

namespace perfbench {

/// What one vantage's window closes cost, filled by StageProbe and
/// CloseEndSink on the vantage's thread and read after it joined.
struct CloseLog {
  std::int64_t window_base = 0;   ///< span window id of window 0 (unique per pass)
  std::int64_t close_start_ns = 0;  ///< report() entry of the close in progress
  std::vector<std::int64_t> window_start_ns;  ///< per window: its trace-time start
  std::vector<std::int64_t> close_begin_ns;   ///< per window: report() entry (steady clock)
  std::vector<double> report_ms;  ///< per window: report() duration
  std::vector<double> close_ms;   ///< per window: report() entry to the last sink
  std::vector<std::uint64_t> totals;           ///< per window: report total bytes
  std::vector<hhh::WindowReport> reports;       ///< per window, when kept
  bool keep_reports = false;
  // Traced only.
  std::vector<double> frame_bytes;    ///< per snapshot() call
  std::vector<double> state_bytes;    ///< memory_bytes() at each close
  std::int64_t ring_depth_max = 0;    ///< max in-flight shard batches seen at ingest
  std::vector<const hhh::obs::Gauge*> ring_depth;  ///< sharded ring gauges to sample
};

/// PacketSource decorator: "pipeline.source" spans around next_batch.
class SourceProbe final : public hhh::pipeline::PacketSource {
 public:
  explicit SourceProbe(std::unique_ptr<hhh::pipeline::PacketSource> inner)
      : inner_(std::move(inner)) {}
  std::optional<hhh::PacketRecord> next() override { return inner_->next(); }
  std::size_t next_batch(std::span<hhh::PacketRecord> out) override;
  std::optional<hhh::TimePoint> stream_now() const override { return inner_->stream_now(); }
  std::string name() const override { return inner_->name(); }

  std::uint64_t batches() const noexcept { return batches_; }
  std::uint64_t packets() const noexcept { return packets_; }

 private:
  std::unique_ptr<hhh::pipeline::PacketSource> inner_;
  std::uint64_t batches_ = 0;
  std::uint64_t packets_ = 0;
};

/// MeasurementStage decorator: "core.ingest", "core.extract",
/// "core.memory", "core.reset" and "wire.encode" spans, and the start of
/// every window close.
class StageProbe final : public hhh::pipeline::MeasurementStage {
 public:
  StageProbe(std::unique_ptr<hhh::pipeline::MeasurementStage> inner, CloseLog& log)
      : inner_(std::move(inner)), log_(log), window_(log.window_base) {}

  void ingest(std::span<const hhh::PacketRecord> run) override;
  hhh::HhhSet report(const hhh::pipeline::WindowEvent& event, double phi) override;
  void reset_state() override;
  bool serializable() const override { return inner_->serializable(); }
  std::vector<std::uint8_t> snapshot() const override;
  std::uint64_t total_bytes() const override { return inner_->total_bytes(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hhh::pipeline::MeasurementStage> inner_;
  CloseLog& log_;
  std::int64_t window_;
};

/// ReportSink decorator: one span named `span` around on_window.
class SinkProbe final : public hhh::pipeline::ReportSink {
 public:
  SinkProbe(std::unique_ptr<hhh::pipeline::ReportSink> inner, const char* span,
            const CloseLog& log)
      : inner_(std::move(inner)), span_(span), log_(log) {}
  void on_window(const hhh::WindowReport& report, hhh::pipeline::SinkContext& ctx) override;
  void on_finish() override { inner_->on_finish(); }

 private:
  std::unique_ptr<hhh::pipeline::ReportSink> inner_;
  const char* span_;
  const CloseLog& log_;
};

/// The last sink of every vantage: ends the close timing and records the
/// window's total (and the whole report when the log keeps reports).
class CloseEndSink final : public hhh::pipeline::ReportSink {
 public:
  explicit CloseEndSink(CloseLog& log) : log_(log) {}
  void on_window(const hhh::WindowReport& report, hhh::pipeline::SinkContext& ctx) override;

 private:
  CloseLog& log_;
};

/// A stdio stream that discards what is written to it: the snapshot-frame
/// sink's output without disk traffic. Owns the FILE; closes it on
/// destruction.
class DiscardStream {
 public:
  DiscardStream();
  ~DiscardStream();
  DiscardStream(const DiscardStream&) = delete;
  DiscardStream& operator=(const DiscardStream&) = delete;

  std::FILE* file() const noexcept { return file_; }

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace perfbench
