#include "pipeline/sink.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "pipeline/stage.hpp"
#include "wire/snapshot.hpp"

namespace hhh::pipeline {

SinkContext::~SinkContext() {
  if (snapshot_) wire::recycle_frame(std::move(*snapshot_));
}

const std::vector<std::uint8_t>& SinkContext::snapshot() {
  if (!snapshot_) snapshot_ = stage_.snapshot();
  return *snapshot_;
}

namespace {

class CallbackSink final : public ReportSink {
 public:
  explicit CallbackSink(std::function<void(const WindowReport&)> callback)
      : callback_(std::move(callback)) {
    if (!callback_) throw std::invalid_argument("CallbackSink: null callback");
  }

  void on_window(const WindowReport& report, SinkContext&) override { callback_(report); }

 private:
  std::function<void(const WindowReport&)> callback_;
};

class TableSink final : public ReportSink {
 public:
  TableSink(std::FILE* out, std::size_t max_items) : out_(out), max_items_(max_items) {}

  void on_window(const WindowReport& report, SinkContext&) override {
    std::fprintf(out_, "window %4zu  [%8.3fs, %8.3fs)  total %14llu B  %3zu HHHs\n",
                 report.index, report.start.to_seconds(), report.end.to_seconds(),
                 static_cast<unsigned long long>(report.hhhs.total_bytes),
                 report.hhhs.size());
    std::size_t shown = 0;
    for (const auto& item : report.hhhs.items()) {
      if (shown++ == max_items_) break;
      std::fprintf(out_, "    %-24s  total %12llu B  conditioned %12llu B\n",
                   item.prefix.to_string().c_str(),
                   static_cast<unsigned long long>(item.total_bytes),
                   static_cast<unsigned long long>(item.conditioned_bytes));
    }
  }

 private:
  std::FILE* out_;
  std::size_t max_items_;
};

class SnapshotStreamSink final : public ReportSink {
 public:
  /// Borrowed stream (stdout for pipes).
  explicit SnapshotStreamSink(std::FILE* out) : out_(out) {}

  /// Owned stream over `path`.
  explicit SnapshotStreamSink(const std::string& path)
      : owned_(std::fopen(path.c_str(), "wb")), out_(owned_) {
    if (!owned_) {
      throw std::runtime_error("SnapshotStreamSink: cannot open " + path);
    }
  }


  ~SnapshotStreamSink() override {
    if (owned_) std::fclose(owned_);
  }

  SnapshotStreamSink(const SnapshotStreamSink&) = delete;
  SnapshotStreamSink& operator=(const SnapshotStreamSink&) = delete;

  void on_window(const WindowReport&, SinkContext& ctx) override {
    const auto& frame = ctx.snapshot();
    if (std::fwrite(frame.data(), 1, frame.size(), out_) != frame.size()) {
      throw std::runtime_error("SnapshotStreamSink: short write");
    }
    frames_.inc();
    frame_bytes_.inc(frame.size());
    // Per-frame flush: the output is a valid self-delimiting frame stream
    // at every instant, so a streaming consumer can follow along as
    // windows close. (The bundled hhh-collector currently drains its
    // input to EOF before reporting — the flush benefits tail -f-style
    // consumers and bounds data loss on a crash.) A flush failure
    // (ENOSPC, broken pipe) is lost data and must not be swallowed — the
    // producer would otherwise report success over a truncated stream.
    if (std::fflush(out_) != 0) {
      throw std::runtime_error("SnapshotStreamSink: flush failed (disk full / closed pipe?)");
    }
  }

 private:
  std::FILE* owned_ = nullptr;
  std::FILE* out_;
  // Per-frame cost only — always instrumented (unlike the pipeline's
  // per-chunk counters there is no hot-path budget to defend here).
  obs::Counter& frames_ = obs::MetricsRegistry::process().counter(
      "hhh_sink_frames_total", {}, "Snapshot frames written by stream sinks");
  obs::Counter& frame_bytes_ = obs::MetricsRegistry::process().counter(
      "hhh_sink_frame_bytes_total", {}, "Encoded snapshot-frame bytes written");
};

}  // namespace

std::unique_ptr<ReportSink> make_callback_sink(
    std::function<void(const WindowReport&)> callback) {
  return std::make_unique<CallbackSink>(std::move(callback));
}

std::unique_ptr<ReportSink> make_table_sink(std::FILE* out, std::size_t max_items) {
  return std::make_unique<TableSink>(out, max_items);
}

std::unique_ptr<ReportSink> make_snapshot_stream_sink(std::FILE* out) {
  return std::make_unique<SnapshotStreamSink>(out);
}

std::unique_ptr<ReportSink> make_snapshot_stream_sink(const std::string& path) {
  return std::make_unique<SnapshotStreamSink>(path);
}

}  // namespace hhh::pipeline
