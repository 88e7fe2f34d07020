#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "spans.hpp"

namespace perfbench {

std::size_t SourceProbe::next_batch(std::span<hhh::PacketRecord> out) {
  ScopedSpan span("pipeline.source");
  const std::size_t n = inner_->next_batch(out);
  if (n > 0) {
    ++batches_;
    packets_ += n;
  }
  return n;
}

void StageProbe::ingest(std::span<const hhh::PacketRecord> run) {
  ScopedSpan span("core.ingest", window_);
  inner_->ingest(run);
  for (const hhh::obs::Gauge* g : log_.ring_depth) {
    log_.ring_depth_max = std::max(log_.ring_depth_max, g->value());
  }
}

hhh::HhhSet StageProbe::report(const hhh::pipeline::WindowEvent& event, double phi) {
  const std::int64_t begin = now_ns();
  window_ = log_.window_base + static_cast<std::int64_t>(event.index);
  log_.close_start_ns = begin;
  log_.window_start_ns.push_back(event.start.ns());
  log_.close_begin_ns.push_back(begin);
  hhh::HhhSet set;
  {
    ScopedSpan span("core.extract", window_);
    set = inner_->report(event, phi);
  }
  log_.report_ms.push_back(static_cast<double>(now_ns() - begin) * 1e-6);
  if (active_log() != nullptr) {
    ScopedSpan span("core.memory", window_);
    log_.state_bytes.push_back(static_cast<double>(inner_->memory_bytes()));
  }
  return set;
}

void StageProbe::reset_state() {
  {
    ScopedSpan span("core.reset", window_);
    inner_->reset_state();
  }
  ++window_;
}

std::vector<std::uint8_t> StageProbe::snapshot() const {
  ScopedSpan span("wire.encode", window_);
  std::vector<std::uint8_t> frame = inner_->snapshot();
  if (active_log() != nullptr) log_.frame_bytes.push_back(static_cast<double>(frame.size()));
  return frame;
}

void SinkProbe::on_window(const hhh::WindowReport& report, hhh::pipeline::SinkContext& ctx) {
  ScopedSpan span(span_, log_.window_base + static_cast<std::int64_t>(report.index));
  inner_->on_window(report, ctx);
}

void CloseEndSink::on_window(const hhh::WindowReport& report, hhh::pipeline::SinkContext&) {
  log_.close_ms.push_back(static_cast<double>(now_ns() - log_.close_start_ns) * 1e-6);
  log_.totals.push_back(report.hhhs.total_bytes);
  if (log_.keep_reports) log_.reports.push_back(report);
}

namespace {

ssize_t discard_write(void*, const char*, size_t size) { return static_cast<ssize_t>(size); }

}  // namespace

DiscardStream::DiscardStream() {
  cookie_io_functions_t io{};
  io.write = discard_write;
  file_ = fopencookie(nullptr, "w", io);
  if (file_ == nullptr) throw std::runtime_error("DiscardStream: fopencookie failed");
}

DiscardStream::~DiscardStream() {
  if (file_ != nullptr) std::fclose(file_);
}

}  // namespace perfbench
