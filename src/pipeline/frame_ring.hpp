/// \file
/// FrameRing — a bounded, queryable ring of retained per-window snapshot
/// frames, the pipeline's answer to "top HHHs between t1 and t2".
///
/// Every closed window already produces a compact snapshot frame (the
/// SinkContext::snapshot() stream vantages ship to the collector). A
/// FrameRing retains the last `capacity` of those frames in memory — the
/// 3.2x compact v6 encoding makes retention cheap — and serves
/// time-interval queries by decoding the frames that tile the requested
/// interval, merging them with the same merge_from() semantics the
/// multi-vantage collector uses, and extracting once from the merged
/// state.
///
/// Frame selection is greedy non-overlapping: of the retained frames
/// fully inside [t1, t2], earliest-ending first, a frame is taken iff it
/// starts at or after the previously taken frame's end. Disjoint-policy
/// frames therefore all merge (the merged state is exactly the
/// interval's traffic); sliding-policy frames tile at window granularity
/// (every (W/step)-th step frame), and because a sliding detector's
/// state is bounded by its window, the merged state keeps at most one
/// window of per-frame history — older covered windows contribute the
/// mass that survives absolute-frame alignment. query_interval is
/// byte-deterministic: the same retained frames and interval always
/// produce the same HHH set as an offline merge of those frames
/// (pipeline_frame_ring_test pins this).
///
/// Layering: sits above wire/ and core/ (it decodes frames itself with
/// wire::load_engine — Memento detectors are engines too) and beside the
/// sinks; service/ is not involved.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "pipeline/sink.hpp"
#include "util/sim_time.hpp"

namespace hhh::pipeline {

/// One retained window close: its span plus the stage's snapshot frame.
struct RetainedFrame {
  std::size_t index = 0;            ///< window/report ordinal
  TimePoint start;                  ///< window start (inclusive)
  TimePoint end;                    ///< window end (exclusive)
  std::vector<std::uint8_t> frame;  ///< the snapshot frame bytes
};

/// The result of one interval query.
struct IntervalReport {
  HhhSet hhhs;                     ///< HHHs extracted from the merged state
  std::size_t frames_merged = 0;   ///< retained frames that entered the merge
  TimePoint covered_start;         ///< start of the earliest merged frame
  TimePoint covered_end;           ///< end of the latest merged frame
  std::string group;               ///< compatibility key ("engine:<name>" peer)
};

/// Bounded ring of retained snapshot frames with interval queries.
class FrameRing {
 public:
  /// Ring retaining at most `capacity` frames (oldest evicted first);
  /// throws std::invalid_argument on capacity 0.
  explicit FrameRing(std::size_t capacity);

  /// Retain one window close. `frame` is copied; the oldest retained
  /// frame is evicted once the ring is full. Windows must arrive in
  /// report order (ascending end).
  void push(const WindowReport& report, std::span<const std::uint8_t> frame);

  /// The retained frames that would serve a [t1, t2] query: fully inside
  /// the interval, greedy non-overlapping (see file header), oldest
  /// first. Exposed so callers/tests can run the identical offline merge
  /// themselves. Pointers are invalidated by the next push().
  std::vector<const RetainedFrame*> frames_in(TimePoint t1, TimePoint t2) const;

  /// Top HHHs between t1 and t2 at relative threshold `phi`: decode the
  /// frames_in() selection, merge per the frames' own merge semantics,
  /// extract once. All selected frames must decode into one
  /// compatibility group (one stage feeds one ring); throws
  /// std::invalid_argument on mixed kinds and wire::WireFormatError on
  /// malformed frames or frames that hold no engine. An empty selection
  /// yields an empty report.
  IntervalReport query_interval(TimePoint t1, TimePoint t2, double phi) const;

  /// Retained frame count (<= capacity).
  std::size_t size() const noexcept { return frames_.size(); }
  /// Maximum retained frames.
  std::size_t capacity() const noexcept { return capacity_; }
  /// All retained frames, oldest first.
  const std::vector<RetainedFrame>& frames() const noexcept { return frames_; }
  /// Heap footprint of the retained frame bytes (bounded by capacity x
  /// per-frame snapshot size, not by stream length).
  std::size_t memory_bytes() const noexcept;

 private:
  std::size_t capacity_;
  std::vector<RetainedFrame> frames_;  // oldest first
};

/// Sink feeding a FrameRing: retains every closed window's snapshot
/// frame. `ring` is borrowed and must outlive the pipeline run. Requires
/// a serializable stage.
std::unique_ptr<ReportSink> make_frame_ring_sink(FrameRing* ring);

}  // namespace hhh::pipeline
