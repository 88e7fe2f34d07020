/// \file
/// MeasurementStage — the pipeline's view of "the thing that measures".
///
/// A stage ingests timestamp-ordered same-window runs of packets and
/// answers the window policy's report events. The split of
/// responsibilities with WindowPolicy is exact:
///
///  * the policy decides *when* a report is due and whether closing it
///    resets the state (disjoint) or not (sliding/decaying);
///  * the stage decides *how* the report is computed: extract() on a
///    resettable HhhEngine, a trailing-window query on a Memento
///    detector, a continuous-time query on decaying TDBF state, or the
///    exact rolling sliding-window computation.
///
/// Stage + policy pairings mirror the paper's models: engine x disjoint
/// (Fig. 1a), memento/sliding-exact x sliding (Fig. 1b), tdbf x query
/// cadence (§3's windowless monitor).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "core/memento_hhh.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "net/packet.hpp"
#include "pipeline/window_policy.hpp"

namespace hhh {
class HhhEngine;
}  // namespace hhh

namespace hhh::pipeline {

/// The measurement end of a pipeline: ingests packets, answers report
/// events, optionally snapshots its state to the wire.
class MeasurementStage {
 public:
  /// Stages are owned polymorphically by the pipeline.
  virtual ~MeasurementStage() = default;

  /// Account a timestamp-ordered run of packets that all belong to the
  /// currently open window (the pipeline splits batches at boundaries).
  virtual void ingest(std::span<const PacketRecord> run) = 0;

  /// The HHH report for `event` at relative threshold `phi`. Must not
  /// destroy state — the pipeline snapshots (if requested) and then
  /// resets (if the policy says so) after this call.
  virtual HhhSet report(const WindowEvent& event, double phi) = 0;

  /// Forget everything (called at window close iff the policy resets).
  /// Stages whose state expires by time make this a no-op.
  virtual void reset_state() {}

  /// True when snapshot() works.
  virtual bool serializable() const { return false; }

  /// The stage's full state as one self-delimiting snapshot frame
  /// (wire/snapshot.hpp) — what a vantage ships to hhh-collector at each
  /// window close. Throws std::logic_error when not serializable.
  virtual std::vector<std::uint8_t> snapshot() const;

  /// Bytes accounted in the currently open scope (exact for engine
  /// stages; estimates for sketch-backed ones). Drives absolute-threshold
  /// mode (phi = T / total).
  virtual std::uint64_t total_bytes() const = 0;

  /// Resident footprint of the measurement state.
  virtual std::size_t memory_bytes() const = 0;

  /// Stable stage identifier ("engine:exact", "memento", ...).
  virtual std::string name() const = 0;
};

/// Wrap an HhhEngine (exact, rhhh, ancestry, univmon, sharded, ...) as a
/// stage: report = extract(phi), reset_state = engine reset, snapshot =
/// wire::save_engine. Pair with the disjoint policy.
std::unique_ptr<MeasurementStage> make_engine_stage(std::unique_ptr<HhhEngine> engine);

/// Exact sliding-window stage over SlidingWindowHhhDetector. The policy's
/// sliding schedule must match the detector's (same window/step/
/// full_windows_only) — make_sliding_policy(params.window, params.step,
/// params.full_windows_only) — because the stage pulls the detector's own
/// step reports. Reports are computed at params.phi: PipelineConfig::phi
/// must equal it and the absolute threshold_bytes mode is rejected
/// (std::logic_error). Not serializable.
std::unique_ptr<MeasurementStage> make_sliding_exact_stage(
    const SlidingWindowHhhDetector::Params& params);

/// Memento sliding-window stage: report = query(event.end, phi) over the
/// trailing window; never resets; snapshots as a kMementoDetector frame
/// (wire::save_engine).
/// Takes the detector itself (v4 MementoHhhDetector or v6
/// MementoHhhV6Detector) the way make_engine_stage takes an engine. Pair
/// with the sliding policy (step <= window; step should divide the
/// detector's frame length W/frames so report boundaries align with frame
/// boundaries). Ingests through add_batch — one virtual call per run.
std::unique_ptr<MeasurementStage> make_memento_stage(
    std::unique_ptr<MementoDetector> detector);

/// Windowless TDBF stage: report = continuous-time query at event.end;
/// never resets (state decays). Pair with the query-cadence policy.
std::unique_ptr<MeasurementStage> make_tdbf_stage(
    const TimeDecayingHhhDetector::Params& params);

}  // namespace hhh::pipeline
