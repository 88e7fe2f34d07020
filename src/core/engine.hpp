/// \file
/// HhhEngine — the pluggable per-window HHH computation.
///
/// The disjoint-window driver (Fig. 1a) is agnostic to *how* HHHs are
/// computed inside a window: exactly (ground truth), or with a streaming
/// sketch (RHHH, full-ancestry) as a programmable data plane would. This
/// interface decouples the window model from the engine so the §3 benches
/// can swap engines while keeping the windowing identical.
///
/// Engines are reset at window boundaries by the driver — exactly the
/// "reset the data structure at the end of each time window" practice the
/// paper examines.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/hhh_types.hpp"
#include "net/packet.hpp"
#include "wire/fwd.hpp"

/// \namespace hhh
/// \brief Hierarchical heavy-hitter measurement library: engines, window
/// models, sketches, trace generation and the paper's analyses.
namespace hhh {

/// The pluggable per-window HHH computation behind every window model.
///
/// Implementations range from the exact ground truth (ExactEngine) to the
/// streaming sketches a programmable data plane would run (RhhhEngine,
/// AncestryHhhEngine, UnivmonHhhEngine), the sharded parallel front-end
/// (ShardedHhhEngine) and the sliding-window Memento detectors
/// (MementoDetector), whose state expires by time instead of by reset.
/// The disjoint-window driver resets the engine at every window boundary
/// and extracts at window close; engines are driven by exactly one caller
/// thread at a time.
class HhhEngine {
 public:
  /// Engines are owned polymorphically by the window drivers.
  virtual ~HhhEngine() = default;

  /// Account one packet (source + IP bytes). Packets whose address
  /// family differs from the engine's hierarchy are ignored — neither
  /// counted in total_bytes() nor fed to the summaries — so a dual-stack
  /// pipeline can fan one mixed stream to one engine per family (or
  /// route packets itself, which is cheaper).
  virtual void add(const PacketRecord& packet) = 0;

  /// Account a batch of packets. Observationally equivalent to calling
  /// add() once per record in order — total_bytes() and extract() must
  /// agree with the loop (randomized engines may consume their RNG
  /// differently, but the sampling distribution must match). Engines
  /// override this when batching admits a cheaper implementation
  /// (amortized sampling, deferred propagation, level-major passes).
  virtual void add_batch(std::span<const PacketRecord> packets) {
    for (const auto& p : packets) add(p);
  }

  /// HHHs of the traffic added since the last reset, at relative
  /// threshold `phi` (T = ceil(phi * total)). For a sliding engine the
  /// traffic is the trailing window at its newest frame.
  virtual HhhSet extract(double phi) const = 0;

  /// Forget everything (window boundary).
  virtual void reset() = 0;

  /// Bytes accounted since the last reset (exact in every engine); for a
  /// sliding engine, the trailing window's bytes at its newest frame.
  virtual std::uint64_t total_bytes() const = 0;

  /// Resident memory footprint of the engine's state, in bytes.
  virtual std::size_t memory_bytes() const = 0;

  /// Stable engine identifier ("exact", "rhhh", ...) used in bench output.
  virtual std::string name() const = 0;

  /// True when merge_from() is supported by this engine type. Mergeable
  /// engines are the building block of sharded ingestion: N replicas each
  /// ingest a hash-partition of the stream and are folded together at
  /// extraction time.
  virtual bool mergeable() const { return false; }

  /// Fold another engine's accumulated state into this one, as if this
  /// engine had also ingested every packet `other` ingested.
  ///
  /// Error-bound semantics per engine:
  ///  * exact — lossless: merge(A, B) followed by extract() is
  ///    byte-identical to one engine ingesting A's and B's streams;
  ///  * rhhh / hss — per-level Space-Saving summaries are merged with the
  ///    mergeable-summaries bound (Agarwal et al., PODS'12): a summary of
  ///    capacity k over weight N overestimates by at most N/k, and merging
  ///    sums the bounds, so the merged overestimate is at most
  ///    (N_self + N_other)/k per level (scaled by H in sampled mode);
  ///  * memento — per-level sliding summaries and window totals merge by
  ///    absolute frame; the newer frame becomes the merged watermark;
  ///  * engines without merge support (ancestry, univmon, tdbf) throw
  ///    std::logic_error — the default implementation.
  ///
  /// Throws std::invalid_argument when `other` is an incompatible
  /// configuration (different hierarchy, different mode).
  virtual void merge_from(const HhhEngine& other);

  /// True when save_state()/load_state() are implemented. Serializable
  /// engines can be snapshotted to the versioned wire format
  /// (wire/snapshot.hpp) and shipped across process/machine boundaries —
  /// the substrate of the multi-vantage collector and of checkpoint/
  /// restore in long-running monitors.
  virtual bool serializable() const { return false; }

  /// Write the engine's construction parameters followed by its full
  /// state to the wire. The contract every implementation must keep:
  /// `load_state(save_state(e))` into an identically-configured engine
  /// yields a byte-identical extract() — and, because RNG state travels
  /// too, identical behaviour on any subsequently ingested stream.
  ///
  /// The default implementation throws std::logic_error (not
  /// serializable).
  virtual void save_state(wire::Writer& w) const;

  /// Restore state written by save_state(). The receiving engine must be
  /// constructed with the same parameters; a mismatch throws
  /// wire::WireFormatError with code kParamsMismatch, corrupt input
  /// throws kTruncated/kBadValue — never UB. The default implementation
  /// throws std::logic_error.
  virtual void load_state(wire::Reader& r);
};

/// The exact engine: LevelAggregates + extract_hhh.
std::unique_ptr<HhhEngine> make_exact_engine(const Hierarchy& hierarchy);

}  // namespace hhh
