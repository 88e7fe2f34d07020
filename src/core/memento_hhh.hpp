/// \file
/// Sliding-window HHH at production cost: per-level Memento summaries
/// plus RHHH-style level sampling (the paper's ref-[1] line of work,
/// continued by Memento/H-Memento — arXiv 1810.02899).
///
/// This detector lifts sketch/memento.hpp to HHHs exactly the way RHHH
/// lifts Space-Saving (core/rhhh.hpp): one windowed summary per hierarchy
/// level, ONE level sampled uniformly per packet (O(1) per packet
/// regardless of hierarchy depth — H-Memento's data-plane trick), level
/// estimates scaled by H at query time, and bottom-up conditioned-count
/// extraction across levels. Window totals stay exact: every packet lands
/// in a per-frame byte-total ring regardless of which level its update
/// sampled, so phi-relative thresholds are computed against the true
/// trailing volume.
///
/// Against the per-level windowed Space-Saving design (WCSS, ref [1])
/// this keeps the same sharp window semantics and epsilon class while
/// replacing O(H) per-packet updates with per-update frame-ring scans by
/// one sampled amortized-O(1) update, and it is family-generic:
/// `MementoHhhDetector` (v4) and `MementoHhhV6Detector` (v6) instantiate
/// one template. The `sliding` section of bench/throughput measures it
/// against the exact rolling detector.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "net/hierarchy.hpp"
#include "net/packet.hpp"
#include "sketch/memento.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// Construction-time configuration shared by both family instantiations.
struct MementoHhhParams {
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
  Duration window = Duration::seconds(10);  ///< trailing window length W
  std::size_t frames = 10;                  ///< sub-frames per window
  std::size_t counters_per_level = 512;     ///< summary capacity per level
  std::uint64_t seed = 0x3E3E'0001;         ///< level-sampler RNG seed
};

/// Family-erased interface of the Memento sliding-window detectors. A
/// Memento detector is one more HhhEngine — mergeable and serializable —
/// so the merge ledger, the frame ring and the wire codecs decode, merge
/// and extract it on the same path as every engine snapshot. Its
/// extract(phi) answers for the trailing window at its newest frame:
/// query(high_watermark(), phi). What stays on this interface is the
/// sliding-only surface: a query at an arbitrary instant (the pipeline
/// stage reports at each window event's end) and the watermark itself.
///
/// add()/add_batch() require non-decreasing timestamps. merge_from()
/// folds per-level summaries and window totals (error bounds sum per
/// level as for RHHH merges) and throws std::invalid_argument on a
/// family or Params mismatch; save_state() writes params, sampler RNG
/// state, total ring and every level's window state (kMementoDetector
/// frames). memory_bytes() is bounded by Params, independent of traffic
/// volume; name() is "memento" (IPv4) or "memento_v6" (IPv6).
class MementoDetector : public HhhEngine {
 public:
  /// HHHs of the trailing window as of `now`, at relative threshold `phi`
  /// (T = phi * exact window volume), computable at any instant. Const:
  /// it advances only the lazy expiry cursors, not accounted state.
  virtual HhhSet query(TimePoint now, double phi) const = 0;

  /// Exact total bytes within the trailing window as of `now`
  /// (conservatively including the partially expired oldest frame).
  virtual double window_total(TimePoint now) const = 0;

  /// Start of the newest frame observed; TimePoint() before any traffic.
  /// The query instant of extract() — and the natural one for a restored
  /// or merged detector, since merge_from() keeps the newer frame.
  virtual TimePoint high_watermark() const noexcept = 0;

  /// The construction parameters (merge compatibility checks).
  virtual const MementoHhhParams& params() const noexcept = 0;

  /// The trailing window at the newest frame: query(high_watermark(), phi).
  HhhSet extract(double phi) const final { return query(high_watermark(), phi); }

  /// Bytes of the trailing window at the newest frame.
  std::uint64_t total_bytes() const final {
    return static_cast<std::uint64_t>(window_total(high_watermark()));
  }

  bool mergeable() const final { return true; }
  bool serializable() const final { return true; }
};

/// The concrete per-family detector (see file header).
template <typename D>
class BasicMementoHhhDetector final : public MementoDetector {
 public:
  /// Construction-time configuration (shared across families).
  using Params = MementoHhhParams;

  /// Detector with one BasicMementoSummary per hierarchy level. The
  /// hierarchy family must match the domain's; throws
  /// std::invalid_argument otherwise.
  explicit BasicMementoHhhDetector(const Params& params);

  /// Account one packet, sampling one hierarchy level. Packets of the
  /// other family are ignored.
  void add(const PacketRecord& packet) override;
  /// Amortized level draws (two Lemire-reduced draws per RNG step, as in
  /// RHHH's add_batch); same level distribution and window totals as the
  /// add() loop.
  void add_batch(std::span<const PacketRecord> packets) override;
  /// Drop every window; the sampler keeps its stream (as RhhhEngine's).
  void reset() override;
  HhhSet query(TimePoint now, double phi) const override;
  double window_total(TimePoint now) const override;
  void merge_from(const HhhEngine& other) override;
  TimePoint high_watermark() const noexcept override;
  void save_state(wire::Writer& w) const override;
  void load_state(wire::Reader& r) override;
  std::size_t memory_bytes() const noexcept override;
  std::string name() const override;
  const MementoHhhParams& params() const noexcept override { return params_; }

 private:
  friend std::unique_ptr<MementoDetector> deserialize_memento_detector(wire::Reader& r);

  void clear_windows();
  void note_packet(TimePoint ts, double bytes) const noexcept;
  std::int64_t frame_of(TimePoint t) const noexcept { return t.ns() / frame_len_.ns(); }
  void read_state(wire::Reader& r);

  Params params_;
  Rng rng_;
  Duration frame_len_;
  // mutable: query()/window_total() advance the summaries' lazy expiry
  // cursors and the total ring's frame cursor (logically const — they
  // change no accounted bytes).
  mutable std::vector<BasicMementoSummary<D>> levels_;
  // Exact per-frame byte totals (every packet, independent of the sampled
  // level): the threshold denominator is not subject to sampling noise.
  mutable std::int64_t current_frame_ = -1;
  mutable std::vector<std::int64_t> total_frame_ids_;
  mutable std::vector<double> total_frame_bytes_;
};

/// The IPv4 detector (name "memento").
using MementoHhhDetector = BasicMementoHhhDetector<V4Domain>;
/// The IPv6 detector (name "memento_v6").
using MementoHhhV6Detector = BasicMementoHhhDetector<V6Domain>;

extern template class BasicMementoHhhDetector<V4Domain>;
extern template class BasicMementoHhhDetector<V6Domain>;

/// Construct a detector directly from a save_state() payload: reads the
/// params header and picks the family instantiation — the collector's and
/// frame ring's entry point for kMementoDetector snapshots.
std::unique_ptr<MementoDetector> deserialize_memento_detector(wire::Reader& r);

}  // namespace hhh
