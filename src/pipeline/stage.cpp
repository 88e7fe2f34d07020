#include "pipeline/stage.hpp"

#include <stdexcept>
#include <utility>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "wire/snapshot.hpp"

namespace hhh::pipeline {

std::vector<std::uint8_t> MeasurementStage::snapshot() const {
  throw std::logic_error("MeasurementStage: " + name() + " is not serializable");
}

namespace {

class EngineStage final : public MeasurementStage {
 public:
  explicit EngineStage(std::unique_ptr<HhhEngine> engine) : engine_(std::move(engine)) {
    if (!engine_) throw std::invalid_argument("EngineStage: null engine");
  }

  void ingest(std::span<const PacketRecord> run) override {
    folded_.reset();
    engine_->add_batch(run);
  }

  HhhSet report(const WindowEvent&, double phi) override {
    // For a sharded front-end, fold once per boundary and serve both the
    // report and any snapshot from the folded engine — extract() and
    // snapshot() would otherwise each quiesce and merge all replicas.
    if (const auto* sharded = dynamic_cast<const ShardedHhhEngine*>(engine_.get())) {
      folded_ = sharded->fold();
      return folded_->extract(phi);
    }
    return engine_->extract(phi);
  }

  void reset_state() override {
    folded_.reset();
    engine_->reset();
  }

  bool serializable() const override { return engine_->serializable(); }

  std::vector<std::uint8_t> snapshot() const override {
    // A sharded front-end snapshots as its folded single-engine
    // equivalent: a kShardedEngine frame restores only in place (the
    // factory cannot travel), so shipping one to a collector would be
    // undecodable — the folded frame carries the inner engine's mergeable
    // kind. The fold is cached from report() when this window close
    // already produced one.
    if (const auto* sharded = dynamic_cast<const ShardedHhhEngine*>(engine_.get())) {
      return wire::save_engine(folded_ ? *folded_ : *sharded->fold());
    }
    return wire::save_engine(*engine_);
  }

  std::uint64_t total_bytes() const override { return engine_->total_bytes(); }
  std::size_t memory_bytes() const override { return engine_->memory_bytes(); }
  std::string name() const override { return "engine:" + engine_->name(); }

 private:
  std::unique_ptr<HhhEngine> engine_;
  // The replicas folded at the current window close (sharded engines
  // only); invalidated by ingest/reset.
  mutable std::unique_ptr<HhhEngine> folded_;
};

class SlidingExactStage final : public MeasurementStage {
 public:
  explicit SlidingExactStage(const SlidingWindowHhhDetector::Params& params)
      : params_(params), detector_(params) {}

  void ingest(std::span<const PacketRecord> run) override {
    detector_.offer_batch(run);
  }

  HhhSet report(const WindowEvent& event, double phi) override {
    // The detector computes at its construction-time Params::phi; a
    // pipeline configured with a different phi (or with the absolute
    // threshold_bytes mode, which derives a per-window phi) would be
    // silently ignored — reject instead.
    if (phi != params_.phi) {
      throw std::logic_error(
          "SlidingExactStage reports at its construction phi: set "
          "PipelineConfig::phi to the same value and do not use "
          "threshold_bytes with this stage");
    }
    // Close every step up to the event boundary, then hand back the
    // detector's own report for this step — the stage never recomputes,
    // so pipeline reports are byte-identical to the detector's. Handed-out
    // reports are discarded so a long-running pipeline stays bounded.
    detector_.finish(event.end);
    for (auto it = detector_.reports().rbegin(); it != detector_.reports().rend(); ++it) {
      if (it->index == event.index) {
        HhhSet result = it->hhhs;
        last_total_bytes_ = result.total_bytes;
        detector_.discard_reports();
        return result;
      }
    }
    throw std::logic_error(
        "SlidingExactStage: policy schedule does not match the detector's "
        "(window/step/full_windows_only must agree)");
  }

  std::uint64_t total_bytes() const override { return last_total_bytes_; }
  std::size_t memory_bytes() const override { return detector_.memory_bytes(); }
  std::string name() const override { return "sliding_exact"; }

 private:
  SlidingWindowHhhDetector::Params params_;
  SlidingWindowHhhDetector detector_;
  std::uint64_t last_total_bytes_ = 0;  // of the most recent report
};

class MementoStage final : public MeasurementStage {
 public:
  explicit MementoStage(std::unique_ptr<MementoDetector> detector)
      : detector_(std::move(detector)) {
    if (!detector_) throw std::invalid_argument("MementoStage: null detector");
  }

  void ingest(std::span<const PacketRecord> run) override {
    detector_->add_batch(run);
  }

  // Reports at the event's end, not at the high watermark: a step whose
  // tail carried no traffic still slides the window up to its boundary.
  HhhSet report(const WindowEvent& event, double phi) override {
    return detector_->query(event.end, phi);
  }

  bool serializable() const override { return true; }

  std::vector<std::uint8_t> snapshot() const override {
    return wire::save_engine(*detector_);
  }

  std::uint64_t total_bytes() const override { return detector_->total_bytes(); }
  std::size_t memory_bytes() const override { return detector_->memory_bytes(); }
  std::string name() const override { return detector_->name(); }

 private:
  std::unique_ptr<MementoDetector> detector_;
};

class TdbfStage final : public MeasurementStage {
 public:
  explicit TdbfStage(const TimeDecayingHhhDetector::Params& params) : detector_(params) {}

  void ingest(std::span<const PacketRecord> run) override {
    for (const auto& p : run) {
      detector_.offer(p);
      last_ts_ = p.ts;
    }
  }

  HhhSet report(const WindowEvent& event, double phi) override {
    return detector_.query(event.end, phi);
  }

  std::uint64_t total_bytes() const override {
    return static_cast<std::uint64_t>(detector_.decayed_total(last_ts_));
  }
  std::size_t memory_bytes() const override { return detector_.memory_bytes(); }
  std::string name() const override { return "tdbf"; }

 private:
  TimeDecayingHhhDetector detector_;
  TimePoint last_ts_;
};

}  // namespace

std::unique_ptr<MeasurementStage> make_engine_stage(std::unique_ptr<HhhEngine> engine) {
  return std::make_unique<EngineStage>(std::move(engine));
}

std::unique_ptr<MeasurementStage> make_sliding_exact_stage(
    const SlidingWindowHhhDetector::Params& params) {
  return std::make_unique<SlidingExactStage>(params);
}

std::unique_ptr<MeasurementStage> make_memento_stage(
    std::unique_ptr<MementoDetector> detector) {
  return std::make_unique<MementoStage>(std::move(detector));
}

std::unique_ptr<MeasurementStage> make_tdbf_stage(
    const TimeDecayingHhhDetector::Params& params) {
  return std::make_unique<TdbfStage>(params);
}

}  // namespace hhh::pipeline
