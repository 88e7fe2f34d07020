#include "service/merge.hpp"

#include <algorithm>
#include <utility>

#include "wire/codec.hpp"
#include "wire/wire.hpp"

namespace hhh::service {

double Thresholds::scope_phi(double scope_total) const {
  if (threshold_bytes <= 0.0) return phi;
  if (scope_total <= 0.0) return 1.0;
  return std::min(1.0, threshold_bytes / scope_total);
}

Scope decode_scope(const wire::FrameView& frame, std::string label) {
  return Scope{.label = std::move(label), .engine = wire::load_engine(frame)};
}

MergeLedger::MergeLedger(Thresholds thresholds) : thresholds_(thresholds) {}

MergeLedger::Group* MergeLedger::find_group(const std::string& key) {
  for (Group& g : groups_) {
    if (g.key == key) return &g;
  }
  return nullptr;
}

HhhSet MergeLedger::fold(Scope scope) {
  // Extract the scope's local view BEFORE merging: what this single
  // vantage would report on its own is what defines "seen locally".
  const HhhSet local = scope.engine->extract(
      thresholds_.scope_phi(static_cast<double>(scope.engine->total_bytes())));
  seen_locally_.add(local.prefixes());

  std::string key = scope.engine->name();
  if (Group* group = find_group(key)) {
    group->engine->merge_from(*scope.engine);
  } else {
    groups_.push_back(Group{.key = std::move(key), .engine = std::move(scope.engine)});
  }
  ++scopes_folded_;
  return local;
}

void MergeLedger::absorb(MergeLedger&& other) {
  for (Group& incoming : other.groups_) {
    if (Group* group = find_group(incoming.key)) {
      group->engine->merge_from(*incoming.engine);
    } else {
      groups_.push_back(std::move(incoming));
    }
  }
  seen_locally_.add(other.seen_locally_.values());
  scopes_folded_ += other.scopes_folded_;
  other.groups_.clear();
  other.scopes_folded_ = 0;
}

LedgerReport MergeLedger::report() const {
  LedgerReport out;
  out.scopes_folded = scopes_folded_;
  PrefixUnion hidden;
  for (const Group& g : groups_) {
    GroupReport group;
    group.key = g.key;
    group.merged = g.engine->extract(
        thresholds_.scope_phi(static_cast<double>(g.engine->total_bytes())));
    // The reveal: heavy in the merged view, reported by no single scope.
    hidden.add(prefix_difference(group.merged.prefixes(), seen_locally_.values()));
    out.groups.push_back(std::move(group));
  }
  out.hidden = hidden.values();
  return out;
}

std::vector<std::vector<std::uint8_t>> MergeLedger::save_group_frames() const {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(groups_.size());
  for (const Group& g : groups_) frames.push_back(wire::save_engine(*g.engine));
  return frames;
}

void MergeLedger::save_state(wire::Writer& w) const {
  const auto frames = save_group_frames();
  w.u64(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    w.str(groups_[i].key);
    // Reserved slot, written as zero: it held the sliding query instant,
    // which the group's own frame now carries (high_watermark()).
    wire::write_timepoint(w, TimePoint());
    w.u64(frames[i].size());
    w.raw(frames[i].data(), frames[i].size());
  }
  const auto& seen = seen_locally_.values();
  w.u64(seen.size());
  for (const PrefixKey& p : seen) wire::write_prefix(w, p);
  w.u64(scopes_folded_);
}

void MergeLedger::load_state(wire::Reader& r) {
  wire::check(groups_.empty() && scopes_folded_ == 0, wire::WireError::kBadValue,
              "ledger state restores only into an empty ledger");
  const std::uint64_t n_groups = r.count(1);
  for (std::uint64_t i = 0; i < n_groups; ++i) {
    const std::string key = r.str();
    wire::read_timepoint(r);  // reserved slot (see save_state)
    const std::uint64_t len = r.count(1);
    const std::span<const std::uint8_t> rest = r.peek_rest();
    wire::check(len <= rest.size(), wire::WireError::kTruncated,
                "ledger group frame exceeds available bytes");
    groups_.push_back(Group{.key = key, .engine = wire::load_engine(rest.subspan(0, len))});
    r.skip(len);
  }
  const std::uint64_t n_seen = r.count(1);
  for (std::uint64_t i = 0; i < n_seen; ++i) seen_locally_.add(wire::read_prefix(r));
  scopes_folded_ = r.u64();
}

}  // namespace hhh::service
