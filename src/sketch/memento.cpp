#include "sketch/memento.hpp"

#include <algorithm>
#include <stdexcept>

#include "wire/wire.hpp"

namespace hhh {

template <typename D>
BasicMementoSummary<D>::BasicMementoSummary(const Params& params)
    : params_(params), index_(params.counters * 2) {
  if (params.frames == 0) throw std::invalid_argument("MementoSummary: frames >= 1");
  if (params.counters == 0) throw std::invalid_argument("MementoSummary: counters >= 1");
  if (params.window.ns() <= 0) throw std::invalid_argument("MementoSummary: bad window");
  frame_len_ = params.window / static_cast<std::int64_t>(params.frames);
  if (frame_len_.ns() <= 0) {
    throw std::invalid_argument("MementoSummary: window shorter than frame count");
  }
  ring_cap_ = static_cast<std::uint32_t>(params.frames + 1);
  frame_ids_.assign(ring_cap_, -1);
  frame_totals_.assign(ring_cap_, 0.0);
  slots_.reserve(params.counters);
  heap_.reserve(params.counters);
  deltas_.assign(params.counters * ring_cap_, FrameDelta{});
}

template <typename D>
std::int64_t BasicMementoSummary<D>::frame_index(TimePoint t) const noexcept {
  return t.ns() / frame_len_.ns();
}

template <typename D>
std::int64_t BasicMementoSummary<D>::oldest_live() const noexcept {
  // Frame (current - frames) is only partially expired and stays live for
  // the conservative overestimate, exactly like a WCSS frame ring.
  return current_frame_ - static_cast<std::int64_t>(params_.frames);
}

template <typename D>
auto BasicMementoSummary<D>::ring_at(std::uint32_t slot_idx, std::uint32_t i) noexcept
    -> FrameDelta& {
  const Slot& s = slots_[slot_idx];
  return deltas_[slot_idx * ring_cap_ + (s.head + i) % ring_cap_];
}

template <typename D>
auto BasicMementoSummary<D>::ring_at(std::uint32_t slot_idx, std::uint32_t i) const noexcept
    -> const FrameDelta& {
  const Slot& s = slots_[slot_idx];
  return deltas_[slot_idx * ring_cap_ + (s.head + i) % ring_cap_];
}

template <typename D>
void BasicMementoSummary<D>::advance_to(TimePoint now) noexcept {
  const std::int64_t f = frame_index(now);
  if (f <= current_frame_) return;
  // Open every frame slot the clock jumped across (at most ring_cap_ —
  // frames further back are outside the window already). Slots whose id
  // stays older than the window are filtered by the >= oldest_live()
  // checks; nothing is scanned per update.
  const std::int64_t lo =
      std::max(current_frame_ + 1, f - static_cast<std::int64_t>(params_.frames));
  for (std::int64_t fr = lo; fr <= f; ++fr) {
    const auto idx = static_cast<std::size_t>(fr % ring_cap_);
    frame_ids_[idx] = fr;
    frame_totals_[idx] = 0.0;
  }
  current_frame_ = f;
}

template <typename D>
void BasicMementoSummary<D>::expire(std::uint32_t slot_idx) noexcept {
  Slot& s = slots_[slot_idx];
  const std::int64_t oldest = oldest_live();
  while (s.len > 0) {
    const FrameDelta& head = deltas_[slot_idx * ring_cap_ + s.head];
    if (head.frame >= oldest) break;
    s.win_count -= head.delta;
    s.head = (s.head + 1) % ring_cap_;
    --s.len;
  }
  if (s.len == 0) s.win_count = 0.0;  // clamp accumulated float residue
}

template <typename D>
void BasicMementoSummary<D>::push_delta(std::uint32_t slot_idx, std::int64_t frame,
                                        double weight) noexcept {
  expire(slot_idx);
  Slot& s = slots_[slot_idx];
  if (s.len > 0) {
    FrameDelta& newest = ring_at(slot_idx, s.len - 1);
    if (newest.frame == frame) {
      newest.delta += weight;
      s.win_count += weight;
      return;
    }
  }
  // After expiry the live frames span at most ring_cap_ distinct values,
  // so a fresh frame always fits.
  FrameDelta& e = ring_at(slot_idx, s.len);
  e.frame = frame;
  e.delta = weight;
  ++s.len;
  s.win_count += weight;
}

template <typename D>
void BasicMementoSummary<D>::heap_swap(std::size_t a, std::size_t b) noexcept {
  std::swap(heap_[a], heap_[b]);
  slots_[heap_[a]].heap_pos = static_cast<std::uint32_t>(a);
  slots_[heap_[b]].heap_pos = static_cast<std::uint32_t>(b);
}

template <typename D>
void BasicMementoSummary<D>::sift_down(std::size_t pos) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t l = 2 * pos + 1;
    const std::size_t r = l + 1;
    std::size_t smallest = pos;
    if (l < n && slots_[heap_[l]].win_count < slots_[heap_[smallest]].win_count) {
      smallest = l;
    }
    if (r < n && slots_[heap_[r]].win_count < slots_[heap_[smallest]].win_count) {
      smallest = r;
    }
    if (smallest == pos) return;
    heap_swap(pos, smallest);
    pos = smallest;
  }
}

template <typename D>
void BasicMementoSummary<D>::sift_up(std::size_t pos) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (slots_[heap_[parent]].win_count <= slots_[heap_[pos]].win_count) return;
    heap_swap(pos, parent);
    pos = parent;
  }
}

template <typename D>
void BasicMementoSummary<D>::rebuild_heap() noexcept {
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

template <typename D>
void BasicMementoSummary<D>::settle_heap_top() noexcept {
  // Pop the heap top's expired entries until its count is current; each
  // productive iteration retires ring entries that were pushed exactly
  // once, so the loop is amortized into the updates that fed them.
  while (true) {
    const std::uint32_t top = heap_[0];
    const double before = slots_[top].win_count;
    expire(top);
    if (slots_[top].win_count == before) return;
    sift_down(0);
  }
}

template <typename D>
void BasicMementoSummary<D>::update(const Key& key, double weight, TimePoint now) {
  advance_to(now);
  frame_totals_[static_cast<std::size_t>(current_frame_ % ring_cap_)] += weight;

  if (const auto* slot_idx = index_.find(key)) {
    const std::uint32_t idx = *slot_idx;
    push_delta(idx, current_frame_, weight);
    // Expiry may have shrunk the count before the add grew it: repair in
    // whichever direction the net change went.
    sift_down(slots_[idx].heap_pos);
    sift_up(slots_[idx].heap_pos);
    return;
  }

  if (slots_.size() < params_.counters) {
    const auto idx = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{key, 0.0, 0, 0, static_cast<std::uint32_t>(heap_.size())});
    heap_.push_back(idx);
    push_delta(idx, current_frame_, weight);
    sift_up(slots_[idx].heap_pos);
    *index_.try_emplace(key).first = idx;
    return;
  }

  // Evict the settled minimum; the newcomer inherits the victim's live
  // ring — window-tagged error that expires as the window slides.
  settle_heap_top();
  const std::uint32_t victim_idx = heap_[0];
  index_.erase(slots_[victim_idx].key);
  slots_[victim_idx].key = key;
  push_delta(victim_idx, current_frame_, weight);
  *index_.try_emplace(key).first = victim_idx;
  sift_down(0);
}

template <typename D>
double BasicMementoSummary<D>::estimate(const Key& key, TimePoint now) {
  advance_to(now);
  const auto* slot_idx = index_.find(key);
  if (slot_idx == nullptr) return 0.0;
  expire(*slot_idx);
  sift_up(slots_[*slot_idx].heap_pos);  // count only shrank
  return slots_[*slot_idx].win_count;
}

template <typename D>
double BasicMementoSummary<D>::window_total(TimePoint now) {
  advance_to(now);
  const std::int64_t oldest = oldest_live();
  double sum = 0.0;
  for (std::size_t i = 0; i < frame_ids_.size(); ++i) {
    if (frame_ids_[i] >= 0 && frame_ids_[i] >= oldest) sum += frame_totals_[i];
  }
  return sum;
}

template <typename D>
auto BasicMementoSummary<D>::candidates_at_least(double threshold, TimePoint now)
    -> std::vector<Candidate> {
  advance_to(now);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) expire(i);
  rebuild_heap();  // wholesale repair after the bulk expiry
  std::vector<Candidate> out;
  for (const Slot& s : slots_) {
    if (s.len > 0 && s.win_count >= threshold) out.push_back(Candidate{s.key, s.win_count});
  }
  return out;
}

template <typename D>
TimePoint BasicMementoSummary<D>::high_watermark() const noexcept {
  if (current_frame_ < 0) return TimePoint();
  return TimePoint::from_ns(current_frame_ * frame_len_.ns());
}

template <typename D>
void BasicMementoSummary<D>::merge_from(const BasicMementoSummary& other) {
  if (!(other.params_ == params_)) {
    throw std::invalid_argument("BasicMementoSummary::merge_from: Params mismatch");
  }
  const std::int64_t newest = std::max(current_frame_, other.current_frame_);
  const std::int64_t oldest = newest - static_cast<std::int64_t>(params_.frames);

  // Gather both sides' still-live ring entries per key, aligned by
  // absolute frame. Nothing below mutates this summary until the rebuild,
  // so folding `*this` twice (self-merge) doubles counts as documented.
  struct Acc {
    Key key{};
    std::vector<FrameDelta> ring;  // ascending frames
    double count = 0.0;
  };
  std::vector<Acc> accs;
  FlatHashMap<Key, std::uint32_t, typename D::Hash> acc_index(
      2 * (slots_.size() + other.slots_.size()) + 16);
  const auto fold_side = [&](const BasicMementoSummary& side) {
    for (std::uint32_t i = 0; i < side.slots_.size(); ++i) {
      const Slot& s = side.slots_[i];
      auto [v, inserted] = acc_index.try_emplace(s.key);
      if (inserted) {
        *v = static_cast<std::uint32_t>(accs.size());
        accs.push_back(Acc{s.key, {}, 0.0});
      }
      Acc& acc = accs[*v];
      for (std::uint32_t j = 0; j < s.len; ++j) {
        const FrameDelta& e = side.ring_at(i, j);
        if (e.frame < oldest) continue;  // expired in the merged window
        auto it = std::lower_bound(
            acc.ring.begin(), acc.ring.end(), e.frame,
            [](const FrameDelta& a, std::int64_t f) { return a.frame < f; });
        if (it != acc.ring.end() && it->frame == e.frame) {
          it->delta += e.delta;
        } else {
          acc.ring.insert(it, e);
        }
        acc.count += e.delta;
      }
    }
  };
  fold_side(*this);
  fold_side(other);

  std::erase_if(accs, [](const Acc& a) { return a.ring.empty(); });
  if (accs.size() > params_.counters) {
    // Keep the heaviest `counters` merged keys: anything dropped has a
    // merged count <= every survivor's (the Space-Saving merge invariant).
    std::nth_element(accs.begin(), accs.begin() + static_cast<std::ptrdiff_t>(params_.counters),
                     accs.end(), [](const Acc& a, const Acc& b) { return a.count > b.count; });
    accs.resize(params_.counters);
  }

  // Frame totals merge by absolute frame before the table is replaced.
  std::vector<std::int64_t> ids(ring_cap_, -1);
  std::vector<double> totals(ring_cap_, 0.0);
  const auto fold_totals = [&](const BasicMementoSummary& side) {
    for (std::size_t i = 0; i < side.frame_ids_.size(); ++i) {
      const std::int64_t id = side.frame_ids_[i];
      if (id < 0 || id < oldest) continue;
      const auto idx = static_cast<std::size_t>(id % ring_cap_);
      ids[idx] = id;
      totals[idx] += side.frame_totals_[i];
    }
  };
  fold_totals(*this);
  fold_totals(other);

  slots_.clear();
  heap_.clear();
  index_.clear();
  std::fill(deltas_.begin(), deltas_.end(), FrameDelta{});
  for (std::size_t i = 0; i < accs.size(); ++i) {
    const Acc& acc = accs[i];
    slots_.push_back(Slot{acc.key, acc.count, 0, static_cast<std::uint32_t>(acc.ring.size()),
                          static_cast<std::uint32_t>(i)});
    heap_.push_back(static_cast<std::uint32_t>(i));
    std::copy(acc.ring.begin(), acc.ring.end(), deltas_.begin() + static_cast<std::ptrdiff_t>(i * ring_cap_));
    *index_.try_emplace(acc.key).first = static_cast<std::uint32_t>(i);
  }
  rebuild_heap();
  frame_ids_ = std::move(ids);
  frame_totals_ = std::move(totals);
  current_frame_ = newest;
}

template <typename D>
void BasicMementoSummary<D>::save_state(wire::Writer& w) const {
  w.i64(params_.window.ns());
  w.u64(params_.frames);
  w.u64(params_.counters);
  w.i64(current_frame_);
  for (std::size_t i = 0; i < frame_ids_.size(); ++i) {
    w.i64(frame_ids_[i]);
    w.f64(frame_totals_[i]);
  }
  w.u64(slots_.size());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    D::write_key(w, s.key);
    w.u64(s.len);
    for (std::uint32_t j = 0; j < s.len; ++j) {
      const FrameDelta& e = ring_at(i, j);
      w.i64(e.frame);
      w.f64(e.delta);
    }
  }
  for (const std::uint32_t h : heap_) w.u32(h);
}

template <typename D>
void BasicMementoSummary<D>::load_state(wire::Reader& r) {
  using wire::WireError;
  wire::check(r.i64() == params_.window.ns(), WireError::kParamsMismatch,
              "MementoSummary window mismatch");
  wire::check(r.u64() == params_.frames, WireError::kParamsMismatch,
              "MementoSummary frame count mismatch");
  wire::check(r.u64() == params_.counters, WireError::kParamsMismatch,
              "MementoSummary counters mismatch");
  const std::int64_t current = r.i64();
  wire::check(current >= -1, WireError::kBadValue, "MementoSummary bad frame cursor");

  std::vector<std::int64_t> ids(ring_cap_, -1);
  std::vector<double> totals(ring_cap_, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = r.i64();
    totals[i] = r.f64();
    wire::check(ids[i] == -1 || (ids[i] >= 0 && ids[i] <= current &&
                                 static_cast<std::size_t>(ids[i] % ring_cap_) == i),
                WireError::kBadValue, "MementoSummary frame total not at its ring slot");
  }

  const std::uint64_t n = r.count(16);
  wire::check(n <= params_.counters, WireError::kBadValue,
              "MementoSummary slot count > counters");
  std::vector<Slot> slots;
  slots.reserve(n);
  std::vector<FrameDelta> deltas(params_.counters * ring_cap_, FrameDelta{});
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot s;
    s.key = D::read_key(r);
    const std::uint64_t len = r.count(16);
    wire::check(len <= ring_cap_, WireError::kBadValue, "MementoSummary ring overflow");
    s.head = 0;
    s.len = static_cast<std::uint32_t>(len);
    std::int64_t prev_frame = -1;
    for (std::uint64_t j = 0; j < len; ++j) {
      FrameDelta e;
      e.frame = r.i64();
      e.delta = r.f64();
      wire::check(e.frame > prev_frame && e.frame <= current, WireError::kBadValue,
                  "MementoSummary ring frames not ascending");
      prev_frame = e.frame;
      s.win_count += e.delta;
      deltas[i * ring_cap_ + j] = e;
    }
    slots.push_back(s);
  }

  std::vector<std::uint32_t> heap;
  heap.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t h = r.u32();
    wire::check(h < n, WireError::kBadValue, "MementoSummary heap index out of range");
    heap.push_back(h);
  }
  // Cross-consistency as for SpaceSaving: heap must be a permutation of
  // the slots and min-heap-ordered on the recomputed counts.
  std::vector<bool> seen(n, false);
  for (std::uint64_t i = 0; i < n; ++i) {
    wire::check(!seen[heap[i]], WireError::kBadValue, "MementoSummary heap not a permutation");
    seen[heap[i]] = true;
    slots[heap[i]].heap_pos = static_cast<std::uint32_t>(i);
  }
  for (std::uint64_t i = 1; i < n; ++i) {
    wire::check(slots[heap[(i - 1) / 2]].win_count <= slots[heap[i]].win_count,
                WireError::kBadValue, "MementoSummary heap order violated");
  }

  index_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto [v, inserted] = index_.try_emplace(slots[i].key);
    wire::check(inserted, WireError::kBadValue, "MementoSummary duplicate key");
    *v = static_cast<std::uint32_t>(i);
  }
  slots_ = std::move(slots);
  heap_ = std::move(heap);
  deltas_ = std::move(deltas);
  frame_ids_ = std::move(ids);
  frame_totals_ = std::move(totals);
  current_frame_ = current;
}

template <typename D>
std::size_t BasicMementoSummary<D>::memory_bytes() const noexcept {
  return params_.counters * (sizeof(Slot) + sizeof(std::uint32_t) +
                             ring_cap_ * sizeof(FrameDelta)) +
         ring_cap_ * (sizeof(std::int64_t) + sizeof(double)) + index_.memory_bytes();
}

template class BasicMementoSummary<V4Domain>;
template class BasicMementoSummary<V6Domain>;

}  // namespace hhh
