#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name, std::int64_t window) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.window = window;
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  // Read the clock last so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanLog::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

SpanLog*& active_log() noexcept {
  thread_local SpanLog* log = nullptr;
  return log;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::map<std::string, LayerStat> aggregate(const std::vector<SpanLog>& logs) {
  std::map<std::string, LayerStat> out;
  for (const SpanLog& log : logs) {
    const auto selfs = self_times(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      LayerStat& st = out[s.name];
      st.self_ns += selfs[i];
      st.durations.push_back(s.end_ns - s.start_ns);
      st.selfs.push_back(selfs[i]);
      if (s.window >= 0) st.self_by_window[s.window] += selfs[i];
    }
  }
  return out;
}

double coverage(const SpanLog& log) {
  std::int64_t sum = 0;
  for (const std::int64_t s : self_times(log.spans())) sum += s;
  const std::int64_t wall = log.thread_wall_ns();
  return wall > 0 ? static_cast<double>(sum) / static_cast<double>(wall) : 0.0;
}

}  // namespace perfbench
