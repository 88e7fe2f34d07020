/// \file
/// In-memory span tracing for the benchmark's layer decorators.
///
/// A span is one call across a layer boundary: its name (the layer and
/// operation, e.g. "core.ingest"), start and end on the steady clock, the
/// span that was open when it began (its parent) and the window/epoch id
/// shared by every span of one window. Each thread records into its own
/// SpanLog; a thread without an active log records nothing, which is how
/// the untraced end-to-end runs stay free of tracing cost. Logs are kept
/// in memory and summarised when the run ends.
///
/// Self time is a span's duration minus the part of it that its children
/// cover. The self times of a thread's spans sum to the time its root
/// spans cover, so comparing that sum with the thread's own wall time
/// shows how much of the thread no layer accounts for.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns() noexcept;

/// One recorded span.
struct Span {
  const char* name = "";        ///< "<layer>.<operation>" (a string literal)
  std::int64_t start_ns = 0;    ///< steady clock at entry
  std::int64_t end_ns = 0;      ///< steady clock at exit
  std::int32_t parent = -1;     ///< index of the enclosing span, -1 for a root
  std::int64_t window = -1;     ///< window/epoch id, -1 when not window-scoped
};

/// The spans of one thread, in the order they were opened.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) { spans_.reserve(4096); }

  /// Open a span nested in the innermost open one; returns its index.
  std::int32_t open(const char* name, std::int64_t window);
  /// Close the span `index` (must be the innermost open one).
  void close(std::int32_t index);
  /// Append a finished span as given (hand-built trees in tests).
  void add(Span span) { spans_.push_back(std::move(span)); }

  /// Mark the thread's own start and end (its wall time, measured apart
  /// from any span).
  void begin_thread() noexcept { thread_start_ns_ = now_ns(); }
  void end_thread() noexcept { thread_end_ns_ = now_ns(); }
  /// Set the thread's start and end explicitly (hand-built logs in tests).
  void set_thread_bounds(std::int64_t start_ns, std::int64_t end_ns) noexcept {
    thread_start_ns_ = start_ns;
    thread_end_ns_ = end_ns;
  }
  std::int64_t thread_wall_ns() const noexcept { return thread_end_ns_ - thread_start_ns_; }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::string& thread() const noexcept { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t thread_start_ns_ = 0;
  std::int64_t thread_end_ns_ = 0;
};

/// The calling thread's active log (nullptr = untraced).
SpanLog*& active_log() noexcept;

/// Installs `log` as the calling thread's active log for its lifetime and
/// marks the thread's start and end on it. A null log leaves the thread
/// untraced.
class ThreadTrace {
 public:
  explicit ThreadTrace(SpanLog* log) : log_(log) {
    active_log() = log_;
    if (log_) log_->begin_thread();
  }
  ~ThreadTrace() {
    if (log_) log_->end_thread();
    active_log() = nullptr;
  }
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

 private:
  SpanLog* log_;
};

/// RAII span on the calling thread's active log (no-op when untraced).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t window = -1) : log_(active_log()) {
    if (log_) index_ = log_->open(name, window);
  }
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_ = -1;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a set of logs.
struct LayerStat {
  std::int64_t self_ns = 0;              ///< summed self time
  std::vector<std::int64_t> durations;   ///< each span's full duration
  std::vector<std::int64_t> selfs;       ///< each span's self time
  std::map<std::int64_t, std::int64_t> self_by_window;  ///< summed self per window id
};

/// Aggregate spans by name.
std::map<std::string, LayerStat> aggregate(const std::vector<SpanLog>& logs);

/// Sum of the self times of `log`'s spans over the thread's wall time:
/// 1.0 when the layers account for the whole thread.
double coverage(const SpanLog& log);

}  // namespace perfbench
