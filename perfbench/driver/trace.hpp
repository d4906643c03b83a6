// Spans recorded by the benchmark around its calls into the program's public
// functions. Each thread appends to its own buffer, so recording takes no
// lock; buffers outlive their threads and are read once the run has ended.
// With tracing off a Scope costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

struct Span {
  const char* name = "";     ///< static string: the layer boundary
  std::int64_t start = 0;    ///< ns
  std::int64_t end = 0;      ///< ns
  std::int32_t parent = -1;  ///< index in the same thread's buffer, -1 = root
  std::uint64_t id = 0;      ///< scenario or request id
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double self_ns = 0;   ///< summed self time
  double total_ns = 0;  ///< summed duration
  double mean_self_us() const { return count ? self_ns / count / 1e3 : 0; }
};

/// Self time of every span of one thread: its duration minus the part of it
/// that the union of its direct children covers. Children may overlap each
/// other and need not lie inside their parent.
std::vector<double> self_times(const std::vector<Span>& spans);

class Trace {
 public:
  static void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return on_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread and returns its index.
  static std::int32_t open(const char* name, std::uint64_t id);
  static void close(std::int32_t index);
  /// Records an already measured span (parent: the innermost open one).
  static void record(const char* name, std::int64_t start, std::int64_t end,
                     std::uint64_t id);

  /// Totals per span name over all threads.
  static std::map<std::string, SpanTotals> totals();
  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  static bool dump(const std::string& path);
  /// Drops every recorded span (between phases of one run).
  static void clear();

 private:
  static std::atomic<bool> on_;
};

/// RAII span; a no-op while tracing is off.
class Scope {
 public:
  Scope(const char* name, std::uint64_t id = 0)
      : index_(Trace::enabled() ? Trace::open(name, id) : -1) {}
  ~Scope() {
    if (index_ >= 0) Trace::close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
