// In-memory spans recorded by the benchmark around its calls into each
// Mira layer, written out as Chrome trace-event JSON when the run ends.
//
// A span has a name, a start and end, its parent span, the id of the op
// (source or request) it belongs to, and the heap allocations made
// while it was open. Each thread records into its own SpanBuffer, so
// recording takes no lock. A layer's self time is its span's duration
// minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *name = nullptr; ///< static string
  std::int64_t startNs = 0;   ///< since the TraceLog epoch
  std::int64_t endNs = 0;
  std::int32_t parent = -1;   ///< index in the same buffer, -1 = root
  std::uint64_t op = 0;
  std::uint64_t allocsAtStart = 0;
  std::uint64_t allocs = 0;   ///< allocations made while open (inclusive)
};

/// Spans of one thread. Not thread-safe: one recording thread each.
class SpanBuffer {
public:
  SpanBuffer(int pid, int tid, std::int64_t epochNs)
      : pid_(pid), tid_(tid), epoch_(epochNs) {}

  std::size_t open(const char *name, std::uint64_t op);
  void close(std::size_t index);

  int pid() const { return pid_; }
  int tid() const { return tid_; }
  const std::vector<Span> &spans() const { return spans_; }

private:
  int pid_, tid_;
  std::int64_t epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a buffer; a null buffer records nothing.
class ScopedSpan {
public:
  ScopedSpan(SpanBuffer *buffer, const char *name, std::uint64_t op)
      : buffer_(buffer), index_(buffer ? buffer->open(name, op) : 0) {}
  ~ScopedSpan() {
    if (buffer_)
      buffer_->close(index_);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanBuffer *buffer_;
  std::size_t index_;
};

/// Per-op self cost of one span name: one entry per op that has such a
/// span (summed over its spans of that name).
struct SelfCost {
  std::vector<double> seconds;
  std::vector<double> allocs;
};

/// All buffers of a run, grouped into Chrome "processes" (one per
/// traced phase).
class TraceLog {
public:
  TraceLog();

  /// A new buffer for one recording thread of phase `pid`. The
  /// reference stays valid for the log's lifetime.
  SpanBuffer &buffer(int pid);
  void nameProcess(int pid, const std::string &name);

  /// Self time and self allocations per span name of phase `pid`.
  std::map<std::string, SelfCost> selfCosts(int pid) const;

  /// Print each phase's per-layer self-time table.
  void printSelfTimeTable() const;

  /// Write every span as a Chrome trace-event JSON document (opens in
  /// Perfetto or chrome://tracing). False when the file cannot be
  /// written.
  bool writeChromeJson(const std::string &path) const;

private:
  std::int64_t epoch_;
  mutable std::mutex mutex_; ///< guards buffers_ and names_
  std::deque<SpanBuffer> buffers_;
  std::map<int, std::string> names_;
};

} // namespace perfbench
