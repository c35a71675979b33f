/// \file
/// One shared registry of named monotonic counters and gauges.
///
/// The serving stack used to keep three disjoint counter surfaces — the
/// daemon's atomics behind ServerStats, BatchAnalyzer's disk/fulfillment
/// atomics behind BatchStats, and whatever the CLI printed — which could
/// drift apart because each counter was defined (and bumped) more than
/// once. MetricsRegistry replaces them: a counter or gauge is registered
/// exactly once by name, every layer bumps the same cell, and every view
/// (the cacheStats wire block, the Metrics wire reply, the --metrics-file
/// text dump, `mira-cli client metrics`) renders from one snapshot of the
/// same registry, so the views cannot disagree by construction.
///
/// Concurrency: counter()/gauge() registration takes a mutex; the
/// returned references are stable for the registry's lifetime, and all
/// reads/writes through them are relaxed atomics — hot paths never lock.
/// snapshot() locks only to walk the name table.
///
/// Naming: lowercase `[a-z0-9_]` names in the Prometheus idiom —
/// monotonic counters end in `_total` ("server_requests_served_total"),
/// gauges name a current level ("server_memory_entries"). renderText()
/// emits the standard exposition format with every name prefixed
/// `mira_`, one `# TYPE` line per sample.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mira::core {

/// Registry of named monotonic counters and gauges shared by the batch
/// analyzer, the daemon, and every metrics view.
class MetricsRegistry {
public:
  /// Monotonically increasing counter. Never reset; per-interval views
  /// (e.g. BatchStats for one run) are computed as snapshot deltas.
  class Counter {
  public:
    void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    void increment() { add(1); }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    Counter() = default;
    std::atomic<std::uint64_t> value_{0};
  };

  /// Last-write-wins level (cache occupancy, in-flight requests). Owners
  /// refresh gauges before a snapshot is taken.
  class Gauge {
  public:
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<std::uint64_t> value_{0};
  };

  /// One (name, value) pair of a snapshot; `monotonic` distinguishes
  /// counters from gauges for renderers that care (# TYPE lines).
  struct Sample {
    std::string name;
    std::uint64_t value = 0;
    bool monotonic = false;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Find-or-create the counter named `name`. The reference stays valid
  /// for the registry's lifetime; repeated calls return the same cell.
  Counter &counter(const std::string &name);

  /// Find-or-create the gauge named `name` (same stability contract).
  Gauge &gauge(const std::string &name);

  /// Point-in-time view of every registered metric, name-sorted (the
  /// map order), so equal registry states render to equal bytes.
  std::vector<Sample> snapshot() const;

  /// Render a snapshot in the Prometheus text exposition format:
  /// `# TYPE mira_<name> counter|gauge` then `mira_<name> <value>`.
  static std::string renderText(const std::vector<Sample> &samples);

  /// snapshot() + renderText() in one call.
  std::string renderText() const { return renderText(snapshot()); }

  /// Atomically (re)write `path` with renderText(): the text goes to
  /// `path + ".tmp"`, which is then renamed over `path`, so a reader
  /// never sees a half-written file. False when either step fails.
  bool writeTextFile(const std::string &path) const;

private:
  mutable std::mutex mutex_;
  // unique_ptr cells: map rebalancing must not move the atomics that
  // hot paths hold references to.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace mira::core
