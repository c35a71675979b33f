// Shared plumbing of the benchmark binary: arguments, clocks, the
// result report, and the entry points of the three workloads.
//
// Every workload has two modes. The measured mode (`--trace 0`) runs the
// workload closed-loop for `--seconds` and reports the end-to-end
// metrics. The traced mode (`--trace 1`) runs a stage-by-stage
// composition of the same work with spans and reports the per-layer
// metrics; it is a separate run, so spans never perturb the end-to-end
// numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "corpus.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string runDir;   ///< working directory for sockets and cache dirs
  std::string traceOut; ///< Chrome trace-event JSON written by --trace 1
  int tracePid = 1;     ///< trace "process" of the current traced phase
};

/// CPUs this process may run on (sched_getaffinity), at least 1.
unsigned cpuCount();

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// Restart the VmHWM watermark at the current resident set, so set-up's
/// transient peaks stay out of the timed phase's peak_rss_mb.
void resetPeakRss();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Heap allocations made by the calling thread so far (counted by the
/// benchmark binary's replacement operator new).
std::uint64_t threadAllocations();

/// Everything one run prints: metrics in order, plus the op tally and
/// the correctness verdict.
class Report {
public:
  void metric(const std::string &name, double value, const std::string &unit);

  /// One attempted op; `ok == false` counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok)
      ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// A post-run correctness check. It counts as one attempted op; a
  /// failed one is printed, counts as failed and fails the run.
  void check(bool ok, const std::string &what);

  /// Human-readable line printed before the JSON summary.
  void note(const std::string &line);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Print the metric table and, as the last stdout line, the JSON
  /// summary object.
  void print() const;

private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// This machine's CPU time accounting since boot, in clock ticks
/// (/proc/stat): all of it, and the part reported as stolen by the
/// hypervisor; plus when it was read.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
  Clock::time_point at;
};
CpuTicks cpuTicks();

/// One stretch of the timed phase: the latencies of the ops that
/// completed in it, its wall time, and the machine's steal share over it.
struct Slice {
  std::vector<double> latencies;
  double wall = 0;
  double steal = 0;
};

/// Share of the machine's CPU time between two cpuTicks() readings that
/// the guest did not get: the ticks reported as steal plus the ticks
/// never accounted at all. On the development host the kernel reported
/// well under 1% steal while a 4-thread CPU loop got only ~75% of wall
/// time, the rest showing up only as missing ticks.
double stealShare(const CpuTicks &before, const CpuTicks &after);

/// Whether a timed phase of nominal length `seconds` that has run for
/// `elapsed` with `slices` so far should go on. It stops after `seconds`
/// once clean slices (steal at most 3%) span half of `seconds`, and
/// in any case after twice `seconds`.
bool keepMeasuring(const std::vector<Slice> &slices, double elapsed,
                   double seconds);

/// setup_s: the median over the faster half of the set-up repetitions.
/// Interference from the host only ever adds time.
void reportSetup(Report &report, std::vector<double> seconds);

/// The timed-phase metrics shared by the workloads: throughput and
/// p50/p99 latency, each the median of the per-slice values over the
/// fastest slices that together span half of `seconds`. On a
/// shared host other guests only ever slow a slice down, so the fastest
/// slices are the ones that measure Mira rather than its neighbours.
/// Notes slice, sample and steal figures.
void reportSlices(Report &report, std::vector<Slice> slices, double seconds);

/// The correctness oracle: for `sample` seeded picks of generated
/// sources, each kernel's static FPI must equal the simulator's retired
/// FPI at several `n`. Mismatches are reported as failed checks.
void checkAgainstSimulator(const std::vector<CorpusSource> &corpus,
                           std::uint64_t seed, std::size_t sample,
                           Report &report);

/// Run `fn(i)` for i in [0, count) on `threads` threads (dynamic
/// assignment) and wait for all of them.
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

// Workload entry points (measured mode, then traced phase).
void runColdCorpus(const Args &args, Report &report);
void traceColdCorpus(const Args &args, double seconds, Report &report,
                     TraceLog &log);
void runWarmDaemon(const Args &args, Report &report);
void traceWarmDaemon(const Args &args, double seconds, Report &report,
                     TraceLog &log);
void runIncrementalDisk(const Args &args, Report &report);
void traceIncrementalDisk(const Args &args, double seconds, Report &report,
                          TraceLog &log);

} // namespace perfbench
