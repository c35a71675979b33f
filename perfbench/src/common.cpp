#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>

#include "bench.h"
#include "core/artifacts.h"

namespace perfbench {

unsigned cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
  return 0;
}

void resetPeakRss() {
  // Hand memory set-up freed back to the kernel first, so the watermark
  // starts from what is live rather than from set-up's leftovers.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty())
    return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

void Report::metric(const std::string &name, double value,
                    const std::string &unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string &what) {
  op(ok);
  if (!ok)
    notes_.push_back("CHECK FAILED: " + what);
}

void Report::note(const std::string &line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string &line : notes_)
    std::printf("%s\n", line.c_str());
  for (const Metric &m : metrics_)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  %-34s %16.6g %s (%llu of %llu ops)\n", "failed_frac",
              attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
              "ratio", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf("correctness: %s\n", correct() ? "PASS" : "FAIL");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

CpuTicks cpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value))
      break;
    ticks.total += value;
    if (field == 7)
      ticks.steal = value;
  }
  ticks.at = Clock::now();
  return ticks;
}

double stealShare(const CpuTicks &before, const CpuTicks &after) {
  const double expected =
      std::chrono::duration<double>(after.at - before.at).count() *
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) *
      static_cast<double>(sysconf(_SC_CLK_TCK));
  if (expected <= 0)
    return 0;
  const double received = static_cast<double>(after.total - before.total) -
                          static_cast<double>(after.steal - before.steal);
  return std::clamp(1.0 - received / expected, 0.0, 1.0);
}

namespace {

/// A slice is clean at 3% steal or less. Tick accounting alone jitters
/// by about 1% on an idle machine over a 0.25 s window.
constexpr double kCleanSteal = 0.03;
/// The metrics come from the fastest slices spanning this share of the
/// nominal phase length.
constexpr double kKeptShare = 0.5;

/// Sort `slices` by throughput and keep the fewest fastest that span
/// `span` seconds.
void keepFastest(std::vector<Slice> &slices, double span) {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Slice &a, const Slice &b) {
                     return a.latencies.size() / a.wall >
                            b.latencies.size() / b.wall;
                   });
  double covered = 0;
  std::size_t keep = 0;
  while (keep < slices.size() && covered < span)
    covered += slices[keep++].wall;
  slices.resize(keep);
}

} // namespace

bool keepMeasuring(const std::vector<Slice> &slices, double elapsed,
                   double seconds) {
  if (elapsed < seconds)
    return true;
  if (elapsed >= 2 * seconds)
    return false;
  double clean = 0;
  for (const Slice &s : slices)
    if (s.steal <= kCleanSteal)
      clean += s.wall;
  return clean < seconds * kKeptShare;
}

void reportSetup(Report &report, std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  seconds.resize((seconds.size() + 1) / 2);
  report.metric("setup_s", median(seconds), "s");
}

void reportSlices(Report &report, std::vector<Slice> slices, double seconds) {
  const std::size_t all = slices.size();
  std::vector<double> steal;
  for (const Slice &s : slices)
    steal.push_back(s.steal);
  keepFastest(slices, seconds * kKeptShare);
  std::vector<double> rates, p50s, p99s, keptSteal;
  std::size_t samples = 0, smallest = SIZE_MAX;
  for (const Slice &s : slices) {
    rates.push_back(s.latencies.size() / s.wall);
    p50s.push_back(percentile(s.latencies, 0.50));
    p99s.push_back(percentile(s.latencies, 0.99));
    keptSteal.push_back(s.steal);
    samples += s.latencies.size();
    smallest = std::min(smallest, s.latencies.size());
  }
  report.metric("throughput_ops_per_s", median(rates), "1/s");
  report.metric("latency_p50_ms", median(p50s) * 1e3, "ms");
  report.metric("latency_p99_ms", median(p99s) * 1e3, "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "slices: %zu fastest of %zu kept (median steal %.1f%% kept, "
                "%.1f%% all), %zu latency samples, smallest kept slice %zu",
                slices.size(), all, median(keptSteal) * 100,
                median(steal) * 100, samples, slices.empty() ? 0 : smallest);
  report.note(line);
}

void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++)
      fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t)
    pool.emplace_back(worker);
  worker();
  for (std::thread &t : pool)
    t.join();
}

void checkAgainstSimulator(const std::vector<CorpusSource> &corpus,
                           std::uint64_t seed, std::size_t sample,
                           Report &report) {
  std::vector<std::size_t> generated;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    if (corpus[i].generated)
      generated.push_back(i);
  std::mt19937_64 rng(seed ^ 0x51b0c7ull);
  std::shuffle(generated.begin(), generated.end(), rng);
  generated.resize(std::min(sample, generated.size()));

  std::vector<std::string> mismatch(generated.size());
  parallelFor(generated.size(), cpuCount(), [&](std::size_t i) {
    const CorpusSource &src = corpus[generated[i]];
    mira::core::AnalysisSpec spec;
    spec.name = src.name;
    spec.source = src.source;
    spec.artifacts = mira::core::kArtifactModel |
                     mira::core::kArtifactDiagnostics |
                     mira::core::kArtifactProgram;
    mira::core::Artifacts arts = mira::core::analyze(spec);
    auto program = arts.ok ? arts.program->get() : nullptr;
    if (!program) {
      mismatch[i] = src.name + ": analysis failed: " + arts.diagnostics;
      return;
    }
    std::vector<std::string> functions = src.affineKernels;
    functions.insert(functions.end(), src.arrayKernels.begin(),
                     src.arrayKernels.end());
    functions.push_back("driver");
    for (std::int64_t n : {1, 2, 7, 13}) {
      const mira::sim::SimResult run = mira::core::simulate(
          *program, "driver", {mira::sim::Value::ofInt(n)});
      if (!run.ok) {
        mismatch[i] = src.name + ": simulation failed: " + run.error;
        return;
      }
      for (const std::string &fn : functions) {
        const auto fpi = arts.staticFPI(fn, {{"n", n}});
        if (!fpi || *fpi != run.fpiOf(fn)) {
          mismatch[i] = src.name + ": " + fn + " static FPI " +
                        (fpi ? std::to_string(*fpi) : "n/a") +
                        " != simulated " + std::to_string(run.fpiOf(fn)) +
                        " at n=" + std::to_string(n);
          return;
        }
      }
    }
  });
  for (const std::string &m : mismatch)
    report.check(m.empty(), m);
  report.note("simulator oracle: " + std::to_string(generated.size()) +
              " generated sources, static FPI == retired FPI at n in "
              "{1,2,7,13}");
}

} // namespace perfbench
