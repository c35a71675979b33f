// Shared helpers for the reproduction benches: workload analysis caching,
// paper-style table printing, and error formatting. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md experiment
// index) and then runs its google-benchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/mira.h"
#include "support/string_utils.h"
#include "workloads/workloads.h"

namespace mira::bench {

/// A workload analyzed once by a table printer: its model (and
/// staticFPI shorthand) plus the live compiled program it came from.
struct AnalyzedWorkload : core::AnalysisResult {
  std::shared_ptr<const core::CompiledProgram> program;
};

/// Analyze-once helper for the table printers. Guarded by a mutex so
/// multi-threaded google-benchmark registrations can share it.
inline AnalyzedWorkload &analyzeCached(const std::string &source,
                                       const std::string &name) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<AnalyzedWorkload>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(name);
  if (it == cache.end()) {
    DiagnosticEngine diags;
    core::AnalysisSpec spec;
    spec.name = name;
    spec.source = source;
    spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                     core::kArtifactProgram;
    core::Artifacts artifacts = core::analyze(spec, diags);
    if (!artifacts.ok || !artifacts.model) {
      std::fprintf(stderr, "analysis of %s failed:\n%s\n", name.c_str(),
                   diags.str().c_str());
      std::abort();
    }
    it = cache
             .emplace(name, std::make_unique<AnalyzedWorkload>(
                                AnalyzedWorkload{{*artifacts.model},
                                                 artifacts.program->get()}))
             .first;
  }
  return *it->second;
}

inline sim::SimResult simulateFF(const AnalyzedWorkload &analysis,
                                 const std::string &fn,
                                 const std::vector<sim::Value> &args) {
  sim::SimOptions options;
  options.fastForward = true;
  auto r = core::simulate(*analysis.program, fn, args, options);
  if (!r.ok) {
    std::fprintf(stderr, "simulation of %s failed: %s\n", fn.c_str(),
                 r.error.c_str());
    std::abort();
  }
  return r;
}

inline void printRule(std::size_t width = 78) {
  std::puts(std::string(width, '-').c_str());
}

inline void printHeader(const std::string &title) {
  printRule();
  std::puts(title.c_str());
  printRule();
}

/// "8.239E7"-style count formatting as in the paper's tables.
inline std::string fmtCount(double v) { return formatCount(v); }
inline std::string fmtErr(double modeled, double measured) {
  return formatPercent(core::relativeError(modeled, measured));
}

} // namespace mira::bench
