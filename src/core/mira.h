// Mira public API: options and the shared result/simulation types.
//
// The entry point is the artifact-oriented API in core/artifacts.h —
// build an AnalysisSpec naming the artifacts you need and call
// core::analyze (or, with caching, drive it through
// driver::BatchAnalyzer):
//
//   core::AnalysisSpec spec;
//   spec.name = "app.mc";
//   spec.source = source;
//   spec.artifacts = core::kArtifactModel | core::kArtifactCoverage;
//   core::Artifacts arts = core::analyze(spec);
//   auto counts = arts.model->evaluate("cg_solve", {{"n", 1000}});
//
// One call runs the full pipeline: parse -> sema -> compile
// (optimize/vectorize) -> object emission -> disassembly -> bridge ->
// metric generation -> model. simulate runs the same binary's semantics
// and returns the dynamic ground-truth counters (the TAU/PAPI
// substitute). docs/MIGRATION.md maps every removed v1 call to its
// replacement.
//
// Thread-safety contract: core::analyze keeps no shared mutable state —
// every request owns its DiagnosticEngine and all pipeline-internal
// statics are immutable lookup tables — so concurrent calls on different
// (spec, diags) tuples are safe. driver::BatchAnalyzer relies on this to
// fan requests across a thread pool; any future global cache or counter
// added to the pipeline must be synchronized or per-request.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "arch/arch.h"
#include "core/compiler.h"
#include "metrics/metric_generator.h"
#include "model/model.h"
#include "model/python_emitter.h"
#include "sim/simulator.h"

namespace mira::core {

struct MiraOptions {
  CompileOptions compile;
  metrics::MetricOptions metrics;
  /// Architecture description used for category aggregation/prediction.
  const arch::ArchDescription *arch = &arch::haswellDescription();
};

/// A performance model decoded from an artifact payload (the disk cache
/// entry and wire format of driver::serializeArtifactPayload).
struct AnalysisResult {
  model::PerformanceModel model;

  /// Shorthand: evaluate FPI (the paper's headline metric) for a
  /// function; nullopt if parameters are missing.
  std::optional<double> staticFPI(const std::string &function,
                                  const model::Env &env,
                                  std::string *error = nullptr) const;
};

/// Dynamic ground truth on the same compiled program.
sim::SimResult simulate(const CompiledProgram &program,
                        const std::string &function,
                        const std::vector<sim::Value> &args,
                        const sim::SimOptions &options = {});

/// Relative error |a - b| / b (paper's validation metric), 0 when b == 0.
double relativeError(double modeled, double measured);

} // namespace mira::core
