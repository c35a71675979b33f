/// \file
/// Artifact-oriented analysis API (v2): one request/result pair used by
/// every layer — one-shot calls, the batch driver, the disk cache, and
/// the serving daemon.
///
/// The paper's workflow is one pipeline with several consumers: model
/// evaluation, Python emission, loop-coverage statistics, and simulated
/// ground truth. The v1 surface (core::analyzeSource) was all-or-nothing
/// — it always generated the model and always handed back a live
/// compiled program — which meant a cache or daemon hit that restored
/// only the model could never answer coverage or simulation questions.
///
/// v2 turns the request inside out: an AnalysisSpec names the source and
/// declares *which artifacts* the caller needs (ArtifactMask), and the
/// returned Artifacts carries exactly those, each servable from the
/// cheapest layer that has it. The key enabling type is ProgramHandle: a
/// compiled program that is either *live* (compiled in this process) or
/// *recompile-on-demand* (a cache hit restored the model without the
/// binary; the handle re-runs parse→sema→codegen — skipping model
/// generation, the expensive stage — on first use, memoized and
/// thread-safe). Coverage additionally travels as a serialized summary
/// in cache schema v2, so a warm cache answers `mira-cli coverage`
/// without touching the compiler at all.
///
/// Layering: core::analyze() here is the uncached one-shot entry;
/// driver::BatchAnalyzer::analyzeArtifacts() adds the memory → disk →
/// recompile → full-compute fulfillment planning; the daemon serves the
/// same specs over the wire (docs/PROTOCOL.md v2). Results through any
/// path are byte-identical to a one-shot run (the invariant every layer
/// pins in tests). docs/MIGRATION.md maps v1 calls onto this API.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/mira.h"
#include "sema/ast_stats.h"

namespace mira::core {

/// Bitmask naming the artifacts an AnalysisSpec asks for. Diagnostics
/// are always rendered; the bit exists so a spec can say "diagnostics
/// only" (e.g. a syntax check). The mask never influences cache keys:
/// the same (source, options) entry serves every mask.
using ArtifactMask = std::uint8_t;
inline constexpr ArtifactMask kArtifactModel = 1u << 0;       ///< PerformanceModel
inline constexpr ArtifactMask kArtifactDiagnostics = 1u << 1; ///< rendered text
inline constexpr ArtifactMask kArtifactProgram = 1u << 2;     ///< ProgramHandle
inline constexpr ArtifactMask kArtifactCoverage = 1u << 3;    ///< LoopCoverage
inline constexpr ArtifactMask kArtifactSimulation = 1u << 4;  ///< SimResult
/// What v1 analyzeSource produced: model + diagnostics.
inline constexpr ArtifactMask kArtifactDefault =
    kArtifactModel | kArtifactDiagnostics;
inline constexpr ArtifactMask kArtifactAll =
    kArtifactModel | kArtifactDiagnostics | kArtifactProgram |
    kArtifactCoverage | kArtifactSimulation;

/// Per-call simulation request carried by AnalysisSpec when
/// kArtifactSimulation is set. Unlike every other artifact, simulation
/// results depend on these arguments and are therefore executed per
/// request (the compiled program they run on is what caching reuses).
struct SimulationArgs {
  std::string function;         ///< entry function to execute
  std::vector<sim::Value> args; ///< scalar arguments, in order
  sim::SimOptions options;      ///< fast-forward, instruction cap
};

/// One analysis request: a named source, pipeline options, and the set
/// of artifacts the caller wants. The unit of work of the whole v2
/// surface — `core::analyze`, `driver::BatchAnalyzer`, and the daemon's
/// wire requests all consume exactly this.
struct AnalysisSpec {
  std::string name = "<memory>"; ///< display / file name (never keyed)
  std::string source;            ///< MiniC source text
  MiraOptions options;           ///< pipeline options (part of the key)
  ArtifactMask artifacts = kArtifactDefault;
  SimulationArgs simulation;     ///< used when kArtifactSimulation is set
};

/// A compiled program that is either live or recompile-on-demand.
///
/// Live handles wrap a program compiled in this process. Deferred
/// handles hold (source, name, compile options) and re-run
/// parse→sema→codegen on first get() — the cheap two-thirds of the
/// pipeline, skipping model generation — so a disk- or daemon-cache hit
/// that restored only the model can still answer program-needing
/// questions (simulation, AST walks) at recompile cost instead of
/// full-analysis cost. get() is memoized and thread-safe: concurrent
/// callers compile once and share the result.
class ProgramHandle {
public:
  /// Wrap an already-compiled program.
  static std::shared_ptr<ProgramHandle>
  live(std::shared_ptr<const CompiledProgram> program);

  /// Recompile-on-demand over the original inputs.
  static std::shared_ptr<ProgramHandle>
  deferred(std::string source, std::string fileName, CompileOptions options);

  /// The program, compiling on first use for deferred handles. Null only
  /// when a deferred recompile fails — possible only if the cached entry
  /// came from a different build whose compiler accepted the source.
  /// `compiledNow`, when non-null, is set true iff THIS call performed
  /// the recompile (at most one caller per handle sees true; waiters and
  /// live handles see false) — the batch layer's recompile counter.
  std::shared_ptr<const CompiledProgram> get(bool *compiledNow = nullptr);

  /// True for recompile-on-demand handles (even after materializing).
  bool isDeferred() const { return deferred_; }
  /// True when get() would return without compiling.
  bool materialized() const;
  /// True when this deferred handle has actually recompiled.
  bool recompiled() const { return deferred_ && materialized(); }

private:
  ProgramHandle() = default;

  bool deferred_ = false;
  std::string source_, name_;
  CompileOptions options_;

  mutable std::mutex mutex_;
  bool attempted_ = false; ///< deferred compile ran (even if it failed)
  std::shared_ptr<const CompiledProgram> program_;
};

/// The result of one AnalysisSpec: every requested artifact, each
/// possibly served from a different layer. Fields for artifacts that
/// were not requested (and not free to attach) are empty.
struct Artifacts {
  std::string name;          ///< echoed AnalysisSpec::name
  bool ok = false;           ///< source compiled (and modeled, if asked)
  bool cacheHit = false;     ///< served without running the full pipeline
  bool recompiled = false;   ///< this request performed a deferred recompile
  // Per-request fulfillment provenance, set by the batch layer: each
  // flag marks the one request whose producer did the corresponding
  // disk-level work (duplicate requests sharing the value carry false),
  // so summing flags over any request set reproduces the counter deltas
  // a dedicated registry would show — without assuming the registry is
  // private to the run. This is what lets the serving daemon assemble a
  // BatchReport byte-identical to a local run while other traffic
  // shares its metrics (driver::tallyBatchStats).
  bool diskHit = false;          ///< producer restored this value from disk
  bool diskMiss = false;         ///< producer consulted the disk level and missed
  bool diskStored = false;       ///< producer persisted this value to disk
  bool coverageFromCache = false; ///< coverage answered from a cached summary
  ArtifactMask requested = 0; ///< echoed AnalysisSpec::artifacts
  /// Rendered diagnostics: warnings on success, errors on failure.
  /// Cache hits under a different name are prefixed with their producer.
  std::string diagnostics;
  /// kArtifactModel: shared with the cache and duplicate requests.
  std::shared_ptr<const model::PerformanceModel> model;
  /// kArtifactProgram: live or recompile-on-demand (see ProgramHandle).
  std::shared_ptr<ProgramHandle> program;
  /// kArtifactCoverage — also attached opportunistically when the
  /// serving layer already has it (a v2 cache entry), since that costs
  /// nothing; absent only when neither requested nor available.
  std::optional<sema::LoopCoverage> coverage;
  /// kArtifactSimulation: executed with AnalysisSpec::simulation.
  std::shared_ptr<const sim::SimResult> simulation;
  /// Compatibility view for v1 consumers (AnalysisOutcome::analysis):
  /// the same model as an AnalysisResult. Its `program` is set only when
  /// kArtifactProgram was requested and the program is live; otherwise
  /// it is null and `program` above is the only owner of the compiled
  /// IR, so a result kept for its model pins no IR. Null when !ok or
  /// when the model was not produced.
  std::shared_ptr<const AnalysisResult> resultV1;
  double seconds = 0; ///< wall time spent fulfilling this spec

  /// Shorthand mirroring AnalysisResult::staticFPI: evaluate FPI (the
  /// paper's headline metric) from the model artifact; nullopt when the
  /// model is absent or parameters are missing.
  std::optional<double> staticFPI(const std::string &function,
                                  const model::Env &env,
                                  std::string *error = nullptr) const;
};

/// One-shot, uncached fulfillment of `spec`: runs the pipeline stages
/// the mask needs (model generation only under kArtifactModel) and
/// returns live artifacts. The caching layers (driver::BatchAnalyzer,
/// the daemon) funnel their misses through this.
Artifacts analyze(const AnalysisSpec &spec);

/// As analyze(), but records diagnostics into a caller-owned engine too
/// (for tests and tools asserting on structured diagnostics rather than
/// the rendered Artifacts::diagnostics string).
Artifacts analyze(const AnalysisSpec &spec, DiagnosticEngine &diags);

} // namespace mira::core
