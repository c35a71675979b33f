#include "core/artifacts.h"

#include "symbolic/interner.h"

namespace mira::core {

std::shared_ptr<ProgramHandle>
ProgramHandle::live(std::shared_ptr<const CompiledProgram> program) {
  auto handle = std::shared_ptr<ProgramHandle>(new ProgramHandle());
  handle->program_ = std::move(program);
  handle->attempted_ = true;
  return handle;
}

std::shared_ptr<ProgramHandle> ProgramHandle::deferred(std::string source,
                                                       std::string fileName,
                                                       CompileOptions options) {
  auto handle = std::shared_ptr<ProgramHandle>(new ProgramHandle());
  handle->deferred_ = true;
  handle->source_ = std::move(source);
  handle->name_ = std::move(fileName);
  handle->options_ = options;
  return handle;
}

std::shared_ptr<const CompiledProgram> ProgramHandle::get(bool *compiledNow) {
  if (compiledNow)
    *compiledNow = false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!attempted_) {
    attempted_ = true;
    // Recompile = parse -> sema -> optimize -> codegen -> object ->
    // disassembly -> bridge. Model generation (the expensive stage) is
    // what the cache hit already paid for, so it is skipped here. The
    // diagnostics are discarded: the original analysis already rendered
    // them, and a source that analyzed cleanly recompiles cleanly.
    DiagnosticEngine diags;
    // Recompilation gets its own expression arena, like a full analyze:
    // symbolic churn from this one compile stays out of the calling
    // thread's default interner (nodes the program keeps stay alive
    // through their shared_ptrs after the arena dies).
    symbolic::ExprInterner interner;
    symbolic::ExprInterner::Scope scope(interner);
    program_ = compileProgram(source_, name_, options_, diags);
    if (compiledNow)
      *compiledNow = program_ != nullptr;
  }
  return program_;
}

bool ProgramHandle::materialized() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return program_ != nullptr;
}

std::optional<double> Artifacts::staticFPI(const std::string &function,
                                           const model::Env &env,
                                           std::string *error) const {
  if (!model) {
    if (error)
      *error = "no model artifact (request kArtifactModel)";
    return std::nullopt;
  }
  auto counts = model->evaluate(function, env, error);
  if (!counts)
    return std::nullopt;
  return counts->fpInstructions;
}

Artifacts analyze(const AnalysisSpec &spec) {
  DiagnosticEngine diags;
  return analyze(spec, diags);
}

Artifacts analyze(const AnalysisSpec &spec, DiagnosticEngine &diags) {
  Artifacts out;
  out.name = spec.name;
  out.requested = spec.artifacts;

  // Per-compile expression arena: every symbolic node built while
  // analyzing this spec (parse -> sema -> MIR -> model, including the
  // per-function model tasks, which re-enter this interner on their pool
  // threads) is hash-consed here, so within one analysis structurally
  // equal expressions are one node and equality is pointer identity. The
  // arena dies with the request; nodes the returned artifacts reference
  // stay alive through their shared_ptrs.
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);

  std::shared_ptr<const CompiledProgram> program =
      compileProgram(spec.source, spec.name, spec.options.compile, diags);
  if (!program) {
    out.diagnostics = diags.str();
    return out;
  }

  if (spec.artifacts & kArtifactModel) {
    // Same stage sequence the removed v1 analyzeSource ran, so models
    // and diagnostics through this path stay byte-identical to v1
    // results (pinned by tests/artifact_test.cpp).
    auto result = std::make_shared<AnalysisResult>();
    // The view keeps the program (AST through bridge) only when asked.
    // Otherwise the program handle is its only owner, so a result kept
    // for its model holds no IR, and the IR is freed wherever the
    // handle is dropped (on the worker, for a no-cache batch).
    if (spec.artifacts & kArtifactProgram)
      result->program = program;
    result->model = metrics::generateModel(
        *program->unit, program->sema.callGraph, *program->bridge,
        spec.options.metrics, diags, spec.options.modelPool);
    if (diags.hasErrors()) {
      out.diagnostics = diags.str();
      return out;
    }
    out.resultV1 = result;
    out.model = std::shared_ptr<const model::PerformanceModel>(
        out.resultV1, &result->model);
  }

  out.ok = true;
  out.diagnostics = diags.str();
  out.program = ProgramHandle::live(program);
  if (spec.artifacts & kArtifactCoverage)
    out.coverage = sema::computeLoopCoverage(*program->unit);
  if (spec.artifacts & kArtifactSimulation)
    out.simulation = std::make_shared<const sim::SimResult>(
        simulate(*program, spec.simulation.function, spec.simulation.args,
                 spec.simulation.options));
  return out;
}

} // namespace mira::core
