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
    // The model owns no IR: the program handle is the compiled
    // program's only owner, so a result kept for its model pins no IR,
    // and the IR is freed wherever the handle is dropped (on the worker,
    // for a no-cache batch).
    auto generated = std::make_shared<model::PerformanceModel>(
        metrics::generateModel(*program->unit, program->sema.callGraph,
                               *program->bridge, spec.options.metrics, diags));
    if (diags.hasErrors()) {
      out.diagnostics = diags.str();
      return out;
    }
    out.model = std::move(generated);
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
