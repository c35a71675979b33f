// cold-corpus: every source distinct, caching off, closed-loop passes of
// driver::BatchAnalyzer::runArtifacts at one thread per CPU. Nearly all
// time goes to the pipeline layers and the pool; the cache store, the
// daemon and payload serialization are never touched.
#include <atomic>
#include <random>
#include <thread>

#include "bench.h"
#include "core/artifacts.h"
#include "driver/batch.h"
#include "frontend/parser.h"
#include "model/serialize.h"
#include "symbolic/interner.h"

namespace perfbench {
namespace {

using mira::core::AnalysisSpec;
using mira::core::Artifacts;
using mira::driver::BatchAnalyzer;
using mira::driver::BatchOptions;

constexpr std::size_t kGenerated = 1000;
constexpr int kSetupRepeats = 15;

std::vector<AnalysisSpec> specsFor(const std::vector<CorpusSource> &corpus) {
  std::vector<AnalysisSpec> specs(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    specs[i].name = corpus[i].name;
    specs[i].source = corpus[i].source;
  }
  return specs;
}

BatchOptions coldOptions(unsigned threads) {
  BatchOptions options;
  options.threads = threads;
  options.useCache = false;
  return options;
}

std::string modelBytes(const mira::model::PerformanceModel &model) {
  std::string out;
  mira::model::serializeModel(model, out);
  return out;
}

/// Running totals over untraced passes: ops, failures, per-op latency
/// and the summed busy time of the workers.
struct PassTally {
  std::uint64_t ops = 0, failed = 0;
  double busySeconds = 0;
  std::vector<double> latencies;

  void add(const std::vector<Artifacts> &results) {
    for (const Artifacts &a : results) {
      ++ops;
      if (!a.ok || !a.model)
        ++failed;
      latencies.push_back(a.seconds);
      busySeconds += a.seconds;
    }
  }
};

/// Per-source deterministic tallies of one traced pass.
struct StageCounts {
  static constexpr int kStages = 8;
  std::uint64_t allocs[kStages] = {};
  std::uint64_t mirInstrs = 0, machineInstrs = 0, objectBytes = 0, loops = 0;
  std::string model; ///< serialized model, kept for the identity check
};

const char *const kStageSpans[StageCounts::kStages] = {
    "frontend.parse", "sema.analyze",     "mir.lower",   "codegen.generate",
    "objfile.roundtrip", "binast.build",  "bridge.build", "metrics.model"};
const char *const kStageLayers[StageCounts::kStages] = {
    "frontend", "sema", "mir", "codegen", "objfile", "binast", "bridge",
    "metrics"};

/// core::analyze's stage sequence composed through each layer's public
/// function, one span per stage. Returns false when a stage reports an
/// error.
bool composeStages(const AnalysisSpec &spec, SpanBuffer *buffer,
                   std::uint64_t op, StageCounts *counts) {
  using namespace mira;
  ScopedSpan whole(buffer, "pipeline.source", op);
  DiagnosticEngine diags;
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);
  int stage = 0;
  std::uint64_t mark = threadAllocations();
  const auto next = [&] {
    const std::uint64_t now = threadAllocations();
    if (counts)
      counts->allocs[stage] = now - mark;
    mark = now;
    ++stage;
  };

  std::unique_ptr<frontend::TranslationUnit> unit;
  {
    ScopedSpan s(buffer, kStageSpans[0], op);
    unit = frontend::Parser::parse(spec.source, spec.name, diags);
  }
  next();
  if (diags.hasErrors())
    return false;
  sema::SemaResult sema;
  {
    ScopedSpan s(buffer, kStageSpans[1], op);
    sema::SemanticAnalyzer analyzer(diags);
    sema = analyzer.analyze(*unit);
  }
  next();
  if (!sema.success)
    return false;
  mir::MirModule mir;
  {
    ScopedSpan s(buffer, kStageSpans[2], op);
    mir = mir::lowerToMir(*unit, spec.options.compile.compiler, diags);
  }
  next();
  if (diags.hasErrors())
    return false;
  std::vector<codegen::CodegenResult> codegen;
  std::vector<isa::MachineFunction> machine;
  {
    ScopedSpan s(buffer, kStageSpans[3], op);
    std::map<std::string, int> ids;
    for (std::size_t i = 0; i < mir.functions.size(); ++i)
      ids[mir.functions[i].name] = static_cast<int>(i);
    for (const mir::MirFunction &fn : mir.functions) {
      codegen.push_back(codegen::generateCode(fn, ids));
      machine.push_back(codegen.back().machine);
    }
  }
  next();
  std::optional<objfile::MiraObject> object;
  std::size_t objectBytes = 0;
  {
    ScopedSpan s(buffer, kStageSpans[4], op);
    const std::vector<std::uint8_t> bytes =
        objfile::buildObject(machine, codegen::externFunctionTable())
            .serialize();
    objectBytes = bytes.size();
    object = objfile::MiraObject::parse(bytes, diags);
  }
  next();
  if (!object)
    return false;
  std::optional<binast::BinaryAst> binary;
  {
    ScopedSpan s(buffer, kStageSpans[5], op);
    binary = binast::buildBinaryAst(*object, diags);
  }
  next();
  if (!binary)
    return false;
  std::unique_ptr<bridge::ProgramBridge> bridge;
  {
    ScopedSpan s(buffer, kStageSpans[6], op);
    bridge = std::make_unique<bridge::ProgramBridge>(*unit, *binary);
  }
  next();
  model::PerformanceModel model;
  {
    ScopedSpan s(buffer, kStageSpans[7], op);
    model = metrics::generateModel(*unit, sema.callGraph, *bridge,
                                   spec.options.metrics, diags);
  }
  next();
  if (diags.hasErrors())
    return false;
  if (counts) {
    for (const mir::MirFunction &fn : mir.functions)
      for (const mir::MirBlock &block : fn.blocks)
        counts->mirInstrs += block.insts.size();
    for (const codegen::CodegenResult &cg : codegen)
      counts->machineInstrs += cg.machine.instructions.size();
    counts->objectBytes = objectBytes;
    for (const binast::AsmFunction &fn : binary->functions)
      counts->loops += fn.loops.size();
    counts->model = modelBytes(model);
  }
  return true;
}

} // namespace

void runColdCorpus(const Args &args, Report &report) {
  const unsigned threads = cpuCount();
  const std::vector<CorpusSource> corpus = buildCorpus(args.seed, kGenerated);
  const std::vector<AnalysisSpec> specs = specsFor(corpus);
  // Set-up: pool start plus one warm-up pass (first-touch of allocator
  // arenas and lazily built tables) over the 15 embedded sources and the
  // first 45 generated ones; with fewer, the single largest embedded
  // source alone set the time.
  std::vector<AnalysisSpec> warmUp(specs.end() - 15, specs.end());
  warmUp.insert(warmUp.end(), specs.begin(), specs.begin() + 45);
  std::vector<double> setups;
  std::unique_ptr<BatchAnalyzer> analyzer;
  for (int i = 0; i < kSetupRepeats; ++i) {
    analyzer.reset();
    const auto start = Clock::now();
    analyzer = std::make_unique<BatchAnalyzer>(coldOptions(threads));
    analyzer->runArtifacts(warmUp);
    setups.push_back(secondsSince(start));
  }

  // Closed loop: each pass starts when the previous one (including
  // releasing its results) is done. One pass is one slice.
  std::vector<Slice> slices;
  std::vector<Artifacts> last;
  std::uint64_t ops = 0, failed = 0;
  resetPeakRss();
  const auto start = Clock::now();
  do {
    const CpuTicks ticks = cpuTicks();
    const auto passStart = Clock::now();
    last.clear();
    last = analyzer->runArtifacts(specs);
    Slice slice;
    slice.wall = secondsSince(passStart);
    slice.steal = stealShare(ticks, cpuTicks());
    for (const Artifacts &a : last) {
      ++ops;
      if (!a.ok || !a.model)
        ++failed;
      slice.latencies.push_back(a.seconds);
    }
    slices.push_back(std::move(slice));
  } while (keepMeasuring(slices, secondsSince(start), args.seconds));
  report.metric("peak_rss_mb", peakRssMb(), "MB");

  reportSetup(report, setups);
  reportSlices(report, slices, args.seconds);
  report.ops(ops, failed);
  report.note("corpus: " + std::to_string(specs.size()) + " sources (" +
              std::to_string(kGenerated) + " generated), one slice per " +
              "pass at " + std::to_string(threads) + " threads");

  // The batch path must produce what a one-shot analyze produces.
  std::mt19937_64 rng(args.seed ^ 0xc01dull);
  for (int k = 0; k < 24; ++k) {
    const std::size_t i = rng() % specs.size();
    const Artifacts local = mira::core::analyze(specs[i]);
    report.check(local.ok && last[i].ok && local.model && last[i].model &&
                     modelBytes(*local.model) == modelBytes(*last[i].model) &&
                     local.diagnostics == last[i].diagnostics,
                 specs[i].name + ": batch model differs from core::analyze");
  }
  checkAgainstSimulator(corpus, args.seed, 48, report);
}

void traceColdCorpus(const Args &args, double seconds, Report &report,
                     TraceLog &log) {
  const unsigned threads = cpuCount();
  const std::vector<CorpusSource> corpus = buildCorpus(args.seed, kGenerated);
  const std::vector<AnalysisSpec> specs = specsFor(corpus);
  const std::size_t n = specs.size();

  // Untraced reference at full width: throughput, per-source time and
  // worker utilization, after one uncounted pass that grows the heap to
  // its working size.
  PassTally untraced;
  double untracedWall = 0;
  {
    BatchAnalyzer analyzer(coldOptions(threads));
    analyzer.runArtifacts(specs);
    const auto start = Clock::now();
    do {
      untraced.add(analyzer.runArtifacts(specs));
      untracedWall = secondsSince(start);
    } while (untracedWall < seconds * 0.35);
  }
  report.ops(untraced.ops, untraced.failed);

  // Parallel efficiency on a fixed slice: one thread vs all of them.
  const std::vector<AnalysisSpec> slice(
      specs.begin(), specs.begin() + std::min<std::size_t>(n, 320));
  double oneThread = 0, allThreads = 0;
  {
    BatchAnalyzer serial(coldOptions(1));
    auto start = Clock::now();
    serial.runArtifacts(slice);
    oneThread = secondsSince(start);
    BatchAnalyzer wide(coldOptions(threads));
    start = Clock::now();
    wide.runArtifacts(slice);
    allThreads = secondsSince(start);
  }

  // Traced composition at full width. Pass 0 covers the whole corpus
  // once and yields the deterministic counters; later passes only add
  // timing samples.
  std::vector<SpanBuffer *> buffers;
  for (unsigned t = 0; t < threads; ++t)
    buffers.push_back(&log.buffer(args.tracePid));
  std::vector<StageCounts> counts(n);
  std::atomic<std::uint64_t> tracedFailed{0};
  std::uint64_t tracedOps = 0;
  const mira::symbolic::InternStats internBefore =
      mira::symbolic::ExprInterner::globalStats();
  mira::symbolic::InternStats internAfter;
  const auto start = Clock::now();
  double tracedWall = 0;
  for (std::size_t pass = 0;; ++pass) {
    // A fixed source order per thread: the pipeline's per-thread scratch
    // grows with the sources a thread has seen, so dynamic assignment
    // made the allocation counts vary by a few between runs.
    const auto worker = [&](unsigned t) {
      for (std::size_t i = t; i < n; i += threads)
        if (!composeStages(specs[i], buffers[t], pass * n + i,
                           pass == 0 ? &counts[i] : nullptr))
          ++tracedFailed;
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
      pool.emplace_back(worker, t);
    worker(0);
    for (std::thread &t : pool)
      t.join();
    tracedOps += n;
    if (pass == 0)
      internAfter = mira::symbolic::ExprInterner::globalStats();
    tracedWall = secondsSince(start);
    if (tracedWall >= seconds * 0.45)
      break;
  }
  report.ops(tracedOps, tracedFailed);

  // The composition must describe the program core::analyze models.
  std::mt19937_64 rng(args.seed ^ 0x7a11ull);
  for (int k = 0; k < 16; ++k) {
    const std::size_t i = rng() % n;
    const Artifacts local = mira::core::analyze(specs[i]);
    report.check(local.ok && local.model &&
                     modelBytes(*local.model) == counts[i].model,
                 specs[i].name + ": composed model differs from core::analyze");
  }

  const std::map<std::string, SelfCost> costs = log.selfCosts(args.tracePid);
  for (int s = 0; s < StageCounts::kStages; ++s) {
    const auto it = costs.find(kStageSpans[s]);
    const std::string layer = kStageLayers[s];
    const std::string timeName =
        std::string(kStageSpans[s]).substr(layer.size() + 1);
    report.metric(layer + "." + timeName + "_us",
                  it == costs.end() ? 0 : median(it->second.seconds) * 1e6,
                  "us");
    std::uint64_t allocs = 0;
    for (const StageCounts &c : counts)
      allocs += c.allocs[s];
    report.metric(layer + ".allocs", static_cast<double>(allocs) / n, "count");
  }
  std::uint64_t mirInstrs = 0, machineInstrs = 0, objectBytes = 0, loops = 0;
  for (const StageCounts &c : counts) {
    mirInstrs += c.mirInstrs;
    machineInstrs += c.machineInstrs;
    objectBytes += c.objectBytes;
    loops += c.loops;
  }
  report.metric("mir.instrs", static_cast<double>(mirInstrs) / n, "count");
  report.metric("codegen.machine_instrs",
                static_cast<double>(machineInstrs) / n, "count");
  report.metric("objfile.bytes", static_cast<double>(objectBytes) / n,
                "bytes");
  report.metric("binast.loops", static_cast<double>(loops) / n, "count");
  const double hits = static_cast<double>(internAfter.hits - internBefore.hits);
  const double misses =
      static_cast<double>(internAfter.misses - internBefore.misses);
  report.metric("symbolic.intern_hits", hits, "count");
  report.metric("symbolic.intern_misses", misses, "count");
  report.metric("symbolic.intern_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report.metric("driver.worker_util",
                untraced.busySeconds / (untracedWall * threads), "ratio");
  report.metric("driver.parallel_efficiency",
                oneThread / (threads * allThreads), "ratio");

  const double untracedRate = untraced.ops / untracedWall;
  const double tracedRate = tracedOps / tracedWall;
  const double overhead = (untracedRate - tracedRate) / untracedRate;
  const auto whole = costs.find("pipeline.source");
  double stageSum = 0;
  if (whole != costs.end()) {
    // Per source, the stages' self times plus the glue around them add
    // up to the whole span.
    std::vector<double> totals;
    std::map<std::string, SelfCost>::const_iterator parts[StageCounts::kStages];
    for (int s = 0; s < StageCounts::kStages; ++s)
      parts[s] = costs.find(kStageSpans[s]);
    for (std::size_t i = 0; i < whole->second.seconds.size(); ++i) {
      double total = whole->second.seconds[i];
      for (const auto &it : parts)
        if (it != costs.end() && i < it->second.seconds.size())
          total += it->second.seconds[i];
      totals.push_back(total);
    }
    stageSum = median(totals);
  }
  const double untracedSource = median(untraced.latencies);
  report.metric("trace.cold_overhead_frac", overhead, "ratio");
  report.metric("trace.cold_stage_sum_us", stageSum * 1e6, "us");
  report.metric("trace.cold_untraced_source_us", untracedSource * 1e6, "us");
  report.note("cold-corpus traced: stage self times sum to " +
              std::to_string(stageSum * 1e6) + " us per source vs " +
              std::to_string(untracedSource * 1e6) +
              " us untraced; throughput " + std::to_string(tracedRate) +
              " traced vs " + std::to_string(untracedRate) +
              " untraced sources/s");
}

} // namespace perfbench
