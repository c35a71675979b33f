// Artifact-API tests: the AnalysisSpec/Artifacts surface, the
// ProgramHandle recompile-on-demand path, per-request fulfillment
// planning across memory/disk layers, and the cache's treatment of
// retired schema-1 entries.
//
// Headline invariants pinned here:
//   * every ArtifactMask combination yields exactly the requested
//     artifacts, one-shot and batched, with byte-identical models and
//     identical coverage/simulation counters through every layer;
//   * warm-disk coverage is answered from the serialized summary with
//     zero recompiles and zero model generation;
//   * warm-disk simulation recompiles parse->codegen exactly once per
//     (source, options) and never regenerates the model;
//   * a retired schema-1 cache entry is an ordinary miss: not corrupt,
//     not unlinked, and overwritten by the recompute's schema-2 entry.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "core/artifacts.h"
#include "driver/batch.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "server/protocol.h"
#include "support/binary_io.h"
#include "support/cache_store.h"
#include "support/hash.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("mira_artifact_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

core::AnalysisSpec fig5Spec(core::ArtifactMask mask) {
  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = mask;
  if (mask & core::kArtifactSimulation) {
    spec.simulation.function = "fig5_main";
    spec.simulation.args = {sim::Value::ofInt(64)};
  }
  return spec;
}

/// Canonical bytes of a SimResult (the wire encoding), for equality
/// assertions across serving paths.
std::string simBytes(const sim::SimResult &result) {
  std::string out;
  server::putSimResult(out, result);
  return out;
}

/// The store's file for `key` in `dir`.
fs::path entryPath(const fs::path &dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.mira",
                static_cast<unsigned long long>(key));
  return dir / name;
}

/// Write a raw cache entry under `key` with an arbitrary schema
/// version — how the schema test plants a retired-schema entry.
void writeRawEntry(const fs::path &dir, std::uint64_t key,
                   std::uint32_t version, const std::string &payload) {
  std::string bytes;
  bio::putU32(bytes, 0x4172694d); // "MirA", the store's entry magic
  bio::putU32(bytes, version);
  bio::putU64(bytes, payload.size());
  bio::putU64(bytes, fnv1a(payload));
  bytes += payload;
  std::ofstream out(entryPath(dir, key), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --------------------------------------------------------- one-shot API

TEST(ArtifactApi, MaskMatrixYieldsExactlyTheRequestedArtifacts) {
  for (core::ArtifactMask mask = 1; mask <= core::kArtifactAll; ++mask) {
    core::Artifacts artifacts = core::analyze(fig5Spec(mask));
    ASSERT_TRUE(artifacts.ok) << "mask " << unsigned(mask) << ": "
                              << artifacts.diagnostics;
    EXPECT_EQ(artifacts.requested, mask);
    EXPECT_EQ(artifacts.model != nullptr,
              (mask & core::kArtifactModel) != 0);
    EXPECT_EQ(artifacts.coverage.has_value(),
              (mask & core::kArtifactCoverage) != 0);
    EXPECT_EQ(artifacts.simulation != nullptr,
              (mask & core::kArtifactSimulation) != 0);
    // The live program handle is free to attach, so one-shot analysis
    // always carries one; it is never deferred on this path.
    ASSERT_NE(artifacts.program, nullptr);
    EXPECT_FALSE(artifacts.program->isDeferred());
    EXPECT_TRUE(artifacts.program->materialized());
    EXPECT_FALSE(artifacts.recompiled);
    if (artifacts.simulation)
      EXPECT_TRUE(artifacts.simulation->ok) << artifacts.simulation->error;
  }
}

TEST(ArtifactApi, RepeatedAnalysisIsByteIdentical) {
  // Two independent runs of the same spec render identically.
  core::Artifacts artifacts = core::analyze(fig5Spec(core::kArtifactDefault));
  ASSERT_TRUE(artifacts.ok);
  core::Artifacts again = core::analyze(fig5Spec(core::kArtifactDefault));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(model::emitPython(*artifacts.model),
            model::emitPython(*again.model));
  EXPECT_EQ(artifacts.diagnostics, again.diagnostics);
}

TEST(ArtifactApi, TheModelPinsNoProgram) {
  // The live handle is the compiled program's only owner: a result kept
  // for its model alone holds no IR once the handle is dropped.
  core::Artifacts artifacts = core::analyze(fig5Spec(core::kArtifactDefault));
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics;
  ASSERT_NE(artifacts.program, nullptr);
  std::weak_ptr<const core::CompiledProgram> program =
      artifacts.program->get();
  ASSERT_FALSE(program.expired());
  EXPECT_TRUE(program.lock()->unit != nullptr);

  artifacts.program.reset();
  EXPECT_TRUE(program.expired());
  ASSERT_NE(artifacts.model, nullptr);
  EXPECT_FALSE(artifacts.model->functions.empty());
}

TEST(ArtifactApi, SkippingTheModelStillCompilesAndCovers) {
  core::Artifacts artifacts =
      core::analyze(fig5Spec(core::kArtifactCoverage));
  ASSERT_TRUE(artifacts.ok);
  EXPECT_EQ(artifacts.model, nullptr);
  ASSERT_TRUE(artifacts.coverage.has_value());
  EXPECT_GT(artifacts.coverage->loops, 0u);
  EXPECT_GT(artifacts.coverage->statements, 0u);
}

TEST(ArtifactApi, FailedSourceReportsDiagnosticsThroughEveryMask) {
  core::AnalysisSpec spec;
  spec.name = "bad.mc";
  spec.source = "int broken(";
  spec.artifacts = core::kArtifactAll;
  spec.simulation.function = "broken";
  core::Artifacts artifacts = core::analyze(spec);
  EXPECT_FALSE(artifacts.ok);
  EXPECT_FALSE(artifacts.diagnostics.empty());
  EXPECT_EQ(artifacts.model, nullptr);
  EXPECT_EQ(artifacts.program, nullptr);
  EXPECT_FALSE(artifacts.coverage.has_value());
  EXPECT_EQ(artifacts.simulation, nullptr);
}

// ------------------------------------------------------- ProgramHandle

TEST(ProgramHandleTest, DeferredHandleCompilesOnceAndMemoizes) {
  auto handle = core::ProgramHandle::deferred(
      workloads::fig5Source(), "@fig5", core::CompileOptions{});
  EXPECT_TRUE(handle->isDeferred());
  EXPECT_FALSE(handle->materialized());
  EXPECT_FALSE(handle->recompiled());

  bool compiledNow = false;
  auto program = handle->get(&compiledNow);
  ASSERT_NE(program, nullptr);
  EXPECT_TRUE(compiledNow);
  EXPECT_TRUE(handle->materialized());
  EXPECT_TRUE(handle->recompiled());

  auto again = handle->get(&compiledNow);
  EXPECT_EQ(again, program); // memoized, same object
  EXPECT_FALSE(compiledNow); // only the first call compiles
}

TEST(ProgramHandleTest, RecompiledProgramSimulatesLikeTheOriginal) {
  // The recompile skips model generation but must reproduce the same
  // binary semantics: simulation counters agree with a live compile.
  core::Artifacts live = core::analyze(fig5Spec(core::kArtifactSimulation));
  ASSERT_TRUE(live.ok);

  auto handle = core::ProgramHandle::deferred(
      workloads::fig5Source(), "@fig5", core::CompileOptions{});
  auto program = handle->get();
  ASSERT_NE(program, nullptr);
  sim::SimResult recompiled =
      core::simulate(*program, "fig5_main", {sim::Value::ofInt(64)});
  ASSERT_TRUE(recompiled.ok) << recompiled.error;
  EXPECT_EQ(simBytes(recompiled), simBytes(*live.simulation));
}

// ------------------------------------------------- batch fulfillment

TEST(ArtifactBatch, BatchedArtifactsMatchOneShotByteForByte) {
  core::Artifacts oneShot = core::analyze(fig5Spec(core::kArtifactAll));
  ASSERT_TRUE(oneShot.ok);

  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchAnalyzer analyzer(options);
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactAll)});
  ASSERT_EQ(results.size(), 1u);
  const core::Artifacts &batched = results[0];
  ASSERT_TRUE(batched.ok) << batched.diagnostics;

  EXPECT_EQ(model::emitPython(*batched.model),
            model::emitPython(*oneShot.model));
  EXPECT_EQ(batched.diagnostics, oneShot.diagnostics);
  ASSERT_TRUE(batched.coverage.has_value());
  EXPECT_EQ(batched.coverage->loops, oneShot.coverage->loops);
  EXPECT_EQ(batched.coverage->statements, oneShot.coverage->statements);
  EXPECT_EQ(batched.coverage->inLoopStatements,
            oneShot.coverage->inLoopStatements);
  EXPECT_EQ(simBytes(*batched.simulation), simBytes(*oneShot.simulation));

  const driver::BatchStats &stats = analyzer.stats();
  EXPECT_EQ(stats.modelArtifacts, 1u);
  EXPECT_EQ(stats.programArtifacts, 1u);
  EXPECT_EQ(stats.coverageArtifacts, 1u);
  EXPECT_EQ(stats.simulationArtifacts, 1u);
  EXPECT_EQ(stats.recompiles, 0u); // computed live, nothing deferred
}

TEST(ArtifactBatch, MaskDoesNotPerturbTheCacheKey) {
  for (core::ArtifactMask mask = 1; mask <= core::kArtifactAll; ++mask)
    EXPECT_EQ(driver::requestKey(fig5Spec(mask)),
              driver::requestKey(fig5Spec(core::kArtifactDefault)));
}

TEST(ArtifactBatch, DifferentMasksShareOneCacheEntry) {
  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchAnalyzer analyzer(options);
  auto first = analyzer.runArtifacts({fig5Spec(core::kArtifactModel)});
  ASSERT_TRUE(first[0].ok);
  EXPECT_FALSE(first[0].cacheHit);

  // A coverage-only request for the same (source, options) must reuse
  // the entry the model request populated — full compute fills every
  // layer exactly so later masks are free.
  auto second = analyzer.runArtifacts({fig5Spec(core::kArtifactCoverage)});
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cacheHit);
  ASSERT_TRUE(second[0].coverage.has_value());
  EXPECT_EQ(analyzer.cacheSize(), 1u);
  EXPECT_EQ(analyzer.stats().recompiles, 0u); // live program, no recompile
}

TEST(ArtifactBatch, ModelOnlyRequestsAttachCoverageOpportunistically) {
  // The serving layers forward whatever coverage the cache has into v2
  // wire payloads, so fulfillment attaches it when it costs nothing.
  driver::BatchAnalyzer analyzer(driver::BatchOptions{1, true});
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactModel)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].coverage.has_value());
}

TEST(ArtifactBatch, NoCacheRequestsComputeOnlyWhatWasAsked) {
  // With caching off there is no layer to populate, so a coverage- or
  // simulation-only request must not pay for model generation (the
  // expensive stage). Observable contract: no model artifact exists
  // anywhere on the result, yet the requested artifacts are served.
  driver::BatchOptions options;
  options.threads = 1;
  options.useCache = false;
  driver::BatchAnalyzer analyzer(options);

  auto coverageRun =
      analyzer.runArtifacts({fig5Spec(core::kArtifactCoverage)});
  ASSERT_TRUE(coverageRun[0].ok);
  EXPECT_TRUE(coverageRun[0].coverage.has_value());
  EXPECT_EQ(coverageRun[0].model, nullptr);

  auto simRun = analyzer.runArtifacts({fig5Spec(core::kArtifactSimulation)});
  ASSERT_TRUE(simRun[0].ok);
  ASSERT_NE(simRun[0].simulation, nullptr);
  EXPECT_TRUE(simRun[0].simulation->ok) << simRun[0].simulation->error;
  EXPECT_EQ(simRun[0].model, nullptr);
}

// ------------------------------------------------- warm-disk planning

TEST(ArtifactBatch, WarmDiskCoverageComesFromSummariesWithZeroRecompiles) {
  TempDir dir("coverage");
  driver::BatchOptions options;
  options.threads = 2;
  options.cacheDir = dir.str();

  std::vector<core::AnalysisSpec> specs = {
      fig5Spec(core::kArtifactCoverage)};
  core::AnalysisSpec dgemm;
  dgemm.name = "@dgemm";
  dgemm.source = workloads::dgemmSource();
  dgemm.artifacts = core::kArtifactCoverage | core::kArtifactDiagnostics;
  specs.push_back(dgemm);

  sema::LoopCoverage coldFig5;
  {
    driver::BatchAnalyzer cold(options);
    auto results = cold.runArtifacts(specs);
    ASSERT_TRUE(results[0].ok && results[1].ok);
    coldFig5 = *results[0].coverage;
    EXPECT_EQ(cold.stats().diskStores, 2u);
  }
  {
    // A fresh analyzer (a fresh process, in effect) must answer both
    // summaries from disk without compiling anything.
    driver::BatchAnalyzer warm(options);
    auto results = warm.runArtifacts(specs);
    ASSERT_TRUE(results[0].ok && results[1].ok);
    EXPECT_TRUE(results[0].cacheHit);
    EXPECT_EQ(results[0].coverage->loops, coldFig5.loops);
    EXPECT_EQ(results[0].coverage->statements, coldFig5.statements);
    EXPECT_EQ(results[0].coverage->inLoopStatements,
              coldFig5.inLoopStatements);
    const driver::BatchStats &stats = warm.stats();
    EXPECT_EQ(stats.diskHits, 2u);
    EXPECT_EQ(stats.coverageFromCache, 2u);
    EXPECT_EQ(stats.recompiles, 0u);
    EXPECT_EQ(stats.cacheMisses, 0u);
  }
}

TEST(ArtifactBatch, WarmDiskSimulationRecompilesOnceNeverRemodels) {
  TempDir dir("simulate");
  driver::BatchOptions options;
  options.threads = 2;
  options.cacheDir = dir.str();

  std::string coldModel, coldSim;
  {
    driver::BatchAnalyzer cold(options);
    auto results = cold.runArtifacts(
        {fig5Spec(core::kArtifactModel | core::kArtifactSimulation)});
    ASSERT_TRUE(results[0].ok);
    coldModel = model::emitPython(*results[0].model);
    coldSim = simBytes(*results[0].simulation);
  }
  {
    driver::BatchAnalyzer warm(options);
    // Two identical simulation requests: the deferred handle must
    // compile once and be shared; the model must come from disk bytes.
    auto spec = fig5Spec(core::kArtifactModel | core::kArtifactSimulation);
    auto results = warm.runArtifacts({spec, spec});
    ASSERT_TRUE(results[0].ok && results[1].ok);
    EXPECT_TRUE(results[0].cacheHit);
    EXPECT_TRUE(results[1].cacheHit);
    EXPECT_EQ(model::emitPython(*results[0].model), coldModel);
    EXPECT_EQ(simBytes(*results[0].simulation), coldSim);
    EXPECT_EQ(simBytes(*results[1].simulation), coldSim);
    const driver::BatchStats &stats = warm.stats();
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.recompiles, 1u); // one parse->codegen re-run, shared
    EXPECT_EQ(stats.simulationArtifacts, 2u);
    // Exactly one of the two requests performed the recompile.
    EXPECT_NE(results[0].recompiled, results[1].recompiled);
  }
}

TEST(ArtifactBatch, WarmDiskProgramHandleStaysLazyUntilUsed) {
  TempDir dir("lazy");
  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = dir.str();
  {
    driver::BatchAnalyzer cold(options);
    cold.runArtifacts({fig5Spec(core::kArtifactModel)});
  }
  driver::BatchAnalyzer warm(options);
  auto results = warm.runArtifacts({fig5Spec(core::kArtifactProgram)});
  ASSERT_TRUE(results[0].ok);
  ASSERT_NE(results[0].program, nullptr);
  EXPECT_TRUE(results[0].program->isDeferred());
  // Handing out the handle costs nothing; only get() compiles.
  EXPECT_FALSE(results[0].program->materialized());
  EXPECT_EQ(warm.stats().recompiles, 0u);
  ASSERT_NE(results[0].program->get(), nullptr);
  EXPECT_TRUE(results[0].program->recompiled());
}

// ------------------------------------------------ retired schema 1

TEST(ArtifactCompat, SchemaOneEntryIsAMissOverwrittenByTheRecompute) {
  // A schema-1 entry (the retired `[ok][producer][diagnostics][model]`
  // payload under a version-1 store header, as an older build wrote it)
  // is an ordinary other-version miss: not corrupt, not unlinked, and
  // replaced by the recompute's schema-2 entry under the same key.
  TempDir dir("schema1");
  core::Artifacts reference = core::analyze(fig5Spec(core::kArtifactDefault));
  ASSERT_TRUE(reference.ok);
  std::string schemaOnePayload;
  bio::putU8(schemaOnePayload, 1);
  bio::putString(schemaOnePayload, "@fig5");
  bio::putString(schemaOnePayload, reference.diagnostics);
  model::serializeModel(*reference.model, schemaOnePayload);
  const std::uint64_t key =
      driver::requestKey(fig5Spec(core::kArtifactModel));
  writeRawEntry(dir.path, key, 1, schemaOnePayload);

  // A real load misses without counting corruption or unlinking.
  CacheStore probe(dir.str());
  std::uint32_t version = 0;
  EXPECT_FALSE(probe.load(key, version).has_value());
  EXPECT_EQ(probe.stats().corrupt, 0u);
  EXPECT_TRUE(fs::exists(entryPath(dir.path, key)));
  EXPECT_EQ(probe.keys(), std::vector<std::uint64_t>{key});

  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = dir.str();
  {
    driver::BatchAnalyzer recompute(options);
    auto results =
        recompute.runArtifacts({fig5Spec(core::kArtifactCoverage)});
    ASSERT_TRUE(results[0].ok) << results[0].diagnostics;
    EXPECT_FALSE(results[0].cacheHit); // a disk miss: full compute
    EXPECT_EQ(recompute.stats().diskHits, 0u);
    EXPECT_EQ(recompute.stats().diskMisses, 1u);
    EXPECT_EQ(recompute.stats().diskStores, 1u);
    EXPECT_EQ(recompute.diskCache()->stats().corrupt, 0u);

    // The recompute overwrote the same key with a schema-2 entry.
    EXPECT_EQ(recompute.diskCache()->keys(),
              std::vector<std::uint64_t>{key});
    ASSERT_TRUE(recompute.diskCache()->peek(key, version).has_value());
    EXPECT_EQ(version, kCacheSchemaVersion);
  }

  // A fresh analyzer serves coverage from the new entry's summary.
  driver::BatchAnalyzer warm(options);
  auto results = warm.runArtifacts({fig5Spec(core::kArtifactCoverage)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].cacheHit);
  EXPECT_EQ(warm.stats().coverageFromCache, 1u);
  EXPECT_EQ(warm.stats().recompiles, 0u);
}

// --------------------------------------------------- payload codec v2

TEST(ArtifactPayload, RoundTripsModelCoverageAndFailures) {
  core::Artifacts reference = core::analyze(
      fig5Spec(core::kArtifactModel | core::kArtifactCoverage));
  ASSERT_TRUE(reference.ok);

  const std::string payload = driver::serializeArtifactPayload(
      reference.model.get(), &*reference.coverage, reference.diagnostics,
      "@fig5");
  std::shared_ptr<const core::AnalysisResult> analysis;
  std::optional<sema::LoopCoverage> coverage;
  std::string diagnostics, producer;
  ASSERT_TRUE(driver::deserializeArtifactPayload(payload, analysis, coverage,
                                                 diagnostics, producer));
  ASSERT_NE(analysis, nullptr);
  EXPECT_EQ(model::emitPython(analysis->model),
            model::emitPython(*reference.model));
  ASSERT_TRUE(coverage.has_value());
  EXPECT_EQ(coverage->loops, reference.coverage->loops);
  EXPECT_EQ(producer, "@fig5");

  // Without a summary (a value whose summary was never computed).
  const std::string noCoverage = driver::serializeArtifactPayload(
      reference.model.get(), nullptr, reference.diagnostics, "@fig5");
  ASSERT_TRUE(driver::deserializeArtifactPayload(noCoverage, analysis,
                                                 coverage, diagnostics,
                                                 producer));
  EXPECT_FALSE(coverage.has_value());

  // Failure payloads carry no coverage and no model.
  const std::string failure = driver::serializeArtifactPayload(
      nullptr, nullptr, "bad.mc:1:1: error: nope\n", "bad.mc");
  ASSERT_TRUE(driver::deserializeArtifactPayload(failure, analysis, coverage,
                                                 diagnostics, producer));
  EXPECT_EQ(analysis, nullptr);
  EXPECT_FALSE(coverage.has_value());

  // Trailing garbage is corruption, not data.
  std::string tampered = payload + "x";
  EXPECT_FALSE(driver::deserializeArtifactPayload(tampered, analysis,
                                                  coverage, diagnostics,
                                                  producer));
}

TEST(ArtifactPayload, SimResultEncodingRoundTripsEveryField) {
  core::Artifacts artifacts =
      core::analyze(fig5Spec(core::kArtifactSimulation));
  ASSERT_TRUE(artifacts.ok);
  const sim::SimResult &reference = *artifacts.simulation;
  ASSERT_TRUE(reference.ok);

  std::string bytes = simBytes(reference);
  bio::Reader r{bytes, 0};
  sim::SimResult decoded;
  ASSERT_TRUE(server::readSimResult(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(simBytes(decoded), bytes); // canonical: re-encode identically
  EXPECT_EQ(decoded.total.totalInstructions,
            reference.total.totalInstructions);
  EXPECT_EQ(decoded.total.fpInstructions, reference.total.fpInstructions);
  EXPECT_EQ(decoded.functions.size(), reference.functions.size());
}

} // namespace
} // namespace mira
