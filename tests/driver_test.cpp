// Batch-driver subsystem tests: FNV-1a hashing, the thread pool, cache
// keying, and the headline invariants — batch results are byte-identical
// to serial runs regardless of thread count, and the analysis cache
// de-duplicates repeated (source, options) pairs.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include <unistd.h>

#include "driver/batch.h"
#include "model/python_emitter.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira::driver {
namespace {

/// One-shot, uncached model analysis.
core::Artifacts analyzeModel(const std::string &source,
                             const std::string &name,
                             const core::MiraOptions &options,
                             DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.options = options;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  return core::analyze(spec, diags);
}

// ------------------------------------------------------------------ hash

TEST(Hash, Fnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(std::string()), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string("foobar")), 0x85944171f73967e8ull);
}

TEST(Hash, CombineIsOrderSensitive) {
  std::uint64_t a = fnv1a(std::string("alpha"));
  std::uint64_t b = fnv1a(std::string("beta"));
  EXPECT_NE(hashCombine(a, b), hashCombine(b, a));
  EXPECT_NE(hashCombine(a, b), a);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&counter] { ++counter; });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 100);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] { ++counter; });
  } // ~ThreadPool must run everything before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, TasksMaySubmitFollowUpTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.submit([&] {
    ++counter;
    pool.submit([&] { ++counter; });
  });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 1u);
}

// ------------------------------------------------------------- cache key

/// A model + diagnostics spec (core::kArtifactDefault).
core::AnalysisSpec makeSpec(const std::string &source,
                            const std::string &name = "test.mc") {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  return spec;
}

TEST(RequestKey, DependsOnSourceAndOptionsButNotName) {
  core::AnalysisSpec a = makeSpec("int f() { return 1; }", "a.mc");
  core::AnalysisSpec b = makeSpec("int f() { return 1; }", "b.mc");
  EXPECT_EQ(requestKey(a), requestKey(b)); // name is display-only

  core::AnalysisSpec other = makeSpec("int f() { return 2; }");
  EXPECT_NE(requestKey(a), requestKey(other));

  core::AnalysisSpec noOpt = a;
  noOpt.options.compile.compiler.optimize = false;
  core::AnalysisSpec noVec = a;
  noVec.options.compile.compiler.vectorize = false;
  core::AnalysisSpec noBranch = a;
  noBranch.options.metrics.assumeBranchesTaken = false;
  std::set<std::uint64_t> keys{requestKey(a), requestKey(noOpt),
                               requestKey(noVec), requestKey(noBranch)};
  EXPECT_EQ(keys.size(), 4u); // every option perturbs the key
}

TEST(RequestKey, IsStableAcrossRuns) {
  // The key is the on-disk cache file name: it must be a pure function
  // of (source, options), reproducible in any process on any day. A
  // golden value pins that; if this test breaks, kCacheSchemaVersion
  // must be bumped because every existing cache is invalidated.
  core::AnalysisSpec spec = makeSpec("int f() { return 1; }");
  EXPECT_EQ(requestKey(spec), 0x03406ef14ab139eeull);
}

// ------------------------------------------------------------ batch runs

std::vector<core::AnalysisSpec> coverageSpecs() {
  std::vector<core::AnalysisSpec> specs;
  for (const auto &kernel : workloads::coverageSuite())
    specs.push_back(makeSpec(kernel.source, kernel.name));
  return specs;
}

/// Canonical byte rendering of a batch: names, status, diagnostics, and
/// the emitted Python of every model, in input order.
std::string fingerprint(const std::vector<core::Artifacts> &outcomes) {
  std::string bytes;
  for (const auto &outcome : outcomes) {
    bytes += outcome.name;
    bytes += outcome.ok ? "|ok|" : "|fail|";
    bytes += outcome.diagnostics;
    if (outcome.model)
      bytes += model::emitPython(*outcome.model);
    bytes += '\n';
  }
  return bytes;
}

TEST(BatchAnalyzerTest, ParallelResultsAreByteIdenticalToSerial) {
  auto specs = coverageSpecs();
  BatchOptions serialOptions;
  serialOptions.threads = 1;
  BatchAnalyzer serial(serialOptions);
  std::string reference = fingerprint(serial.runArtifacts(specs));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(serial.stats().failures, 0u);

  for (std::size_t threads : {2u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    BatchAnalyzer analyzer(options);
    EXPECT_EQ(fingerprint(analyzer.runArtifacts(specs)), reference)
        << "non-deterministic batch at " << threads << " threads";
  }
}

TEST(BatchAnalyzerTest, OutcomesKeepInputOrder) {
  std::vector<core::AnalysisSpec> specs;
  specs.push_back(makeSpec(workloads::dgemmSource(), "first"));
  specs.push_back(makeSpec("int broken(", "second"));
  specs.push_back(makeSpec(workloads::fig5Source(), "third"));

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].name, "first");
  EXPECT_EQ(outcomes[1].name, "second");
  EXPECT_EQ(outcomes[2].name, "third");
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(analyzer.stats().failures, 1u);
}

TEST(BatchAnalyzerTest, MalformedSourceYieldsDiagnosticsNotCrash) {
  BatchAnalyzer analyzer(BatchOptions{2, true});
  auto outcomes = analyzer.runArtifacts({makeSpec("void f( {", "bad.mc")});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].model, nullptr);
  EXPECT_FALSE(outcomes[0].diagnostics.empty());
}

TEST(BatchAnalyzerTest, CachedDiagnosticsNameTheirProducer) {
  // Identical broken sources under different names share one cache
  // entry; the hit's diagnostics must say which request produced them
  // instead of silently citing the wrong file.
  BatchAnalyzer analyzer(BatchOptions{1, true});
  auto outcomes = analyzer.runArtifacts(
      {makeSpec("int broken(", "a.mc"), makeSpec("int broken(", "b.mc")});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[1].cacheHit);
  EXPECT_NE(outcomes[1].diagnostics.find("identical source 'a.mc'"),
            std::string::npos)
      << outcomes[1].diagnostics;
}

TEST(BatchAnalyzerTest, FirstDuplicateInACallIsAlwaysTheProducer) {
  // Which duplicate produces the entry must not depend on which pool
  // task a worker happens to pick up first: the first occurrence in
  // input order computes, every later one is a hit citing it.
  const std::vector<core::AnalysisSpec> specs{
      makeSpec("int broken(", "first.mc"),
      makeSpec(workloads::fig5Source(), "fig5.mc"),
      makeSpec("int broken(", "second.mc"),
      makeSpec("int broken(", "third.mc")};
  for (int round = 0; round < 20; ++round) {
    BatchAnalyzer analyzer(BatchOptions{4, true});
    const auto outcomes = round % 2 == 0
                              ? analyzer.runArtifacts(specs)
                              : analyzer.analyzeArtifactsMany(specs);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_FALSE(outcomes[0].cacheHit) << "round " << round;
    EXPECT_EQ(outcomes[0].diagnostics.find("identical source"),
              std::string::npos)
        << outcomes[0].diagnostics;
    for (std::size_t i : {2u, 3u}) {
      EXPECT_TRUE(outcomes[i].cacheHit) << "round " << round << ", " << i;
      EXPECT_NE(outcomes[i].diagnostics.find("identical source 'first.mc'"),
                std::string::npos)
          << outcomes[i].diagnostics;
    }
  }
}

TEST(BatchAnalyzerTest, DuplicateRequestsShareOneAnalysis) {
  core::AnalysisSpec spec = makeSpec(workloads::fig5Source(), "fig5");
  std::vector<core::AnalysisSpec> specs{spec, spec, spec};

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 1u);
  EXPECT_EQ(analyzer.stats().cacheHits, 2u);
  EXPECT_EQ(analyzer.cacheSize(), 1u);
  // All three positions share the one cached model.
  EXPECT_EQ(outcomes[0].model, outcomes[1].model);
  EXPECT_EQ(outcomes[1].model, outcomes[2].model);
}

TEST(BatchAnalyzerTest, CachePersistsAcrossRuns) {
  auto specs = coverageSpecs();
  BatchOptions options;
  options.threads = 2;
  BatchAnalyzer analyzer(options);

  analyzer.runArtifacts(specs);
  EXPECT_EQ(analyzer.stats().cacheMisses, specs.size());
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);

  analyzer.runArtifacts(specs); // identical (source, options) pairs: all hits
  EXPECT_EQ(analyzer.stats().cacheMisses, 0u);
  EXPECT_EQ(analyzer.stats().cacheHits, specs.size());

  analyzer.clearCache();
  analyzer.runArtifacts(specs);
  EXPECT_EQ(analyzer.stats().cacheMisses, specs.size());
}

/// Value of the first `name <value>` sample line in a Prometheus render,
/// or nullopt when no such line exists.
std::optional<std::uint64_t> sampleValue(const std::string &text,
                                         const std::string &name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line))
    if (line.compare(0, name.size() + 1, name + " ") == 0)
      return std::stoull(line.substr(name.size() + 1));
  return std::nullopt;
}

TEST(BatchAnalyzerTest, PublishesInternCountersAfterABatch) {
  // The 15 embedded sources: ten Table I kernels plus the fig series.
  auto specs = coverageSpecs();
  for (const auto &workload : workloads::figSeriesWorkloads())
    specs.push_back(makeSpec(*workload.source, workload.name));
  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  analyzer.runArtifacts(specs);
  ASSERT_EQ(analyzer.stats().failures, 0u);

  // The hash-consing interner must be deduplicating (hits) as well as
  // building (misses), and both must reach the registry's render.
  const std::string text = analyzer.metrics().renderText();
  const auto hits = sampleValue(text, "mira_intern_hits");
  const auto misses = sampleValue(text, "mira_intern_misses");
  ASSERT_TRUE(hits.has_value()) << text;
  ASSERT_TRUE(misses.has_value()) << text;
  EXPECT_GT(*hits, 0u);
  EXPECT_GT(*misses, 0u);
  EXPECT_TRUE(sampleValue(text, "mira_intern_nodes").has_value()) << text;
}

TEST(MetricsRegistryTest, WriteTextFileReplacesTheWholeFile) {
  // The daemon's and the coordinator's --metrics-file dumps both go
  // through this writer: the rendered text lands whole (temp file, then
  // rename) and no temp file is left behind.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mira_driver_test_metrics_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "metrics.prom").string();
  {
    std::ofstream stale(path);
    stale << "stale contents that are longer than the new dump\n";
  }
  core::MetricsRegistry registry;
  registry.counter("requests_total").add(3);
  registry.gauge("workers").set(2);
  ASSERT_TRUE(registry.writeTextFile(path));
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, registry.renderText());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // An unwritable location reports failure instead of throwing.
  EXPECT_FALSE(registry.writeTextFile((dir / "missing" / "m.prom").string()));
  std::filesystem::remove_all(dir);
}

TEST(BatchAnalyzerTest, DifferentOptionsDoNotShareCacheEntries) {
  core::AnalysisSpec optimized = makeSpec(workloads::fig5Source());
  core::AnalysisSpec unoptimized = optimized;
  unoptimized.options.compile.compiler.optimize = false;

  BatchAnalyzer analyzer(BatchOptions{2, true});
  auto outcomes = analyzer.runArtifacts({optimized, unoptimized});
  EXPECT_EQ(analyzer.stats().cacheMisses, 2u);
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].model, outcomes[1].model);
}

TEST(BatchAnalyzerTest, CacheCanBeDisabled) {
  core::AnalysisSpec spec = makeSpec(workloads::fig5Source());
  BatchOptions options;
  options.threads = 2;
  options.useCache = false;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts({spec, spec});
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 0u);
  EXPECT_EQ(analyzer.cacheSize(), 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].model, outcomes[1].model); // recomputed
}

// ------------------------------------------------------ result lifetime

core::AnalysisSpec fig5Spec(core::ArtifactMask mask) {
  core::AnalysisSpec spec;
  spec.name = "fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = mask;
  if (mask & core::kArtifactSimulation) {
    spec.simulation.function = "fig5_main";
    spec.simulation.args = {sim::Value::ofInt(64)};
  }
  return spec;
}

BatchOptions noCacheOptions() {
  BatchOptions options;
  options.threads = 2;
  options.useCache = false;
  return options;
}

TEST(BatchAnalyzerTest, NoCacheModelRunKeepsNoProgram) {
  // Without the program bit nothing in the result owns the IR (the
  // model holds none): each program is freed on the worker that built
  // it.
  BatchAnalyzer analyzer(noCacheOptions());
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactDefault),
                                        fig5Spec(core::kArtifactDefault)});
  for (const core::Artifacts &result : results) {
    ASSERT_TRUE(result.ok) << result.diagnostics;
    EXPECT_EQ(result.program, nullptr);
    EXPECT_NE(result.model, nullptr);
  }
}

TEST(BatchAnalyzerTest, NoCacheProgramRequestKeepsALiveProgram) {
  BatchAnalyzer analyzer(noCacheOptions());
  auto results = analyzer.runArtifacts(
      {fig5Spec(core::kArtifactDefault | core::kArtifactProgram)});
  ASSERT_TRUE(results[0].ok) << results[0].diagnostics;
  ASSERT_NE(results[0].program, nullptr);
  EXPECT_TRUE(results[0].program->materialized());
  EXPECT_NE(results[0].program->get(), nullptr);
  EXPECT_NE(results[0].model, nullptr);
  EXPECT_EQ(analyzer.stats().recompiles, 0u);
}

TEST(BatchAnalyzerTest, NoCacheSimulationWithoutProgramStillSimulates) {
  // fulfill() simulates on the worker-local handle, which is still live
  // there even though the result will not carry it.
  BatchAnalyzer analyzer(noCacheOptions());
  auto results =
      analyzer.runArtifacts({fig5Spec(core::kArtifactSimulation)});
  ASSERT_TRUE(results[0].ok) << results[0].diagnostics;
  ASSERT_NE(results[0].simulation, nullptr);
  EXPECT_TRUE(results[0].simulation->ok) << results[0].simulation->error;
  EXPECT_GT(results[0].simulation->total.totalInstructions, 0u);
  EXPECT_EQ(results[0].program, nullptr);
  EXPECT_EQ(analyzer.stats().recompiles, 0u);
}

TEST(BatchAnalyzerTest, CachedValueServesALaterProgramRequestLive) {
  // With the cache on, full compute always keeps the program, so a
  // model-only request leaves a value that later program requests share
  // without recompiling.
  BatchOptions options;
  options.threads = 2;
  BatchAnalyzer analyzer(options);
  core::MetricsRegistry::Counter &recompiles =
      analyzer.metrics().counter("analyzer_recompiles_total");
  auto first = analyzer.runArtifacts({fig5Spec(core::kArtifactDefault)});
  ASSERT_TRUE(first[0].ok) << first[0].diagnostics;
  EXPECT_EQ(first[0].program, nullptr);
  const std::uint64_t before = recompiles.value();

  const core::AnalysisSpec withProgram =
      fig5Spec(core::kArtifactDefault | core::kArtifactProgram);
  auto second = analyzer.runArtifacts({withProgram});
  ASSERT_TRUE(second[0].ok) << second[0].diagnostics;
  EXPECT_TRUE(second[0].cacheHit);
  ASSERT_NE(second[0].program, nullptr);
  EXPECT_TRUE(second[0].program->materialized());
  EXPECT_FALSE(second[0].program->isDeferred());
  EXPECT_FALSE(second[0].recompiled);
  EXPECT_EQ(recompiles.value(), before);

  // Every later program request shares the one live program.
  auto third = analyzer.runArtifacts({withProgram});
  ASSERT_TRUE(third[0].ok) << third[0].diagnostics;
  EXPECT_EQ(third[0].program->get(), second[0].program->get());
}

TEST(BatchAnalyzerTest, CachedModelStillEvaluates) {
  // A cached model is shared const; evaluating it must work and agree
  // with a fresh serial analysis (paper FPI on the Fig. 5 model).
  BatchAnalyzer analyzer(BatchOptions{4, true});
  auto first = analyzer.runArtifacts({makeSpec(workloads::fig5Source())});
  auto second = analyzer.runArtifacts({makeSpec(workloads::fig5Source())});
  ASSERT_TRUE(first[0].ok);
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cacheHit);

  DiagnosticEngine diags;
  core::MiraOptions options;
  auto serial = analyzeModel(workloads::fig5Source(), "fig5.mc", options,
                             diags);
  ASSERT_TRUE(serial.ok) << diags.str();

  model::Env env{{"total", 8}, {"y", 16}};
  auto cached = second[0].model->evaluate("fig5_main", env);
  auto fresh = serial.model->evaluate("fig5_main", env);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
  EXPECT_EQ(cached->totalInstructions, fresh->totalInstructions);
}

} // namespace
} // namespace mira::driver
