// Batch-driver subsystem tests: FNV-1a hashing, the thread pool, cache
// keying, and the headline invariants — batch results are byte-identical
// to serial runs regardless of thread count, and the analysis cache
// de-duplicates repeated (source, options) pairs.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "driver/batch.h"
#include "model/python_emitter.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira::driver {
namespace {

/// One-shot model analysis through the v2 artifact API, returned in the
/// v1 result shape these tests consume (null on failure).
std::shared_ptr<const core::AnalysisResult>
analyzeModel(const std::string &source, const std::string &name,
             const core::MiraOptions &options, DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.options = options;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  core::Artifacts artifacts = core::analyze(spec, diags);
  return artifacts.ok ? artifacts.resultV1 : nullptr;
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

AnalysisRequest makeRequest(const std::string &source,
                            const std::string &name = "test.mc") {
  AnalysisRequest request;
  request.name = name;
  request.source = source;
  return request;
}

TEST(RequestKey, DependsOnSourceAndOptionsButNotName) {
  AnalysisRequest a = makeRequest("int f() { return 1; }", "a.mc");
  AnalysisRequest b = makeRequest("int f() { return 1; }", "b.mc");
  EXPECT_EQ(requestKey(a), requestKey(b)); // name is display-only

  AnalysisRequest other = makeRequest("int f() { return 2; }");
  EXPECT_NE(requestKey(a), requestKey(other));

  AnalysisRequest noOpt = a;
  noOpt.options.compile.compiler.optimize = false;
  AnalysisRequest noVec = a;
  noVec.options.compile.compiler.vectorize = false;
  AnalysisRequest noBranch = a;
  noBranch.options.metrics.assumeBranchesTaken = false;
  std::set<std::uint64_t> keys{requestKey(a), requestKey(noOpt),
                               requestKey(noVec), requestKey(noBranch)};
  EXPECT_EQ(keys.size(), 4u); // every option perturbs the key
}

TEST(RequestKey, IgnoresExecutionStrategy) {
  // The model pool changes only HOW the model is computed; keying on it
  // would make the on-disk cache miss across equivalent configurations.
  AnalysisRequest plain = makeRequest("int f() { return 1; }");
  AnalysisRequest pooled = plain;
  ThreadPool pool(2);
  pooled.options.modelPool = &pool;
  EXPECT_EQ(requestKey(plain), requestKey(pooled));
}

TEST(RequestKey, IsStableAcrossRuns) {
  // The key is the on-disk cache file name: it must be a pure function
  // of (source, options), reproducible in any process on any day. A
  // golden value pins that; if this test breaks, kCacheSchemaVersion
  // must be bumped because every existing cache is invalidated.
  AnalysisRequest request = makeRequest("int f() { return 1; }");
  EXPECT_EQ(requestKey(request), 0x03406ef14ab139eeull);
}

// ------------------------------------------------------------ batch runs

std::vector<AnalysisRequest> coverageRequests() {
  std::vector<AnalysisRequest> requests;
  for (const auto &kernel : workloads::coverageSuite())
    requests.push_back(makeRequest(kernel.source, kernel.name));
  return requests;
}

/// Canonical byte rendering of a batch: names, status, diagnostics, and
/// the emitted Python of every model, in input order.
std::string fingerprint(const std::vector<AnalysisOutcome> &outcomes) {
  std::string bytes;
  for (const auto &outcome : outcomes) {
    bytes += outcome.name;
    bytes += outcome.ok ? "|ok|" : "|fail|";
    bytes += outcome.diagnostics;
    if (outcome.analysis)
      bytes += model::emitPython(outcome.analysis->model);
    bytes += '\n';
  }
  return bytes;
}

TEST(BatchAnalyzerTest, ParallelResultsAreByteIdenticalToSerial) {
  auto requests = coverageRequests();
  BatchOptions serialOptions;
  serialOptions.threads = 1;
  BatchAnalyzer serial(serialOptions);
  std::string reference = fingerprint(serial.run(requests));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(serial.stats().failures, 0u);

  for (std::size_t threads : {2u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    BatchAnalyzer analyzer(options);
    EXPECT_EQ(fingerprint(analyzer.run(requests)), reference)
        << "non-deterministic batch at " << threads << " threads";
  }
}

TEST(BatchAnalyzerTest, ParallelModelGenerationIsByteIdentical) {
  // Within-request parallelism: per-function model generation fans out
  // across a model pool, and the merged model (counts, calls, notes,
  // diagnostics — everything emitPython renders) must match the serial
  // walk exactly at every thread count.
  auto requests = coverageRequests();
  BatchOptions serialOptions;
  serialOptions.threads = 1;
  serialOptions.modelThreads = 1;
  BatchAnalyzer serial(serialOptions);
  std::string reference = fingerprint(serial.run(requests));
  ASSERT_FALSE(reference.empty());

  for (std::size_t modelThreads : {2u, 8u}) {
    BatchOptions options;
    options.threads = 2;
    options.modelThreads = modelThreads;
    BatchAnalyzer analyzer(options);
    EXPECT_EQ(fingerprint(analyzer.run(requests)), reference)
        << "non-deterministic model generation at " << modelThreads
        << " model threads";
  }
}

TEST(MetricGeneratorTest, PoolAndSerialModelsAgreeIncludingDiagnostics) {
  // Direct generateModel-level check (below the batch layer): a shared
  // pool with per-function diagnostic merge reproduces the serial
  // diagnostics byte for byte. listings exercises annotation warnings.
  const std::string &source = workloads::listingsSource();
  core::MiraOptions options;

  DiagnosticEngine serialDiags;
  auto serial = analyzeModel(source, "listings.mc", options, serialDiags);
  ASSERT_TRUE(serial != nullptr) << serialDiags.str();

  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    core::MiraOptions pooled = options;
    pooled.modelPool = &pool;
    DiagnosticEngine poolDiags;
    auto parallel = analyzeModel(source, "listings.mc", pooled, poolDiags);
    ASSERT_TRUE(parallel != nullptr) << poolDiags.str();
    EXPECT_EQ(model::emitPython(parallel->model),
              model::emitPython(serial->model));
    EXPECT_EQ(poolDiags.str(), serialDiags.str());
  }
}

TEST(BatchAnalyzerTest, OutcomesKeepInputOrder) {
  std::vector<AnalysisRequest> requests;
  requests.push_back(makeRequest(workloads::dgemmSource(), "first"));
  requests.push_back(makeRequest("int broken(", "second"));
  requests.push_back(makeRequest(workloads::fig5Source(), "third"));

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.run(requests);
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
  auto outcomes = analyzer.run({makeRequest("void f( {", "bad.mc")});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].analysis, nullptr);
  EXPECT_FALSE(outcomes[0].diagnostics.empty());
}

TEST(BatchAnalyzerTest, CachedDiagnosticsNameTheirProducer) {
  // Identical broken sources under different names share one cache
  // entry; the hit's diagnostics must say which request produced them
  // instead of silently citing the wrong file.
  BatchAnalyzer analyzer(BatchOptions{1, true});
  auto outcomes = analyzer.run(
      {makeRequest("int broken(", "a.mc"), makeRequest("int broken(", "b.mc")});
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
  const std::vector<AnalysisRequest> requests{
      makeRequest("int broken(", "first.mc"),
      makeRequest(workloads::fig5Source(), "fig5.mc"),
      makeRequest("int broken(", "second.mc"),
      makeRequest("int broken(", "third.mc")};
  for (int round = 0; round < 20; ++round) {
    BatchAnalyzer analyzer(BatchOptions{4, true});
    const auto outcomes = round % 2 == 0 ? analyzer.run(requests)
                                         : analyzer.analyzeMany(requests);
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
  AnalysisRequest request = makeRequest(workloads::fig5Source(), "fig5");
  std::vector<AnalysisRequest> requests{request, request, request};

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.run(requests);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 1u);
  EXPECT_EQ(analyzer.stats().cacheHits, 2u);
  EXPECT_EQ(analyzer.cacheSize(), 1u);
  // All three positions share the one cached analysis object.
  EXPECT_EQ(outcomes[0].analysis, outcomes[1].analysis);
  EXPECT_EQ(outcomes[1].analysis, outcomes[2].analysis);
}

TEST(BatchAnalyzerTest, CachePersistsAcrossRuns) {
  auto requests = coverageRequests();
  BatchOptions options;
  options.threads = 2;
  BatchAnalyzer analyzer(options);

  analyzer.run(requests);
  EXPECT_EQ(analyzer.stats().cacheMisses, requests.size());
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);

  analyzer.run(requests); // identical (source, options) pairs: all hits
  EXPECT_EQ(analyzer.stats().cacheMisses, 0u);
  EXPECT_EQ(analyzer.stats().cacheHits, requests.size());

  analyzer.clearCache();
  analyzer.run(requests);
  EXPECT_EQ(analyzer.stats().cacheMisses, requests.size());
}

TEST(BatchAnalyzerTest, DifferentOptionsDoNotShareCacheEntries) {
  AnalysisRequest optimized = makeRequest(workloads::fig5Source());
  AnalysisRequest unoptimized = optimized;
  unoptimized.options.compile.compiler.optimize = false;

  BatchAnalyzer analyzer(BatchOptions{2, true});
  auto outcomes = analyzer.run({optimized, unoptimized});
  EXPECT_EQ(analyzer.stats().cacheMisses, 2u);
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].analysis, outcomes[1].analysis);
}

TEST(BatchAnalyzerTest, CacheCanBeDisabled) {
  AnalysisRequest request = makeRequest(workloads::fig5Source());
  BatchOptions options;
  options.threads = 2;
  options.useCache = false;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.run({request, request});
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 0u);
  EXPECT_EQ(analyzer.cacheSize(), 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].analysis, outcomes[1].analysis); // recomputed
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
  // Without the program bit nothing in the result owns the IR: each
  // program is freed on the worker that built it.
  BatchAnalyzer analyzer(noCacheOptions());
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactDefault),
                                        fig5Spec(core::kArtifactDefault)});
  for (const core::Artifacts &result : results) {
    ASSERT_TRUE(result.ok) << result.diagnostics;
    EXPECT_EQ(result.program, nullptr);
    ASSERT_NE(result.resultV1, nullptr);
    EXPECT_EQ(result.resultV1->program, nullptr);
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
  auto program = results[0].program->get();
  ASSERT_NE(program, nullptr);
  ASSERT_NE(results[0].resultV1, nullptr);
  EXPECT_EQ(results[0].resultV1->program, program);
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
  ASSERT_NE(first[0].resultV1, nullptr);
  EXPECT_NE(first[0].resultV1->program, nullptr);
  const std::uint64_t before = recompiles.value();

  auto second = analyzer.runArtifacts(
      {fig5Spec(core::kArtifactDefault | core::kArtifactProgram)});
  ASSERT_TRUE(second[0].ok) << second[0].diagnostics;
  EXPECT_TRUE(second[0].cacheHit);
  ASSERT_NE(second[0].program, nullptr);
  EXPECT_TRUE(second[0].program->materialized());
  EXPECT_EQ(second[0].program->get(), first[0].resultV1->program);
  EXPECT_FALSE(second[0].recompiled);
  EXPECT_EQ(recompiles.value(), before);
}

TEST(BatchAnalyzerTest, CachedModelStillEvaluates) {
  // A cached AnalysisResult is shared const; evaluating it must work and
  // agree with a fresh serial analysis (paper FPI on the Fig. 5 model).
  BatchAnalyzer analyzer(BatchOptions{4, true});
  auto first = analyzer.run({makeRequest(workloads::fig5Source())});
  auto second = analyzer.run({makeRequest(workloads::fig5Source())});
  ASSERT_TRUE(first[0].ok);
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cacheHit);

  DiagnosticEngine diags;
  core::MiraOptions options;
  auto serial = analyzeModel(workloads::fig5Source(), "fig5.mc", options,
                             diags);
  ASSERT_TRUE(serial != nullptr) << diags.str();

  model::Env env{{"total", 8}, {"y", 16}};
  auto cached = second[0].analysis->model.evaluate("fig5_main", env);
  auto fresh = serial->model.evaluate("fig5_main", env);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
  EXPECT_EQ(cached->totalInstructions, fresh->totalInstructions);
}

} // namespace
} // namespace mira::driver
