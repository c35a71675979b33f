// Persistent-cache subsystem tests: the CacheStore on-disk format and
// its corruption tolerance (truncation, wrong schema version, torn
// payloads, concurrent writers all degrade to recompute, never to a
// failed batch), the PerformanceModel binary serializer round trip, and
// the BatchAnalyzer disk level — a second run over an unchanged corpus
// performs zero recomputation and is byte-identical to a cold run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "driver/batch.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "support/cache_store.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp root, removed on scope exit.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string &tag) {
#ifndef _WIN32
    const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
    const unsigned long pid = 0;
#endif
    path = fs::temp_directory_path() /
           ("mira_cache_test_" + tag + "_" + std::to_string(pid));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// The single cache entry file in `dir` (fails the test when there isn't
/// exactly one).
fs::path onlyEntry(const fs::path &dir) {
  std::vector<fs::path> entries;
  for (const auto &it : fs::directory_iterator(dir))
    if (it.path().extension() == ".mira")
      entries.push_back(it.path());
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? fs::path() : entries.front();
}

// ------------------------------------------------------------ CacheStore

TEST(CacheStoreTest, RoundTripAndMiss) {
  TempDir dir("roundtrip");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.usable());
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  ASSERT_TRUE(store.store(1, "hello cache"));
  auto loaded = store.load(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "hello cache");
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_GT(store.totalBytes(), 11u); // payload + header

  ASSERT_TRUE(store.store(1, "replaced"));
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_EQ(*store.load(1), "replaced");

  store.clear();
  EXPECT_EQ(store.entryCount(), 0u);
  EXPECT_FALSE(store.load(1).has_value());
}

TEST(CacheStoreTest, EmptyPayloadRoundTrips) {
  TempDir dir("empty");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(7, ""));
  auto loaded = store.load(7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(CacheStoreTest, SurvivesAcrossInstances) {
  TempDir dir("instances");
  {
    CacheStore store(dir.str());
    ASSERT_TRUE(store.store(99, "persistent"));
  }
  CacheStore reopened(dir.str());
  auto loaded = reopened.load(99);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "persistent");
}

TEST(CacheStoreTest, TruncatedEntryIsAMissAndRemoved) {
  TempDir dir("truncated");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(5, "a payload that will be cut short"));
  fs::path file = onlyEntry(dir.path);

  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(store.load(5).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(file)) << "corrupt entry should be unlinked";

  // Truncated below the header too.
  ASSERT_TRUE(store.store(5, "again"));
  fs::resize_file(onlyEntry(dir.path), 3);
  EXPECT_FALSE(store.load(5).has_value());

  // A zero-length entry file.
  ASSERT_TRUE(store.store(5, "again"));
  file = onlyEntry(dir.path);
  fs::resize_file(file, 0);
  EXPECT_FALSE(store.load(5).has_value());
  EXPECT_EQ(store.stats().corrupt, 3u);
  EXPECT_FALSE(fs::exists(file)) << "empty entry should be unlinked";

  // Trailing bytes after a well-formed payload: the header's length no
  // longer matches the file's.
  ASSERT_TRUE(store.store(5, "again"));
  file = onlyEntry(dir.path);
  std::ofstream(file, std::ios::binary | std::ios::app) << "trailing";
  EXPECT_FALSE(store.load(5).has_value());
  EXPECT_EQ(store.stats().corrupt, 4u);
  EXPECT_FALSE(fs::exists(file)) << "overlong entry should be unlinked";
}

TEST(CacheStoreTest, WrongSchemaVersionIsAMissButNotDestroyed) {
  // A different schema version — the retired schema 1 or a newer one —
  // is another binary's valid entry, not corruption: miss, but leave the
  // file alone so two versions sharing a directory cannot destroy each
  // other's caches.
  for (const std::uint32_t other : {1u, kCacheSchemaVersion + 1}) {
    TempDir dir("version" + std::to_string(other));
    CacheStore store(dir.str());
    ASSERT_TRUE(store.store(6, "versioned payload"));
    fs::path file = onlyEntry(dir.path);

    // The version field is bytes [4, 8) of the header.
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const char rewritten = static_cast<char>(other);
    f.write(&rewritten, 1);
    f.close();

    std::uint32_t version = 0;
    EXPECT_FALSE(store.load(6).has_value()) << other;
    EXPECT_FALSE(store.load(6, version).has_value()) << other;
    EXPECT_FALSE(store.peek(6, version).has_value()) << other;
    EXPECT_EQ(store.stats().corrupt, 0u) << other;
    EXPECT_TRUE(fs::exists(file)) << other;
    EXPECT_EQ(store.keys(), std::vector<std::uint64_t>{6}) << other;

    // Our own store replaces it, after which loads hit again.
    ASSERT_TRUE(store.store(6, "current version"));
    auto reloaded = store.load(6, version);
    ASSERT_TRUE(reloaded.has_value()) << other;
    EXPECT_EQ(*reloaded, "current version");
    EXPECT_EQ(version, kCacheSchemaVersion);
  }
}

TEST(CacheStoreTest, PeekDoesNotBumpRecencyOrCounters) {
  TempDir dir("peek");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(9, "peeked payload"));
  fs::path file = onlyEntry(dir.path);
  const auto mtimeBefore = fs::last_write_time(file);
  const CacheStoreStats before = store.stats();

  std::uint32_t version = 0;
  auto peeked = store.peek(9, version);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, "peeked payload");
  EXPECT_EQ(version, kCacheSchemaVersion);
  EXPECT_EQ(store.stats().hits, before.hits);
  EXPECT_EQ(store.stats().misses, before.misses);
  EXPECT_EQ(fs::last_write_time(file), mtimeBefore)
      << "peek must not perturb LRU recency";

  // Even a corrupt entry is left for the next real load to reap: an
  // inspection pass must not delete files or move counters.
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(store.peek(9, version).has_value());
  EXPECT_TRUE(fs::exists(file)) << "peek must not unlink corrupt entries";
  EXPECT_EQ(store.stats().corrupt, before.corrupt);
  EXPECT_FALSE(store.load(9).has_value()); // the real load reaps it
  EXPECT_FALSE(fs::exists(file));
  EXPECT_EQ(store.stats().corrupt, before.corrupt + 1);
}

TEST(CacheStoreTest, ClearReclaimsOrphanedTempFiles) {
  TempDir dir("orphans");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(1, "entry"));
  // A crashed writer's leftover temp alongside a foreign file.
  std::ofstream(dir.path / ".00000000000000ff.123.0.tmp") << "orphan";
  std::ofstream(dir.path / "README") << "foreign, must survive";

  store.clear();
  EXPECT_EQ(store.entryCount(), 0u);
  EXPECT_FALSE(fs::exists(dir.path / ".00000000000000ff.123.0.tmp"));
  EXPECT_TRUE(fs::exists(dir.path / "README"));
}

TEST(CacheStoreTest, FlippedPayloadByteFailsTheChecksum) {
  TempDir dir("checksum");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(8, "checksummed payload bytes"));
  fs::path file = onlyEntry(dir.path);

  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  char last = 0;
  f.seekg(-1, std::ios::end);
  f.read(&last, 1);
  f.seekp(-1, std::ios::end);
  last = static_cast<char>(last ^ 0x5a);
  f.write(&last, 1);
  f.close();

  EXPECT_FALSE(store.load(8).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CacheStoreTest, ForeignBytesAreAMiss) {
  TempDir dir("foreign");
  CacheStore store(dir.str());
  // A file with an entry-shaped name but arbitrary contents (e.g. a
  // partial write from a crashed process before atomic rename existed).
  std::ofstream(dir.path / "00000000000000aa.mira") << "not a cache entry";
  EXPECT_FALSE(store.load(0xaa).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CacheStoreTest, LruEvictionKeepsRecentEntries) {
  TempDir dir("lru");
  const std::string payload(512, 'x');
  // Each entry is 512 + 24 header bytes; cap at ~2.5 entries.
  CacheStore store(dir.str(), 1400);
  ASSERT_TRUE(store.store(1, payload));
  ASSERT_TRUE(store.store(2, payload));
  EXPECT_EQ(store.entryCount(), 2u);

  // mtime granularity can be coarse; make the LRU order unambiguous.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(store.load(1).has_value()); // bump entry 1's recency
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(store.store(3, payload)); // must evict 2 (oldest), not 1 or 3
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_TRUE(store.load(1).has_value());
  EXPECT_FALSE(store.load(2).has_value());
  EXPECT_TRUE(store.load(3).has_value());
}

/// Path of `key`'s entry file (the `<16 hex>.mira` naming contract).
fs::path entryFile(const TempDir &dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.mira",
                static_cast<unsigned long long>(key));
  return dir.path / name;
}

/// Stamp `key`'s entry with an mtime `offset` away from now, so LRU
/// order is explicit instead of depending on mtime granularity.
void setAge(const TempDir &dir, std::uint64_t key,
            std::chrono::seconds offset) {
  fs::last_write_time(entryFile(dir, key),
                      fs::file_time_type::clock::now() + offset);
}

TEST(CacheStoreTest, EvictionTrimsToLowWaterMark) {
  TempDir dir("lowwater");
  const std::string payload(512, 'x'); // 536-byte entries
  constexpr std::uint64_t kEntry = 512 + 24;
  constexpr std::uint64_t kCap = 10 * kEntry;
  constexpr std::uint64_t kLowWater = kCap - kCap / 10;
  CacheStore store(dir.str(), kCap);
  for (std::uint64_t key = 1; key <= 10; ++key)
    ASSERT_TRUE(store.store(key, payload));
  EXPECT_EQ(store.totalBytes(), kCap);
  EXPECT_EQ(store.stats().evictions, 0u) << "at the cap is not over it";

  // Entry k is k minutes in the future, so 1 is the oldest of these and
  // the next store's own entry (stamped now) is older than all of them.
  for (std::uint64_t key = 1; key <= 10; ++key)
    setAge(dir, key, std::chrono::minutes(key));

  // (a) One over-cap store trims to the low-water mark, oldest first,
  // and skips the entry it just wrote.
  ASSERT_TRUE(store.store(11, payload));
  EXPECT_LE(store.totalBytes(), kLowWater);
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_FALSE(fs::exists(entryFile(dir, 1)));
  EXPECT_FALSE(fs::exists(entryFile(dir, 2)));
  for (std::uint64_t key = 3; key <= 11; ++key)
    EXPECT_TRUE(fs::exists(entryFile(dir, key))) << "key " << key;

  // (b) The slack absorbs the next store without another pass.
  ASSERT_TRUE(store.store(12, payload));
  EXPECT_EQ(store.totalBytes(), kCap);
  EXPECT_EQ(store.stats().evictions, 2u);

  // An entry bigger than the low-water mark on its own: everything else
  // goes, the protected entry stays.
  ASSERT_TRUE(store.store(13, std::string(kCap, 'y')));
  EXPECT_EQ(store.keys(), std::vector<std::uint64_t>{13});
  EXPECT_EQ(store.stats().evictions, 12u);
}

TEST(CacheStoreTest, EvictionSeesRecencyFromAnotherInstance) {
  TempDir dir("crossinstance");
  const std::string payload(512, 'x');
  constexpr std::uint64_t kCap = 10 * (512 + 24);
  constexpr std::uint64_t kX = 1;
  {
    CacheStore writer(dir.str());
    for (std::uint64_t key = 1; key <= 10; ++key)
      ASSERT_TRUE(writer.store(key, payload));
  }
  // X is the oldest entry by far; the rest are about an hour old, 2
  // the oldest of them.
  setAge(dir, kX, -std::chrono::hours(2));
  for (std::uint64_t key = 2; key <= 10; ++key)
    setAge(dir, key, -std::chrono::hours(1) + std::chrono::minutes(key));

  CacheStore a(dir.str(), kCap);
  CacheStore b(dir.str(), kCap);
  ASSERT_TRUE(a.load(kX).has_value()); // A's use makes X the newest

  // B never saw that load in-process; the mtime must carry it.
  ASSERT_TRUE(b.store(11, payload));
  EXPECT_GT(b.stats().evictions, 0u);
  EXPECT_TRUE(fs::exists(entryFile(dir, kX)))
      << "evicted the entry another instance just used";
  EXPECT_FALSE(fs::exists(entryFile(dir, 2))) << "oldest unused entry";
}

TEST(CacheStoreTest, ConcurrentWritersNeverProduceTornReads) {
  TempDir dir("concurrent");
  CacheStore store(dir.str());
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> tornReads{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &tornReads, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Everyone hammers the same key with distinct payloads plus a
        // private key; any load must see some writer's complete payload.
        const std::string payload =
            "writer " + std::to_string(t) + " round " + std::to_string(round);
        store.store(0xc0ffee, payload);
        store.store(0x1000 + static_cast<std::uint64_t>(t), payload);
        auto shared = store.load(0xc0ffee);
        if (shared && shared->find("writer ") != 0)
          ++tornReads;
        auto own = store.load(0x1000 + static_cast<std::uint64_t>(t));
        if (own && *own != payload)
          ++tornReads;
      }
    });
  }
  for (auto &thread : threads)
    thread.join();
  EXPECT_EQ(tornReads.load(), 0);
  EXPECT_EQ(store.stats().corrupt, 0u);
  auto final = store.load(0xc0ffee);
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(final->find("writer "), 0u);
}

// ------------------------------------------------------- model serializer

model::PerformanceModel analyzeOrDie(const std::string &source) {
  core::AnalysisSpec spec;
  spec.name = "test.mc";
  spec.source = source;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  core::Artifacts artifacts = core::analyze(spec);
  EXPECT_TRUE(artifacts.ok && artifacts.model) << artifacts.diagnostics;
  return artifacts.model ? *artifacts.model : model::PerformanceModel{};
}

TEST(ModelSerializeTest, RoundTripIsByteIdentical) {
  for (const std::string *source :
       {&workloads::fig5Source(), &workloads::dgemmSource(),
        &workloads::minifeSource()}) {
    const model::PerformanceModel generated = analyzeOrDie(*source);
    std::string bytes;
    model::serializeModel(generated, bytes);

    model::PerformanceModel restored;
    std::size_t offset = 0;
    ASSERT_TRUE(model::deserializeModel(bytes, offset, restored));
    EXPECT_EQ(offset, bytes.size());
    // emitPython renders every expression, count, call binding, and note,
    // so byte equality here means the models are semantically identical.
    EXPECT_EQ(model::emitPython(restored), model::emitPython(generated));
  }
}

TEST(ModelSerializeTest, RestoredModelEvaluates) {
  const model::PerformanceModel generated = analyzeOrDie(workloads::fig5Source());
  std::string bytes;
  model::serializeModel(generated, bytes);
  model::PerformanceModel restored;
  std::size_t offset = 0;
  ASSERT_TRUE(model::deserializeModel(bytes, offset, restored));

  model::Env env{{"total", 8}, {"y", 16}};
  auto fresh = generated.evaluate("fig5_main", env);
  auto cached = restored.evaluate("fig5_main", env);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
  EXPECT_EQ(cached->totalInstructions, fresh->totalInstructions);
}

TEST(ModelSerializeTest, RejectsTruncatedAndMutatedBuffers) {
  const model::PerformanceModel generated = analyzeOrDie(workloads::fig5Source());
  std::string bytes;
  model::serializeModel(generated, bytes);

  // Every truncation must fail cleanly, never crash or over-read.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                          std::size_t(5), std::size_t(0)}) {
    model::PerformanceModel out;
    std::size_t offset = 0;
    EXPECT_FALSE(
        model::deserializeModel(bytes.substr(0, cut), offset, out))
        << "truncated to " << cut << " bytes";
  }
}

// ------------------------------------------------- disk-backed batch runs

/// A model + diagnostics spec (core::kArtifactDefault).
core::AnalysisSpec makeSpec(const std::string &name,
                            const std::string &source) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  return spec;
}

std::vector<core::AnalysisSpec> suiteSpecs() {
  std::vector<core::AnalysisSpec> specs;
  for (const auto &kernel : workloads::coverageSuite())
    specs.push_back(makeSpec(kernel.name, kernel.source));
  return specs;
}

/// Canonical byte rendering of a batch (same scheme as driver_test.cpp).
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

driver::BatchOptions diskOptions(const TempDir &dir, std::size_t threads) {
  driver::BatchOptions options;
  options.threads = threads;
  options.cacheDir = dir.str();
  return options;
}

TEST(DiskCacheBatchTest, SecondRunPerformsZeroRecomputation) {
  TempDir dir("warm");
  auto specs = suiteSpecs();

  driver::BatchAnalyzer cold(diskOptions(dir, 2));
  std::string coldPrint = fingerprint(cold.runArtifacts(specs));
  EXPECT_EQ(cold.stats().failures, 0u);
  EXPECT_EQ(cold.stats().diskHits, 0u);
  EXPECT_EQ(cold.stats().diskMisses, specs.size());
  EXPECT_EQ(cold.stats().diskStores, specs.size());

  // A brand-new analyzer (fresh process, as far as the in-memory level
  // is concerned): everything must come from disk, nothing recomputed.
  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  std::string warmPrint = fingerprint(warm.runArtifacts(specs));
  EXPECT_EQ(warm.stats().cacheMisses, 0u) << "a warm run recomputed";
  EXPECT_EQ(warm.stats().cacheHits, specs.size());
  EXPECT_EQ(warm.stats().diskHits, specs.size());
  EXPECT_EQ(warm.stats().diskMisses, 0u);
  EXPECT_EQ(warm.stats().failures, 0u);
  EXPECT_EQ(warmPrint, coldPrint) << "disk round trip changed results";
}

TEST(DiskCacheBatchTest, FailedAnalysesAreCachedToo) {
  TempDir dir("failures");
  const std::vector<core::AnalysisSpec> specs{
      makeSpec("bad.mc", "int broken(")};

  driver::BatchAnalyzer cold(diskOptions(dir, 1));
  auto coldOutcomes = cold.runArtifacts(specs);
  EXPECT_FALSE(coldOutcomes[0].ok);
  EXPECT_EQ(cold.stats().diskStores, 1u);

  driver::BatchAnalyzer warm(diskOptions(dir, 1));
  auto warmOutcomes = warm.runArtifacts(specs);
  EXPECT_FALSE(warmOutcomes[0].ok);
  EXPECT_TRUE(warmOutcomes[0].cacheHit);
  EXPECT_EQ(warm.stats().diskHits, 1u);
  EXPECT_EQ(warmOutcomes[0].diagnostics, coldOutcomes[0].diagnostics);
}

TEST(DiskCacheBatchTest, DiskHitsCarryTheModelButNotTheProgram) {
  TempDir dir("program");
  core::AnalysisSpec spec = makeSpec("fig5", workloads::fig5Source());
  spec.artifacts |= core::kArtifactProgram;
  const std::vector<core::AnalysisSpec> specs{spec};

  driver::BatchAnalyzer cold(diskOptions(dir, 1));
  auto coldOutcomes = cold.runArtifacts(specs);
  ASSERT_TRUE(coldOutcomes[0].ok);
  ASSERT_NE(coldOutcomes[0].program, nullptr);
  EXPECT_FALSE(coldOutcomes[0].program->isDeferred());
  EXPECT_TRUE(coldOutcomes[0].program->materialized());

  driver::BatchAnalyzer warm(diskOptions(dir, 1));
  auto warmOutcomes = warm.runArtifacts(specs);
  ASSERT_TRUE(warmOutcomes[0].ok);
  EXPECT_TRUE(warmOutcomes[0].cacheHit);
  // The documented restriction: disk hits restore the model only; the
  // program comes back only through the recompile-on-demand handle.
  ASSERT_NE(warmOutcomes[0].program, nullptr);
  EXPECT_TRUE(warmOutcomes[0].program->isDeferred());
  EXPECT_FALSE(warmOutcomes[0].program->materialized());
  model::Env env{{"total", 8}, {"y", 16}};
  auto cached = warmOutcomes[0].model->evaluate("fig5_main", env);
  auto fresh = coldOutcomes[0].model->evaluate("fig5_main", env);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
}

TEST(DiskCacheBatchTest, CorruptedEntriesFallBackToRecompute) {
  TempDir dir("corrupt");
  auto specs = suiteSpecs();

  driver::BatchAnalyzer cold(diskOptions(dir, 2));
  std::string reference = fingerprint(cold.runArtifacts(specs));

  // Vandalize every cached entry a different way: truncate, rewrite
  // garbage, or chop to below the header.
  int mode = 0;
  for (const auto &it : fs::directory_iterator(dir.path)) {
    if (it.path().extension() != ".mira")
      continue;
    switch (mode++ % 3) {
    case 0:
      fs::resize_file(it.path(), fs::file_size(it.path()) / 2);
      break;
    case 1:
      std::ofstream(it.path(), std::ios::trunc) << "garbage";
      break;
    case 2:
      fs::resize_file(it.path(), 2);
      break;
    }
  }

  driver::BatchAnalyzer recover(diskOptions(dir, 2));
  std::string recovered = fingerprint(recover.runArtifacts(specs));
  EXPECT_EQ(recover.stats().failures, 0u)
      << "corrupt cache entries must never fail the batch";
  EXPECT_EQ(recover.stats().diskHits, 0u);
  EXPECT_EQ(recover.stats().diskMisses, specs.size());
  EXPECT_EQ(recover.stats().diskStores, specs.size()) << "re-stored";
  EXPECT_EQ(recovered, reference);

  // And the re-stored entries are valid again.
  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  warm.runArtifacts(specs);
  EXPECT_EQ(warm.stats().diskHits, specs.size());
}

TEST(DiskCacheBatchTest, ConcurrentAnalyzersShareOneDirectory) {
  TempDir dir("shared");
  auto specs = suiteSpecs();

  // Two analyzers race over the same cache directory (stand-in for two
  // processes); both must succeed and agree, whoever wins each store.
  driver::BatchAnalyzer a(diskOptions(dir, 2));
  driver::BatchAnalyzer b(diskOptions(dir, 2));
  std::string printA, printB;
  std::thread threadA([&] { printA = fingerprint(a.runArtifacts(specs)); });
  std::thread threadB([&] { printB = fingerprint(b.runArtifacts(specs)); });
  threadA.join();
  threadB.join();
  EXPECT_EQ(a.stats().failures, 0u);
  EXPECT_EQ(b.stats().failures, 0u);
  EXPECT_EQ(printA, printB);

  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  warm.runArtifacts(specs);
  EXPECT_EQ(warm.stats().diskHits, specs.size());
  EXPECT_EQ(warm.stats().failures, 0u);
}

TEST(DiskCacheBatchTest, UnwritableDirectoryDegradesToCompute) {
  // A cache dir that cannot be created (file in the way) must not fail
  // the batch — the disk level just disables itself.
  TempDir dir("unwritable");
  const std::string blocker = (dir.path / "blocker").string();
  std::ofstream(blocker) << "in the way";

  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = blocker; // a file, not a directory
  driver::BatchAnalyzer analyzer(options);
  auto outcomes =
      analyzer.runArtifacts({makeSpec("fig5", workloads::fig5Source())});
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(analyzer.stats().failures, 0u);
}

TEST(DiskCacheBatchTest, ByteCapEvictsButNeverBreaks) {
  TempDir dir("cap");
  auto specs = suiteSpecs();
  driver::BatchOptions options = diskOptions(dir, 2);
  options.cacheBytesLimit = 16 * 1024; // far too small for the whole suite
  driver::BatchAnalyzer analyzer(options);
  analyzer.runArtifacts(specs);
  EXPECT_EQ(analyzer.stats().failures, 0u);
  ASSERT_NE(analyzer.diskCache(), nullptr);
  EXPECT_LE(analyzer.diskCache()->totalBytes(), options.cacheBytesLimit);
  EXPECT_GT(analyzer.diskCache()->stats().evictions, 0u);
}

} // namespace
} // namespace mira
