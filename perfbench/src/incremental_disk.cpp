// incremental-disk: the manifest-rerun scenario. A fresh BatchAnalyzer
// per pass (standing in for a fresh `mira-cli batch` process) runs the
// corpus over one cache directory. Between passes a seeded 10% of the
// sources are edited, so a pass is ~90% disk loads (checksum plus
// deserialize) and ~10% full computes (serialize plus store). The byte
// cap sits at 1.25x the live set, so LRU eviction of superseded entries
// runs on every over-cap store. This is the only workload that reaches
// the CacheStore.
#include <filesystem>
#include <random>

#include "bench.h"
#include "core/artifacts.h"
#include "driver/batch.h"
#include "support/cache_store.h"

namespace perfbench {
namespace {

using mira::core::AnalysisSpec;
using mira::core::Artifacts;
using mira::driver::BatchAnalyzer;
using mira::driver::BatchOptions;

constexpr std::size_t kGenerated = 1000;
constexpr double kEditShare = 0.10;
constexpr double kCapFactor = 1.25;
constexpr int kSetupRepeats = 3;
/// (kCapFactor - 1) / kEditShare passes of edits fill the slack.
constexpr int kWarmPasses = 3;

/// The corpus plus per-source revisions; an edit appends a revision
/// comment, which changes the cache key and nothing else.
class EditableCorpus {
public:
  explicit EditableCorpus(const std::vector<CorpusSource> &corpus)
      : revisions_(corpus.size(), 0) {
    for (const CorpusSource &c : corpus) {
      AnalysisSpec spec;
      spec.name = c.name;
      spec.source = c.source;
      base_.push_back(c.source);
      specs_.push_back(std::move(spec));
    }
  }

  const std::vector<AnalysisSpec> &specs() const { return specs_; }
  std::size_t editsPerPass() const {
    return static_cast<std::size_t>(specs_.size() * kEditShare + 0.5);
  }

  /// Edit a seeded editsPerPass() distinct sources.
  void edit(std::mt19937_64 &rng) {
    std::vector<std::size_t> order(specs_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = i;
    for (std::size_t k = 0; k < editsPerPass(); ++k) {
      std::swap(order[k], order[k + rng() % (order.size() - k)]);
      const std::size_t i = order[k];
      specs_[i].source = base_[i] + "// revision " +
                         std::to_string(++revisions_[i]) + "\n";
    }
  }

private:
  std::vector<AnalysisSpec> specs_;
  std::vector<std::string> base_;
  std::vector<int> revisions_;
};

BatchOptions diskOptions(const std::string &dir, std::uint64_t cap,
                         unsigned threads) {
  BatchOptions options;
  options.threads = threads;
  options.cacheDir = dir;
  options.cacheBytesLimit = cap;
  return options;
}

/// Fill an empty cache directory with the whole corpus; returns the live
/// set's bytes.
std::uint64_t populate(const std::string &dir,
                       const std::vector<AnalysisSpec> &specs,
                       Report &report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  BatchAnalyzer analyzer(diskOptions(dir, 0, cpuCount()));
  analyzer.runArtifacts(specs);
  report.check(analyzer.stats().diskStores == specs.size() &&
                   analyzer.stats().failures == 0,
               "cold population stored " +
                   std::to_string(analyzer.stats().diskStores) + " of " +
                   std::to_string(specs.size()) + " sources");
  return analyzer.diskCache()->totalBytes();
}

/// One pass must be exactly the planned split.
void checkSplit(std::size_t hits, std::size_t misses, std::size_t stores,
                std::size_t n, std::size_t edits, Report &report) {
  report.check(hits == n - edits && misses == edits && stores == edits,
               "pass split hits/misses/stores " + std::to_string(hits) + "/" +
                   std::to_string(misses) + "/" + std::to_string(stores) +
                   ", planned " + std::to_string(n - edits) + "/" +
                   std::to_string(edits) + "/" + std::to_string(edits));
}

/// One untraced pass through a fresh analyzer.
struct PassResult {
  std::vector<Artifacts> results;
  double wall = 0;
  std::uint64_t evictions = 0;
};
PassResult untracedPass(const EditableCorpus &corpus, const std::string &dir,
                        std::uint64_t cap, unsigned threads, Report &report) {
  PassResult pass;
  const auto start = Clock::now();
  BatchAnalyzer analyzer(diskOptions(dir, cap, threads));
  pass.results = analyzer.runArtifacts(corpus.specs());
  pass.wall = secondsSince(start);
  pass.evictions = analyzer.diskCache()->stats().evictions;
  const mira::driver::BatchStats &stats = analyzer.stats();
  checkSplit(stats.diskHits, stats.diskMisses, stats.diskStores,
             corpus.specs().size(), corpus.editsPerPass(), report);
  return pass;
}

/// Disk entries must hold exactly what a local one-shot analyze
/// serializes.
void checkEntries(const EditableCorpus &corpus, const std::string &dir,
                  std::uint64_t seed, Report &report) {
  mira::CacheStore store(dir);
  std::mt19937_64 rng(seed ^ 0xd15cull);
  for (int k = 0; k < 32; ++k) {
    const AnalysisSpec &spec = corpus.specs()[rng() % corpus.specs().size()];
    std::uint32_t version = 0;
    const auto payload =
        store.peek(mira::driver::requestKey(spec), version);
    AnalysisSpec full = spec;
    full.artifacts = mira::core::kArtifactModel |
                     mira::core::kArtifactDiagnostics |
                     mira::core::kArtifactCoverage;
    const Artifacts local = mira::core::analyze(full);
    report.check(payload &&
                     *payload == mira::driver::serializeArtifactPayload(
                                     local.model.get(),
                                     local.coverage ? &*local.coverage
                                                    : nullptr,
                                     local.diagnostics, local.name),
                 spec.name + ": disk entry differs from local analyze");
  }
}

} // namespace

void runIncrementalDisk(const Args &args, Report &report) {
  const std::vector<CorpusSource> sources = buildCorpus(args.seed, kGenerated);
  EditableCorpus corpus(sources);
  const std::string dir = args.runDir + "/cache";
  const std::size_t n = corpus.specs().size();

  std::vector<double> setups;
  std::uint64_t liveBytes = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    liveBytes = populate(dir, corpus.specs(), report);
    setups.push_back(secondsSince(start));
  }
  const auto cap = static_cast<std::uint64_t>(liveBytes * kCapFactor);

  std::mt19937_64 rng(args.seed ^ 0xed175ull);
  // Untimed passes until superseded entries fill the slack above the
  // live set, so every timed pass runs at the cap and evicts.
  for (int p = 0; p < kWarmPasses; ++p) {
    corpus.edit(rng);
    untracedPass(corpus, dir, cap, cpuCount(), report);
  }
  // One pass is one slice; the edits between passes are load-generator
  // work and stay outside the pass clock.
  std::vector<Slice> slices;
  std::uint64_t ops = 0, failed = 0, evictions = 0;
  double wall = 0;
  resetPeakRss();
  while (keepMeasuring(slices, wall, args.seconds)) {
    corpus.edit(rng);
    const CpuTicks ticks = cpuTicks();
    const PassResult pass = untracedPass(corpus, dir, cap, cpuCount(), report);
    wall += pass.wall;
    evictions += pass.evictions;
    Slice slice;
    slice.wall = pass.wall;
    slice.steal = stealShare(ticks, cpuTicks());
    for (const Artifacts &a : pass.results) {
      ++ops;
      if (!a.ok || !a.model)
        ++failed;
      slice.latencies.push_back(a.seconds);
    }
    slices.push_back(std::move(slice));
  }
  report.metric("peak_rss_mb", peakRssMb(), "MB");

  reportSetup(report, setups);
  reportSlices(report, slices, args.seconds);
  report.ops(ops, failed);
  report.note("corpus: " + std::to_string(n) + " sources (" +
              std::to_string(kGenerated) + " generated), " +
              std::to_string(slices.size()) + " passes of " +
              std::to_string(corpus.editsPerPass()) + " edits, cap " +
              std::to_string(cap) + " bytes, " + std::to_string(evictions) +
              " evictions");
  checkEntries(corpus, dir, args.seed, report);
  checkAgainstSimulator(sources, args.seed, 32, report);
}

void traceIncrementalDisk(const Args &args, double seconds, Report &report,
                          TraceLog &log) {
  using namespace mira;
  const std::vector<CorpusSource> sources = buildCorpus(args.seed, kGenerated);
  EditableCorpus corpus(sources);
  const std::string dir = args.runDir + "/cache";
  const std::size_t n = corpus.specs().size();
  const auto cap =
      static_cast<std::uint64_t>(populate(dir, corpus.specs(), report) *
                                 kCapFactor);
  std::mt19937_64 rng(args.seed ^ 0xed175ull);

  // The batch layer's produce path (driver/batch.h), composed from the
  // public calls it makes, on one thread so every counter below repeats
  // exactly for a seed.
  SpanBuffer *b = &log.buffer(args.tracePid);
  CacheStore store(dir, cap);
  std::uint64_t bytesWritten = 0;
  std::uint64_t op = 0;
  const auto tracedPass = [&]() {
    std::size_t hits = 0, misses = 0, stores = 0;
    for (const core::AnalysisSpec &spec : corpus.specs()) {
      ScopedSpan whole(b, "disk.source", ++op);
      std::uint64_t key = 0;
      {
        ScopedSpan s(b, "driver.request_key", op);
        key = driver::requestKey(spec);
      }
      std::optional<std::string> payload;
      std::uint32_t version = 0;
      {
        ScopedSpan s(b, "cache_store.load", op);
        payload = store.load(key, version);
      }
      bool ok = false;
      if (payload) {
        ++hits;
        ScopedSpan s(b, "model.deserialize_payload", op);
        std::shared_ptr<const core::AnalysisResult> analysis;
        std::optional<sema::LoopCoverage> coverage;
        std::string diagnostics, producer;
        ok = driver::deserializeArtifactPayload(*payload, analysis, coverage,
                                                diagnostics, producer) &&
             analysis;
      } else {
        ++misses;
        core::AnalysisSpec full = spec;
        full.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                         core::kArtifactProgram | core::kArtifactCoverage;
        core::Artifacts computed;
        {
          ScopedSpan s(b, "pipeline.analyze", op);
          computed = core::analyze(full);
        }
        std::string bytes;
        {
          ScopedSpan s(b, "model.serialize_payload", op);
          bytes = driver::serializeArtifactPayload(
              computed.model.get(),
              computed.coverage ? &*computed.coverage : nullptr,
              computed.diagnostics, computed.name);
        }
        ScopedSpan s(b, "cache_store.store", op);
        if (store.store(key, bytes)) {
          ++stores;
          bytesWritten += bytes.size();
        }
        ok = computed.ok;
      }
      report.op(ok);
    }
    checkSplit(hits, misses, stores, n, corpus.editsPerPass(), report);
    return std::make_pair(hits, misses);
  };

  // Fixed passes first: the deterministic counters.
  constexpr int kCountedPasses = 4;
  std::size_t hits = 0, misses = 0;
  for (int p = 0; p < kCountedPasses; ++p) {
    corpus.edit(rng);
    const auto [h, m] = tracedPass();
    hits += h;
    misses += m;
  }
  const std::uint64_t evictions = store.stats().evictions;
  const std::uint64_t countedBytes = bytesWritten;

  // Then alternate untraced and traced passes at one thread each, for
  // the tracing overhead.
  double tracedWall = 0, untracedWall = 0;
  std::uint64_t tracedOps = 0, untracedOps = 0;
  const auto start = Clock::now();
  do {
    corpus.edit(rng);
    const PassResult pass = untracedPass(corpus, dir, cap, 1, report);
    untracedWall += pass.wall;
    untracedOps += n;
    for (const Artifacts &a : pass.results)
      report.op(a.ok);
    corpus.edit(rng);
    const auto passStart = Clock::now();
    tracedPass();
    tracedWall += secondsSince(passStart);
    tracedOps += n;
  } while (secondsSince(start) < seconds * 0.8);

  const std::map<std::string, SelfCost> costs = log.selfCosts(args.tracePid);
  const auto medianUs = [&](const char *name) {
    const auto it = costs.find(name);
    return it == costs.end() ? 0.0 : median(it->second.seconds) * 1e6;
  };
  report.metric("cache_store.load_us", medianUs("cache_store.load"), "us");
  report.metric("cache_store.store_us", medianUs("cache_store.store"), "us");
  report.metric("cache_store.evictions", static_cast<double>(evictions),
                "count");
  report.metric("cache_store.bytes_written", static_cast<double>(countedBytes),
                "bytes");
  report.metric("driver.request_key_us", medianUs("driver.request_key"), "us");
  report.metric("driver.disk_hit_rate",
                static_cast<double>(hits) / static_cast<double>(hits + misses),
                "ratio");
  const double untracedRate = untracedOps / untracedWall;
  const double tracedRate = tracedOps / tracedWall;
  report.metric("trace.disk_overhead_frac",
                (untracedRate - tracedRate) / untracedRate, "ratio");
  report.note("incremental-disk traced: " + std::to_string(tracedRate) +
              " traced vs " + std::to_string(untracedRate) +
              " untraced sources/s at 1 thread");
}

} // namespace perfbench
