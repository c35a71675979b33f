#include "driver/batch.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>

#include <stdexcept>
#include <unordered_map>

#include "model/serialize.h"
#include "support/binary_io.h"
#include "support/fault_injection.h"
#include "support/hash.h"
#include "symbolic/interner.h"

namespace mira::driver {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

} // namespace

std::uint64_t requestKeyFromContentHash(std::uint64_t contentHash,
                                        const core::MiraOptions &o) {
  // Tripwire: adding a field to either options struct changes its size;
  // update the fingerprint below (and the driver_test key tests), then
  // adjust these expected sizes. Execution-strategy fields of
  // MiraOptions (modelPool), the artifact mask, simulation arguments,
  // and everything in BatchOptions must stay OUT of the key: they never
  // change what the pipeline computes, and hashing them would make the
  // on-disk cache miss across equivalent configurations.
  static_assert(sizeof(mir::CompilerOptions) == 2 &&
                    sizeof(metrics::MetricOptions) == 1,
                "options gained a field: requestKey must hash it too");
  std::uint64_t key = contentHash;
  std::uint8_t flags = 0;
  flags |= o.compile.compiler.optimize ? 1 : 0;
  flags |= o.compile.compiler.vectorize ? 2 : 0;
  flags |= o.metrics.assumeBranchesTaken ? 4 : 0;
  key = fnv1a(&flags, sizeof(flags), key);
  if (o.arch)
    key = fnv1a(o.arch->name, key);
  return key;
}

std::uint64_t requestKey(const core::AnalysisSpec &spec) {
  // The manifest layer (corpus/manifest.h) relies on this exact
  // factoring: its stored content hash is fnv1a(source), so hash + the
  // continuation below reproduces the key without the source bytes.
  return requestKeyFromContentHash(fnv1a(spec.source), spec.options);
}

std::uint64_t requestKey(const AnalysisRequest &request) {
  core::AnalysisSpec spec;
  spec.source = request.source;
  spec.options = request.options;
  return requestKey(spec);
}

// --------------------------------------------------- shard planning

bool parseShardSpec(const std::string &text, ShardSpec &shard) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
    return false;
  const std::string indexDigits = text.substr(0, slash);
  const std::string countDigits = text.substr(slash + 1);
  if (indexDigits.find_first_not_of("0123456789") != std::string::npos ||
      countDigits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long index =
      std::strtoull(indexDigits.c_str(), nullptr, 10);
  const unsigned long long count =
      std::strtoull(countDigits.c_str(), nullptr, 10);
  // ERANGE saturates to ULLONG_MAX — an overflowed shard count would be
  // silently accepted and match (almost) no keys.
  if (errno == ERANGE || index < 1 || count < 1 || index > count)
    return false;
  shard.index = static_cast<std::size_t>(index - 1); // CLI is 1-based
  shard.count = static_cast<std::size_t>(count);
  return true;
}

bool keyInShard(std::uint64_t key, const ShardSpec &shard) {
  if (shard.count <= 1)
    return true;
  // Finalize (splitmix64) before the modulo: request keys have low-bit
  // structure (whole corpora share key % 4), and a raw `key % count`
  // then leaves entire shards empty — fatal for a fleet run, where an
  // empty shard means an idle worker and a loaded one does everything.
  std::uint64_t mixed = key;
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ull;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebull;
  mixed ^= mixed >> 31;
  return mixed % shard.count == shard.index;
}

ManifestSelection selectManifestEntries(const corpus::Manifest &manifest,
                                        const corpus::Manifest *since,
                                        const core::MiraOptions &options,
                                        const ShardSpec &shard) {
  ManifestSelection selection;
  std::vector<corpus::ManifestEntry> candidates;
  if (since) {
    const corpus::ManifestDiff diff = corpus::diffManifests(*since, manifest);
    selection.added = diff.added.size();
    selection.changed = diff.changed.size();
    selection.removed = diff.removed.size();
    // Both diff vectors are path-sorted; merging keeps manifest order,
    // which is what makes reports byte-comparable across invocations.
    std::merge(diff.added.begin(), diff.added.end(), diff.changed.begin(),
               diff.changed.end(), std::back_inserter(candidates),
               [](const corpus::ManifestEntry &a,
                  const corpus::ManifestEntry &b) { return a.path < b.path; });
  } else {
    candidates = manifest.entries;
    selection.added = candidates.size();
  }
  selection.candidates = candidates.size();
  for (corpus::ManifestEntry &entry : candidates) {
    if (keyInShard(requestKeyFromContentHash(entry.contentHash, options),
                   shard))
      selection.entries.push_back(std::move(entry));
  }
  return selection;
}

// ------------------------------------------- stats & report merging

BatchStats mergeBatchStats(const std::vector<BatchStats> &parts) {
  BatchStats merged;
  for (const BatchStats &part : parts) {
    merged.requests += part.requests;
    merged.failures += part.failures;
    merged.cacheHits += part.cacheHits;
    merged.cacheMisses += part.cacheMisses;
    merged.diskHits += part.diskHits;
    merged.diskMisses += part.diskMisses;
    merged.diskStores += part.diskStores;
    merged.modelArtifacts += part.modelArtifacts;
    merged.programArtifacts += part.programArtifacts;
    merged.coverageArtifacts += part.coverageArtifacts;
    merged.simulationArtifacts += part.simulationArtifacts;
    merged.coverageFromCache += part.coverageFromCache;
    merged.recompiles += part.recompiles;
    // Shards run concurrently: their wall clocks overlap, so the batch
    // took as long as its slowest shard, not the sum.
    merged.wallSeconds = std::max(merged.wallSeconds, part.wallSeconds);
  }
  return merged;
}

BatchStats tallyBatchStats(const std::vector<core::Artifacts> &results,
                           bool useCache) {
  BatchStats stats;
  stats.requests = results.size();
  for (const core::Artifacts &artifacts : results) {
    if (!artifacts.ok)
      ++stats.failures;
    if (useCache) {
      if (artifacts.cacheHit)
        ++stats.cacheHits;
      else
        ++stats.cacheMisses;
    }
    if ((artifacts.requested & core::kArtifactModel) && artifacts.model)
      ++stats.modelArtifacts;
    if ((artifacts.requested & core::kArtifactProgram) && artifacts.program)
      ++stats.programArtifacts;
    if ((artifacts.requested & core::kArtifactCoverage) && artifacts.coverage)
      ++stats.coverageArtifacts;
    if (artifacts.simulation)
      ++stats.simulationArtifacts;
    if (artifacts.coverageFromCache)
      ++stats.coverageFromCache;
    if (artifacts.recompiled)
      ++stats.recompiles;
    if (artifacts.diskHit)
      ++stats.diskHits;
    if (artifacts.diskMiss)
      ++stats.diskMisses;
    if (artifacts.diskStored)
      ++stats.diskStores;
  }
  return stats;
}

namespace {

// Report file magic: the bytes "MirR", read as a little-endian u32.
constexpr std::uint32_t kReportMagic = 0x5272694du;
constexpr std::uint32_t kReportVersion = 1;

void putReportStats(std::string &out, const BatchStats &stats) {
  // Every counter except wallSeconds, in declaration order. Timing is
  // deliberately absent: a report must be byte-identical across runs
  // and process counts for the shard-merge correctness check.
  bio::putU64(out, stats.requests);
  bio::putU64(out, stats.failures);
  bio::putU64(out, stats.cacheHits);
  bio::putU64(out, stats.cacheMisses);
  bio::putU64(out, stats.diskHits);
  bio::putU64(out, stats.diskMisses);
  bio::putU64(out, stats.diskStores);
  bio::putU64(out, stats.modelArtifacts);
  bio::putU64(out, stats.programArtifacts);
  bio::putU64(out, stats.coverageArtifacts);
  bio::putU64(out, stats.simulationArtifacts);
  bio::putU64(out, stats.coverageFromCache);
  bio::putU64(out, stats.recompiles);
}

bool readReportStats(bio::Reader &r, BatchStats &stats) {
  std::uint64_t values[13];
  for (std::uint64_t &value : values)
    if (!r.u64(value))
      return false;
  stats = BatchStats{};
  stats.requests = static_cast<std::size_t>(values[0]);
  stats.failures = static_cast<std::size_t>(values[1]);
  stats.cacheHits = static_cast<std::size_t>(values[2]);
  stats.cacheMisses = static_cast<std::size_t>(values[3]);
  stats.diskHits = static_cast<std::size_t>(values[4]);
  stats.diskMisses = static_cast<std::size_t>(values[5]);
  stats.diskStores = static_cast<std::size_t>(values[6]);
  stats.modelArtifacts = static_cast<std::size_t>(values[7]);
  stats.programArtifacts = static_cast<std::size_t>(values[8]);
  stats.coverageArtifacts = static_cast<std::size_t>(values[9]);
  stats.simulationArtifacts = static_cast<std::size_t>(values[10]);
  stats.coverageFromCache = static_cast<std::size_t>(values[11]);
  stats.recompiles = static_cast<std::size_t>(values[12]);
  return true;
}

} // namespace

std::string serializeBatchReport(const BatchReport &report) {
  std::string out;
  bio::putU32(out, kReportMagic);
  bio::putU32(out, kReportVersion);
  putReportStats(out, report.stats);
  bio::putU32(out, static_cast<std::uint32_t>(report.entries.size()));
  for (const BatchReportEntry &entry : report.entries) {
    bio::putString(out, entry.name);
    bio::putU64(out, entry.key);
    bio::putU8(out, entry.ok ? 1 : 0);
  }
  bio::putU64(out, fnv1a(out));
  return out;
}

bool deserializeBatchReport(const std::string &bytes, BatchReport &report,
                            std::string &error) {
  report = BatchReport{};
  bio::Reader r{bytes, 0};
  std::uint32_t magic = 0, version = 0, count = 0;
  if (!r.u32(magic) || magic != kReportMagic) {
    error = "not a Mira batch report (bad magic)";
    return false;
  }
  if (!r.u32(version) || version != kReportVersion) {
    error = "unsupported report version " + std::to_string(version);
    return false;
  }
  if (!readReportStats(r, report.stats)) {
    error = "truncated report counter block";
    return false;
  }
  if (!r.u32(count)) {
    error = "truncated report entry count";
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchReportEntry entry;
    std::uint8_t ok = 0;
    if (!r.str(entry.name) || !r.u64(entry.key) || !r.u8(ok) || ok > 1) {
      error = "truncated report entry " + std::to_string(i);
      return false;
    }
    entry.ok = ok == 1;
    report.entries.push_back(std::move(entry));
  }
  const std::size_t checksummed = r.offset;
  std::uint64_t checksum = 0;
  if (!r.u64(checksum) || r.remaining() != 0) {
    error = "truncated or oversized report trailer";
    return false;
  }
  if (fnv1a(bytes.data(), checksummed) != checksum) {
    error = "report checksum mismatch (corrupt or torn file)";
    return false;
  }
  return true;
}

BatchReport mergeBatchReports(const std::vector<BatchReport> &parts) {
  BatchReport merged;
  std::vector<BatchStats> stats;
  stats.reserve(parts.size());
  for (const BatchReport &part : parts) {
    stats.push_back(part.stats);
    merged.entries.insert(merged.entries.end(), part.entries.begin(),
                          part.entries.end());
  }
  merged.stats = mergeBatchStats(stats);
  // (name, key) order == manifest order for manifest-driven shards:
  // manifests are path-sorted and each shard preserved that order over
  // its disjoint subset, so this sort is what makes the merged report
  // byte-identical to a single-process run's.
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const BatchReportEntry &a, const BatchReportEntry &b) {
              return a.name != b.name ? a.name < b.name : a.key < b.key;
            });
  return merged;
}

// ------------------------------------------------------ payload codecs

// v1 payload layout (schema 1, still read from old disk entries and
// written to v1 wire clients):
//   [ok u8][producerName str][diagnostics str][model bytes when ok]
std::string serializeOutcomePayloadV1(const core::AnalysisResult *analysis,
                                      const std::string &diagnostics,
                                      const std::string &producerName) {
  std::string out;
  bio::putU8(out, analysis ? 1 : 0);
  bio::putString(out, producerName);
  bio::putString(out, diagnostics);
  if (analysis)
    model::serializeModel(analysis->model, out);
  return out;
}

bool deserializeOutcomePayloadV1(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::string &diagnostics, std::string &producerName) {
  bio::Reader r{payload, 0};
  std::uint8_t ok = 0;
  if (!r.u8(ok) || ok > 1)
    return false;
  if (!r.str(producerName) || !r.str(diagnostics))
    return false;
  if (!ok) {
    analysis = nullptr;
    return r.remaining() == 0;
  }
  auto result = std::make_shared<core::AnalysisResult>();
  std::size_t offset = r.offset;
  if (!model::deserializeModel(payload, offset, result->model))
    return false;
  if (offset != payload.size())
    return false; // trailing garbage: treat as corrupt
  analysis = std::move(result);
  return true;
}

// v2 payload layout (schema 2 — bump kCacheSchemaVersion when changing
// this): [ok u8][producerName str][diagnostics str] then, when ok,
// [hasCoverage u8][loops u64][statements u64][inLoop u64]?[model bytes].
// Shared by the disk cache and the v2 wire protocol (docs/PROTOCOL.md),
// which is what makes a daemon-served result byte-identical to a
// disk-cached one by construction. hasCoverage is 0 only for values that
// round-tripped through a v1 entry (the summary was never stored).
std::string serializeArtifactPayload(const model::PerformanceModel *model,
                                     const sema::LoopCoverage *coverage,
                                     const std::string &diagnostics,
                                     const std::string &producerName) {
  std::string out;
  bio::putU8(out, model ? 1 : 0);
  bio::putString(out, producerName);
  bio::putString(out, diagnostics);
  if (!model)
    return out;
  bio::putU8(out, coverage ? 1 : 0);
  if (coverage) {
    bio::putU64(out, coverage->loops);
    bio::putU64(out, coverage->statements);
    bio::putU64(out, coverage->inLoopStatements);
  }
  model::serializeModel(*model, out);
  return out;
}

bool deserializeArtifactPayload(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::optional<sema::LoopCoverage> &coverage, std::string &diagnostics,
    std::string &producerName) {
  coverage.reset();
  bio::Reader r{payload, 0};
  std::uint8_t ok = 0;
  if (!r.u8(ok) || ok > 1)
    return false;
  if (!r.str(producerName) || !r.str(diagnostics))
    return false;
  if (!ok) {
    analysis = nullptr;
    return r.remaining() == 0;
  }
  std::uint8_t hasCoverage = 0;
  if (!r.u8(hasCoverage) || hasCoverage > 1)
    return false;
  if (hasCoverage) {
    std::uint64_t loops = 0, statements = 0, inLoop = 0;
    if (!r.u64(loops) || !r.u64(statements) || !r.u64(inLoop))
      return false;
    sema::LoopCoverage summary;
    summary.loops = static_cast<std::size_t>(loops);
    summary.statements = static_cast<std::size_t>(statements);
    summary.inLoopStatements = static_cast<std::size_t>(inLoop);
    coverage = summary;
  }
  auto result = std::make_shared<core::AnalysisResult>();
  std::size_t offset = r.offset;
  if (!model::deserializeModel(payload, offset, result->model))
    return false;
  if (offset != payload.size())
    return false; // trailing garbage: treat as corrupt
  analysis = std::move(result);
  return true;
}

// -------------------------------------------------------- BatchAnalyzer

void publishInternGauges(core::MetricsRegistry &metrics) {
  const symbolic::InternStats stats = symbolic::ExprInterner::globalStats();
  metrics.gauge("intern_hits").set(stats.hits);
  metrics.gauge("intern_misses").set(stats.misses);
  metrics.gauge("intern_nodes").set(stats.nodes);
}

BatchAnalyzer::BatchAnalyzer(BatchOptions options)
    : options_(std::move(options)), pool_(options_.threads),
      owned_metrics_(options_.metrics ? nullptr : new core::MetricsRegistry()),
      metrics_(options_.metrics ? options_.metrics : owned_metrics_.get()),
      requests_(metrics_->counter("analyzer_requests_total")),
      failures_(metrics_->counter("analyzer_failures_total")),
      cache_hits_(metrics_->counter("analyzer_cache_hits_total")),
      computed_(metrics_->counter("analyzer_computed_total")),
      disk_hits_(metrics_->counter("analyzer_disk_hits_total")),
      disk_misses_(metrics_->counter("analyzer_disk_misses_total")),
      disk_stores_(metrics_->counter("analyzer_disk_stores_total")),
      coverage_from_cache_(
          metrics_->counter("analyzer_coverage_from_cache_total")),
      recompiles_(metrics_->counter("analyzer_recompiles_total")) {
  if (options_.modelThreads > 1)
    model_pool_ = std::make_unique<ThreadPool>(options_.modelThreads);
  if (options_.useCache && !options_.cacheDir.empty())
    disk_ = std::make_unique<CacheStore>(options_.cacheDir,
                                         options_.cacheBytesLimit);
  // Contained task exceptions are a should-not-happen signal (computeValue
  // catches at the task boundary), so surface them in the shared registry
  // rather than letting them vanish into the pool.
  core::MetricsRegistry::Counter &poolExceptions =
      metrics_->counter("pool_task_exceptions_total");
  pool_.setExceptionHandler([&poolExceptions] { poolExceptions.increment(); });
  if (model_pool_)
    model_pool_->setExceptionHandler(
        [&poolExceptions] { poolExceptions.increment(); });
}

std::size_t BatchAnalyzer::cacheSize() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void BatchAnalyzer::clearCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
}

core::AnalysisSpec BatchAnalyzer::toSpec(const AnalysisRequest &request) {
  core::AnalysisSpec spec;
  spec.name = request.name;
  spec.source = request.source;
  spec.options = request.options;
  spec.artifacts = core::kArtifactDefault;
  return spec;
}

AnalysisOutcome BatchAnalyzer::toOutcome(core::Artifacts &&artifacts) {
  AnalysisOutcome outcome;
  outcome.name = std::move(artifacts.name);
  outcome.ok = artifacts.ok;
  outcome.cacheHit = artifacts.cacheHit;
  outcome.analysis = std::move(artifacts.resultV1);
  outcome.diagnostics = std::move(artifacts.diagnostics);
  outcome.seconds = artifacts.seconds;
  return outcome;
}

BatchAnalyzer::CacheValue
BatchAnalyzer::computeValue(const core::AnalysisSpec &spec) {
  CacheValue value;
  value.producerName = spec.name;
  // The pipeline reports through diagnostics, but an escaping exception
  // (e.g. bad_alloc) must fail one request, not terminate the pool.
  try {
    // Injection point: exercises the transient-failure path (and, under
    // a crash rule, death at an arbitrary point mid-batch).
    if (fault::shouldFail("compute"))
      throw std::runtime_error("injected compute fault");
    core::AnalysisSpec full = spec;
    if (options_.useCache) {
      // Full compute populates every cache layer regardless of the
      // requesting mask: the model (the expensive stage), the coverage
      // summary (one cheap AST walk), and the live program — later
      // requests for any mask are then free. Simulation is per-call
      // and deliberately excluded (fulfill() runs it on the handle).
      full.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                       core::kArtifactProgram | core::kArtifactCoverage;
    } else {
      // No cache to populate: run only what this request asked for
      // (minus simulation, which fulfill() executes), so a no-cache
      // coverage or simulate request never pays for model generation.
      full.artifacts = (spec.artifacts & ~core::kArtifactSimulation) |
                       core::kArtifactDiagnostics;
    }
    if (model_pool_)
      full.options.modelPool = model_pool_.get();
    DiagnosticEngine diags;
    core::Artifacts artifacts = core::analyze(full, diags);
    value.diagnostics = std::move(artifacts.diagnostics);
    if (artifacts.ok) {
      value.ok = true;
      value.analysis = std::move(artifacts.resultV1);
      value.model = std::move(artifacts.model);
      value.coverage = artifacts.coverage;
      value.program = std::move(artifacts.program);
    }
  } catch (const std::exception &e) {
    value = CacheValue{};
    value.producerName = spec.name;
    value.diagnostics = spec.name + ": internal error: " + e.what();
    value.transientFailure = true;
  }
  return value;
}

BatchAnalyzer::CacheValue
BatchAnalyzer::produceValue(const core::AnalysisSpec &spec,
                            std::uint64_t key) {
  if (disk_) {
    std::uint32_t version = 0;
    if (auto payload = disk_->load(key, version)) {
      CacheValue value;
      value.fromDisk = true;
      const bool parsed =
          version >= 2
              ? deserializeArtifactPayload(*payload, value.analysis,
                                           value.coverage, value.diagnostics,
                                           value.producerName)
              : deserializeOutcomePayloadV1(*payload, value.analysis,
                                            value.diagnostics,
                                            value.producerName);
      if (parsed) {
        value.ok = value.analysis != nullptr;
        if (value.analysis) {
          value.model = std::shared_ptr<const model::PerformanceModel>(
              value.analysis, &value.analysis->model);
          // The entry restores without the compiled program; program-
          // needing artifacts reattach it lazily at recompile cost.
          value.program = core::ProgramHandle::deferred(
              spec.source, spec.name, spec.options.compile);
        }
        disk_hits_.increment();
        return value;
      }
      // Validated by the store but structurally unusable (e.g. written
      // by a build with different serializer semantics under the same
      // schema version — a bug, but one that must degrade to a
      // recompute, not a failure).
    }
    disk_misses_.increment();
  }
  CacheValue value = computeValue(spec);
  // Deterministic results (models and compile errors alike) persist;
  // exception-path failures do not — caching a one-off bad_alloc would
  // replay it on every future run of this source.
  if (disk_ && !value.transientFailure) {
    const std::string payload = serializeArtifactPayload(
        value.model.get(), value.coverage ? &*value.coverage : nullptr,
        value.diagnostics, value.producerName);
    if (disk_->store(key, payload)) {
      disk_stores_.increment();
      value.stored = true;
    }
  }
  return value;
}

core::Artifacts BatchAnalyzer::fulfill(const core::AnalysisSpec &spec,
                                       const CacheValue &value, bool cacheHit) {
  core::Artifacts artifacts;
  artifacts.name = spec.name;
  artifacts.requested = spec.artifacts;
  artifacts.cacheHit = cacheHit;
  artifacts.ok = value.ok;
  artifacts.diagnostics = value.diagnostics;
  // Cached diagnostics cite the producing request's file name; when an
  // identically-sourced request under a different name hits the entry,
  // say where the text came from instead of misattributing it.
  if (cacheHit && !artifacts.diagnostics.empty() &&
      value.producerName != spec.name)
    artifacts.diagnostics = "(diagnostics from identical source '" +
                            value.producerName + "')\n" +
                            artifacts.diagnostics;
  artifacts.resultV1 = value.analysis;
  if (!artifacts.ok)
    return artifacts;

  if (spec.artifacts & core::kArtifactModel)
    artifacts.model = value.model;
  if (spec.artifacts & core::kArtifactProgram)
    artifacts.program = value.program;

  // A program-needing artifact materializes the handle exactly once per
  // cache value, no matter how many requests want it concurrently; only
  // the request that actually recompiled counts toward `recompiles`.
  const auto materialize = [&]() -> std::shared_ptr<const core::CompiledProgram> {
    if (!value.program)
      return nullptr;
    bool compiledNow = false;
    auto program = value.program->get(&compiledNow);
    if (compiledNow) {
      artifacts.recompiled = true;
      recompiles_.increment();
    }
    return program;
  };

  if (spec.artifacts & core::kArtifactCoverage) {
    if (value.coverage) {
      artifacts.coverage = *value.coverage;
      if (cacheHit) {
        coverage_from_cache_.increment();
        artifacts.coverageFromCache = true;
      }
    } else if (auto program = materialize()) {
      // v1 disk entry: no stored summary — recompile-on-demand.
      artifacts.coverage = sema::computeLoopCoverage(*program->unit);
    }
  } else if (value.coverage) {
    // Free to attach: the serving layers forward it to v2 payloads.
    artifacts.coverage = *value.coverage;
  }

  if (spec.artifacts & core::kArtifactSimulation) {
    if (auto program = materialize()) {
      artifacts.simulation = std::make_shared<const sim::SimResult>(
          core::simulate(*program, spec.simulation.function,
                         spec.simulation.args, spec.simulation.options));
    } else {
      sim::SimResult failed;
      failed.ok = false;
      failed.error = "compiled program unavailable (recompile failed)";
      artifacts.simulation =
          std::make_shared<const sim::SimResult>(std::move(failed));
    }
  }
  return artifacts;
}

void BatchAnalyzer::record(const core::Artifacts &artifacts) {
  // Lifetime tallies live in the registry so concurrent entry points
  // (the daemon's analyzeArtifacts) observe the same counters that
  // runArtifacts() turns into a per-run BatchStats via deltas.
  requests_.increment();
  if (!artifacts.ok)
    failures_.increment();
  if (options_.useCache) {
    if (artifacts.cacheHit)
      cache_hits_.increment();
    else
      computed_.increment();
  }
}

core::Artifacts
BatchAnalyzer::analyzeSpec(const core::AnalysisSpec &spec, std::uint64_t key,
                           std::shared_ptr<const CacheValue> *resolved) {
  auto start = std::chrono::steady_clock::now();

  if (!options_.useCache) {
    CacheValue value = computeValue(spec);
    core::Artifacts artifacts = fulfill(spec, value, false);
    artifacts.seconds = secondsSince(start);
    record(artifacts);
    return artifacts;
  }

  std::promise<std::shared_ptr<const CacheValue>> promise;
  CacheFuture future;
  bool producer = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      producer = true;
      future = promise.get_future().share();
      cache_.emplace(key, future);
    } else {
      future = it->second;
    }
  }

  if (producer) {
    bool dropEntry = false;
    try {
      auto value = std::make_shared<const CacheValue>(
          produceValue(spec, key));
      dropEntry = value->transientFailure;
      promise.set_value(std::move(value));
    } catch (...) {
      // Even allocating the cache entry failed; waiters see the same
      // exception through the shared future instead of blocking forever.
      promise.set_exception(std::current_exception());
      dropEntry = true;
    }
    if (dropEntry) {
      // Transient failures must not outlive this batch: duplicates
      // already in flight share the failure (they were concurrent with
      // it), but later runs and future duplicates must recompute
      // rather than replay a one-off bad_alloc forever.
      std::lock_guard<std::mutex> lock(cache_mutex_);
      cache_.erase(key);
    }
  }

  // Non-producers wait here; the producer task is by construction already
  // executing on some worker, so the wait always terminates.
  std::shared_ptr<const CacheValue> value;
  try {
    value = future.get();
  } catch (const std::exception &e) {
    core::Artifacts artifacts;
    artifacts.name = spec.name;
    artifacts.requested = spec.artifacts;
    artifacts.ok = false;
    artifacts.diagnostics = spec.name + ": internal error: " + e.what();
    artifacts.seconds = secondsSince(start);
    record(artifacts);
    return artifacts;
  }
  const bool cacheHit = !producer || value->fromDisk;
  core::Artifacts artifacts = fulfill(spec, *value, cacheHit);
  if (producer) {
    // Disk-level provenance belongs to exactly one request per value —
    // the producer — so flag sums over any result set equal the
    // registry deltas (tallyBatchStats relies on this).
    artifacts.diskHit = value->fromDisk;
    artifacts.diskMiss = disk_ != nullptr && !value->fromDisk;
    artifacts.diskStored = value->stored;
  }
  artifacts.seconds = secondsSince(start);
  record(artifacts);
  if (resolved)
    *resolved = std::move(value);
  return artifacts;
}

core::Artifacts
BatchAnalyzer::analyzeArtifacts(const core::AnalysisSpec &spec) {
  return analyzeSpec(spec, options_.useCache ? requestKey(spec) : 0,
                     nullptr);
}

std::vector<BatchAnalyzer::SpecGroup>
BatchAnalyzer::groupSpecs(const std::vector<core::AnalysisSpec> &specs) const {
  std::vector<SpecGroup> groups;
  groups.reserve(specs.size());
  if (!options_.useCache) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      groups.push_back({0, {i}});
    return groups;
  }
  std::unordered_map<std::uint64_t, std::size_t> groupOf;
  groupOf.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint64_t key = requestKey(specs[i]);
    const auto [it, fresh] = groupOf.emplace(key, groups.size());
    if (fresh)
      groups.push_back({key, {i}});
    else
      groups[it->second].members.push_back(i);
  }
  return groups;
}

void BatchAnalyzer::analyzeGroup(const std::vector<core::AnalysisSpec> &specs,
                                 const SpecGroup &group,
                                 std::vector<core::Artifacts> &results) {
  const std::size_t first = group.members.front();
  std::shared_ptr<const CacheValue> value;
  results[first] = analyzeSpec(specs[first], group.key, &value);
  for (std::size_t k = 1; k < group.members.size(); ++k) {
    const std::size_t i = group.members[k];
    if (!value) {
      // Resolving the first request threw, so there is no value to
      // share; the duplicate resolves on its own.
      results[i] = analyzeSpec(specs[i], group.key, nullptr);
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    results[i] = fulfill(specs[i], *value, /*cacheHit=*/true);
    results[i].seconds = secondsSince(start);
    record(results[i]);
  }
}

std::vector<core::Artifacts> BatchAnalyzer::analyzeArtifactsMany(
    const std::vector<core::AnalysisSpec> &specs) {
  std::vector<core::Artifacts> results(specs.size());
  if (specs.empty())
    return results;
  const std::vector<SpecGroup> groups = groupSpecs(specs);
  // A per-call latch instead of pool_.waitIdle(): concurrent callers
  // must each wait for exactly their own tasks. Workers hold shared
  // ownership so the state outlives this frame even if a worker is
  // descheduled between its decrement and its return.
  struct Latch {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = groups.size();
  for (const SpecGroup &group : groups) {
    pool_.submit([this, &specs, &results, &group, latch] {
      analyzeGroup(specs, group, results);
      std::lock_guard<std::mutex> lock(latch->mutex);
      if (--latch->remaining == 0)
        latch->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch->mutex);
  latch->done.wait(lock, [&] { return latch->remaining == 0; });
  return results;
}

std::vector<core::Artifacts>
BatchAnalyzer::runArtifacts(const std::vector<core::AnalysisSpec> &specs) {
  auto start = std::chrono::steady_clock::now();
  std::vector<core::Artifacts> results(specs.size());
  const std::vector<SpecGroup> groups = groupSpecs(specs);
  for (const SpecGroup &group : groups) {
    pool_.submit([this, &specs, &results, &group] {
      analyzeGroup(specs, group, results);
    });
  }
  pool_.waitIdle();

  // Per-result provenance flags, not registry deltas: the flags sum to
  // the same numbers for this (non-concurrent) call, and they keep the
  // per-run view correct even when the registry is shared with daemon
  // traffic — the same tally the daemon's ManifestBatch reports.
  stats_ = tallyBatchStats(results, options_.useCache);
  stats_.wallSeconds = secondsSince(start);
  publishInternGauges(*metrics_);
  return results;
}

AnalysisOutcome BatchAnalyzer::analyzeSingle(const AnalysisRequest &request) {
  return toOutcome(analyzeArtifacts(toSpec(request)));
}

std::vector<AnalysisOutcome>
BatchAnalyzer::analyzeMany(const std::vector<AnalysisRequest> &requests) {
  std::vector<core::AnalysisSpec> specs;
  specs.reserve(requests.size());
  for (const AnalysisRequest &request : requests)
    specs.push_back(toSpec(request));
  std::vector<core::Artifacts> results = analyzeArtifactsMany(specs);
  std::vector<AnalysisOutcome> outcomes;
  outcomes.reserve(results.size());
  for (core::Artifacts &artifacts : results)
    outcomes.push_back(toOutcome(std::move(artifacts)));
  return outcomes;
}

std::vector<AnalysisOutcome>
BatchAnalyzer::run(const std::vector<AnalysisRequest> &requests) {
  std::vector<core::AnalysisSpec> specs;
  specs.reserve(requests.size());
  for (const AnalysisRequest &request : requests)
    specs.push_back(toSpec(request));
  std::vector<core::Artifacts> results = runArtifacts(specs);
  std::vector<AnalysisOutcome> outcomes;
  outcomes.reserve(results.size());
  for (core::Artifacts &artifacts : results)
    outcomes.push_back(toOutcome(std::move(artifacts)));
  return outcomes;
}

} // namespace mira::driver
