/// \file
/// Parallel batch analysis: many MiniC sources through the full
/// pipeline, with per-request artifact fulfillment.
///
/// BatchAnalyzer fans core::AnalysisSpecs across a fixed ThreadPool,
/// collects per-request core::Artifacts deterministically in input
/// order, and de-duplicates work through a two-level cache keyed by
/// (source hash, options): an in-memory future map that persists across
/// run calls on the same analyzer, and an optional on-disk CacheStore
/// (support/cache_store.h) that persists across processes.
///
/// Fulfillment planning (the v2 redesign): each requested artifact is
/// served from the cheapest layer that has it —
///   1. memory   — a live or previously restored entry in-process;
///   2. disk     — model + diagnostics + coverage summary (schema v2;
///                 v1 entries restore without the coverage summary);
///   3. recompile — a ProgramHandle re-runs parse→sema→codegen (never
///                 model generation) when a cache hit must answer a
///                 program-needing artifact (simulation, v1-entry
///                 coverage);
///   4. full compute — a miss runs the whole pipeline once and
///                 populates every layer for future callers.
/// BatchStats counts each plan step so tests and the CLI can prove a
/// warm run recomputed nothing.
///
/// Thread-safety contract with core::analyze: the pipeline keeps no
/// shared mutable state (each request gets its own DiagnosticEngine,
/// and all function-local statics in the pipeline are immutable tables),
/// so concurrent analyses of different requests are safe. run() and
/// runArtifacts() themselves must not be called concurrently on one
/// BatchAnalyzer; analyzeArtifacts()/analyzeSingle()/analyzeMany() may.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/metrics_registry.h"
#include "core/mira.h"
#include "corpus/manifest.h"
#include "support/cache_store.h"
#include "support/thread_pool.h"

namespace mira::driver {

/// One unit of v1 batch work: a named MiniC source plus pipeline
/// options. Equivalent to a core::AnalysisSpec asking for model +
/// diagnostics; new callers should build specs directly.
struct AnalysisRequest {
  std::string name;   ///< display / file name (not part of the cache key)
  std::string source; ///< MiniC source text
  core::MiraOptions options; ///< pipeline options (part of the cache key)
};

/// Per-request v1 result, at the request's input position. The v2
/// equivalent is core::Artifacts (richer: coverage, simulation, and a
/// recompile-on-demand program handle).
struct AnalysisOutcome {
  std::string name; ///< echoed AnalysisRequest::name
  bool ok = false;  ///< analysis produced a model (no errors)
  /// Served without recomputing: from another in-flight/completed
  /// request this process (memory hit) or from the disk cache of an
  /// earlier run (disk hit).
  bool cacheHit = false;
  /// Shared with the cache and any duplicate requests; null when !ok.
  /// AnalysisResult::program is set only for values computed live with
  /// the memory cache on (full compute always keeps the program there).
  /// It is null for disk-cache hits, which restore the model and
  /// diagnostics only, and for no-cache runs, which free each program
  /// on the worker that built it. v1 consumers that need the AST or
  /// binary should migrate to the artifact API: request
  /// kArtifactProgram, whose ProgramHandle is live or recompiles on
  /// demand (core/artifacts.h).
  std::shared_ptr<const core::AnalysisResult> analysis;
  /// Rendered diagnostics (warnings on success, errors on failure).
  std::string diagnostics;
  double seconds = 0; ///< analysis wall time; ~0 for pure cache hits
};

/// Knobs for one BatchAnalyzer. Only AnalysisSpec::options influence
/// cache keys — everything here is execution strategy and storage
/// placement, deliberately excluded from requestKey().
struct BatchOptions {
  /// Worker threads analyzing requests concurrently.
  std::size_t threads = ThreadPool::defaultThreadCount();
  /// Master switch for both cache levels (memory and disk).
  bool useCache = true;
  /// Directory for the persistent cache; empty disables the disk level.
  std::string cacheDir;
  /// LRU byte cap for the disk level (0 = unlimited). See
  /// support/cache_store.h for the eviction policy.
  std::uint64_t cacheBytesLimit = 0;
  /// Threads for within-request per-function model generation (1 =
  /// serial). When >1 the analyzer owns a second, dedicated pool shared
  /// by all requests; results are byte-identical either way.
  std::size_t modelThreads = 1;
  /// Registry the analyzer's lifetime counters register in (non-owning;
  /// must outlive the analyzer). Null = the analyzer owns a private
  /// registry, reachable through BatchAnalyzer::metrics(). The serving
  /// daemon passes its own registry here so analyzer and server counters
  /// share one metrics surface (core/metrics_registry.h).
  core::MetricsRegistry *metrics = nullptr;
};

/// Counters describing the last run()/runArtifacts(). The per-artifact
/// block proves where each answer came from: a warm coverage sweep
/// should show coverageFromCache == requests and recompiles == 0.
/// Since the metrics unification these are per-run *views* of the
/// analyzer's lifetime core::MetricsRegistry counters (snapshot deltas
/// around the run) plus per-result tallies — each underlying counter is
/// defined once, in the registry.
struct BatchStats {
  std::size_t requests = 0;    ///< size of the request vector
  std::size_t failures = 0;    ///< outcomes with ok == false
  std::size_t cacheHits = 0;   ///< outcomes served without recomputation
  std::size_t cacheMisses = 0; ///< outcomes that ran the pipeline
  std::size_t diskHits = 0;    ///< entries restored from the disk cache
  std::size_t diskMisses = 0;  ///< disk lookups that fell through
  std::size_t diskStores = 0;  ///< entries written to the disk cache
  // Per-artifact fulfillment (v2): what was served, and from where.
  std::size_t modelArtifacts = 0;      ///< requests served a model
  std::size_t programArtifacts = 0;    ///< requests served a ProgramHandle
  std::size_t coverageArtifacts = 0;   ///< requests served loop coverage
  std::size_t simulationArtifacts = 0; ///< simulations executed
  std::size_t coverageFromCache = 0;   ///< coverage answered from a cached
                                       ///< summary (no AST needed)
  std::size_t recompiles = 0;          ///< deferred handles materialized
                                       ///< (parse→codegen re-runs)
  double wallSeconds = 0; ///< whole-batch wall clock of the last run
};

/// Cache key: FNV-1a fingerprint of the source bytes and every
/// model-affecting option (compiler toggles, metric options, arch).
/// Stable across processes and runs by construction — it is the on-disk
/// cache's file name (support/cache_store.h). The artifact mask and
/// simulation arguments are deliberately NOT keyed: every mask reuses
/// one entry.
std::uint64_t requestKey(const core::AnalysisSpec &spec);
std::uint64_t requestKey(const AnalysisRequest &request);

/// The options half of requestKey: continue hashing the model-affecting
/// options from an already-computed FNV-1a source fingerprint.
/// `requestKey(spec) == requestKeyFromContentHash(fnv1a(spec.source),
/// spec.options)` by construction — which is what lets a corpus
/// manifest (corpus/manifest.h stores exactly that source fingerprint)
/// predict cache keys, plan shards, and prune the store without reading
/// any source bytes.
std::uint64_t requestKeyFromContentHash(std::uint64_t contentHash,
                                        const core::MiraOptions &options);

// --------------------------------------------------- shard planning

/// One shard of a partitioned batch: this process owns every request
/// whose cache key satisfies `key % count == index`.
///
/// Determinism contract (docs/MANIFESTS.md): assignment depends only on
/// (key, count) — never on input order, thread count, or which machine
/// evaluates it — so N processes given the same manifest and options
/// partition it identically, with no coordination and no overlap.
/// Duplicate sources hash to one key and therefore land in one shard,
/// which keeps per-shard cache counters equal to a single-process run.
struct ShardSpec {
  std::size_t index = 0; ///< 0-based shard number, < count
  std::size_t count = 1; ///< total shards; 1 = unsharded
};

/// Parse the CLI's 1-based "I/N" syntax ("2/4" = second of four) into a
/// 0-based ShardSpec. False on junk, I < 1, N < 1, or I > N.
bool parseShardSpec(const std::string &text, ShardSpec &shard);

/// True when `key` belongs to `shard`: the key is bit-mixed (splitmix64
/// finalizer) and reduced modulo the shard count, so shards stay
/// balanced even though raw request keys share low-bit structure. A
/// pure function of (key, shard) — every participant in a fleet run
/// computes the same partition with no coordination.
bool keyInShard(std::uint64_t key, const ShardSpec &shard);

/// The work one manifest-batch invocation owns, plus the diff view it
/// was derived from.
struct ManifestSelection {
  /// Entries to analyze, in manifest (path) order.
  std::vector<corpus::ManifestEntry> entries;
  std::size_t candidates = 0; ///< added + changed (pre-shard-filter)
  std::size_t added = 0;      ///< diff view; == entries.size() pre-shard
  std::size_t changed = 0;    ///< when no baseline, all count as added
  std::size_t removed = 0;    ///< baseline-only paths (never analyzed)
};

/// Select the entries `manifest` obliges this invocation to analyze:
/// diff against an optional `since` baseline (keep added + changed, in
/// path order), then keep only the keys of `shard`. A pure function of
/// its inputs — local `batch --manifest` and the daemon's ManifestBatch
/// request both plan through this, which is what makes their selections
/// (and therefore their reports) identical by construction.
ManifestSelection selectManifestEntries(const corpus::Manifest &manifest,
                                        const corpus::Manifest *since,
                                        const core::MiraOptions &options,
                                        const ShardSpec &shard);

// ------------------------------------------- stats & report merging

/// Sum per-shard counter blocks into one batch-wide view. Every counter
/// adds; wallSeconds is the max (shards run concurrently, so their wall
/// clocks overlap rather than accumulate).
BatchStats mergeBatchStats(const std::vector<BatchStats> &parts);

/// Derive a per-run BatchStats from per-result provenance flags (see
/// core::Artifacts::diskHit and friends). Agrees exactly with the
/// registry-delta view for a non-concurrent run — runArtifacts() is
/// implemented on top of this — and stays correct when other traffic
/// shares the registry, which is how the daemon's ManifestBatch builds
/// a report byte-identical to a local run. wallSeconds is left 0 (the
/// caller owns the clock).
BatchStats tallyBatchStats(const std::vector<core::Artifacts> &results,
                           bool useCache);

/// Copy the process-wide symbolic::ExprInterner tallies into the
/// registry as gauges (rendered as mira_intern_{hits,misses,nodes}).
/// The hash-consing hot path never touches the registry itself; callers
/// with a metrics view (batch runs, the daemon's refreshGauges) publish
/// on render instead.
void publishInternGauges(core::MetricsRegistry &metrics);

/// One line of a shard report: which request, under which cache key,
/// with what outcome. Deliberately excludes timing so reports are
/// deterministic (byte-comparable across runs and process counts).
struct BatchReportEntry {
  std::string name;        ///< request name (manifest path in manifest runs)
  std::uint64_t key = 0;   ///< driver::requestKey of the request
  bool ok = false;         ///< analysis produced a model
};

/// A deterministic batch report: per-request entries plus the counter
/// block. `mira-cli batch --report` writes one per (shard) process;
/// `mira-cli manifest merge` folds shard reports into the report a
/// single-process run would have produced — byte-identically, which is
/// the multi-process correctness check tests and CI pin.
struct BatchReport {
  std::vector<BatchReportEntry> entries;
  BatchStats stats; ///< wallSeconds is NOT serialized (nondeterministic)
};

/// Byte-stable serialization: `[magic "MirR" u32][version u32]` then the
/// counter block (every BatchStats field except wallSeconds, as u64, in
/// declaration order), `[entryCount u32]`, per entry
/// `[name str][key u64][ok u8]`, and a trailing FNV-1a checksum.
std::string serializeBatchReport(const BatchReport &report);

/// Parse serializeBatchReport bytes; false with a description on any
/// structural problem (magic, version, truncation, trailing garbage,
/// checksum).
bool deserializeBatchReport(const std::string &bytes, BatchReport &report,
                            std::string &error);

/// Merge shard reports: entries are re-sorted by (name, key) — manifest
/// order, since manifests are path-sorted and shards select disjoint
/// subsets — and stats merge via mergeBatchStats.
BatchReport mergeBatchReports(const std::vector<BatchReport> &parts);

/// Serialize one analysis value into the schema-v2 artifact payload
/// shared by the disk cache and the v2 wire protocol:
/// `[ok u8][producerName str][diagnostics str]` then, when ok:
/// `[hasCoverage u8][loops u64 stmts u64 inLoop u64]?[model bytes]`
/// (docs/CACHING.md "Entry format"). `model` null = a cached failure
/// (`coverage` is then ignored). Versioned by kCacheSchemaVersion == 2.
std::string serializeArtifactPayload(const model::PerformanceModel *model,
                                     const sema::LoopCoverage *coverage,
                                     const std::string &diagnostics,
                                     const std::string &producerName);

/// Parse a serializeArtifactPayload buffer. Returns false on any
/// structural problem (bounds, trailing garbage) — callers treat that
/// as corruption and recompute. On success `analysis` is null iff the
/// payload recorded a failed analysis; `coverage` is empty when the
/// payload carried no summary.
bool deserializeArtifactPayload(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::optional<sema::LoopCoverage> &coverage, std::string &diagnostics,
    std::string &producerName);

/// The schema-v1 payload codec (`[ok][producerName][diagnostics][model]`)
/// — still written to v1 wire clients and still read from v1 disk
/// entries, which degrade to recompile-on-demand for program-needing
/// artifacts.
std::string serializeOutcomePayloadV1(const core::AnalysisResult *analysis,
                                      const std::string &diagnostics,
                                      const std::string &producerName);
bool deserializeOutcomePayloadV1(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::string &diagnostics, std::string &producerName);

/// Analyzes batches of sources in parallel with two-level caching and
/// per-artifact fulfillment planning.
class BatchAnalyzer {
public:
  explicit BatchAnalyzer(BatchOptions options = {});

  // ----------------------------------------------------- v2 entries

  /// Fulfill one spec on the calling thread, sharing the in-memory and
  /// disk cache levels with every other caller. Safe to call
  /// concurrently (the serving daemon fans sessions across its own pool
  /// and calls this per request); does not touch stats().
  core::Artifacts analyzeArtifacts(const core::AnalysisSpec &spec);

  /// Fan `specs` across the batch pool and block until all artifacts
  /// are in (input order). Safe to call concurrently; does not touch
  /// stats(). Must not be called from a task running on this analyzer's
  /// own pool (nested-pool rule, support/thread_pool.h).
  std::vector<core::Artifacts>
  analyzeArtifactsMany(const std::vector<core::AnalysisSpec> &specs);

  /// Fulfill every spec and update stats(); outcome[i] corresponds to
  /// specs[i] regardless of thread count or completion order. Not
  /// concurrency-safe with itself (use analyzeArtifactsMany for that).
  std::vector<core::Artifacts>
  runArtifacts(const std::vector<core::AnalysisSpec> &specs);

  // ------------------------------------------ v1 compatibility entries

  /// Analyze every request; outcome[i] corresponds to requests[i]
  /// regardless of thread count or completion order. Equivalent to
  /// runArtifacts over model+diagnostics specs.
  std::vector<AnalysisOutcome> run(const std::vector<AnalysisRequest> &requests);

  /// Analyze one request on the calling thread (see analyzeArtifacts
  /// for the concurrency contract).
  AnalysisOutcome analyzeSingle(const AnalysisRequest &request);

  /// Fan `requests` across the batch pool (see analyzeArtifactsMany for
  /// the concurrency contract).
  std::vector<AnalysisOutcome>
  analyzeMany(const std::vector<AnalysisRequest> &requests);

  /// Stats of the last run()/runArtifacts() (cache hit/miss, failures,
  /// per-artifact fulfillment, wall clock).
  const BatchStats &stats() const { return stats_; }

  /// The registry holding this analyzer's lifetime counters
  /// (analyzer_requests_total, analyzer_disk_hits_total, ...): the one
  /// passed in BatchOptions::metrics, or the analyzer's own. Counters
  /// accumulate across every entry point, including the concurrent-safe
  /// ones that never touch stats().
  core::MetricsRegistry &metrics() { return *metrics_; }

  std::size_t threadCount() const { return pool_.threadCount(); }

  /// Entries in the in-memory level (the disk level is inspected through
  /// diskCache()).
  std::size_t cacheSize() const;

  /// Drop every in-memory entry. The disk level, if any, is untouched —
  /// use diskCache()->clear() for that.
  void clearCache();

  /// The disk level, or null when BatchOptions::cacheDir was empty.
  CacheStore *diskCache() { return disk_.get(); }

private:
  /// One cached analysis value, shared by every mask that asks for the
  /// same (source, options): the legacy result view, the artifact
  /// views, and the live-or-deferred program handle.
  struct CacheValue {
    /// The analysis succeeded. With caching on this implies `analysis`
    /// is set (full compute produces the model); on the no-cache path a
    /// mask without kArtifactModel yields ok values with no model.
    bool ok = false;
    /// Legacy owner: model (+ program when computed live with the
    /// program bit, i.e. always with caching on); null on failure or
    /// when the model was not requested (no-cache path). Disk restores
    /// and no-cache computes leave analysis->program null — the handle
    /// below is how programs come back.
    std::shared_ptr<const core::AnalysisResult> analysis;
    /// Aliases analysis->model; null on failure.
    std::shared_ptr<const model::PerformanceModel> model;
    /// Loop-coverage summary; absent for entries restored from v1 disk
    /// payloads (those degrade to recompile-on-demand).
    std::optional<sema::LoopCoverage> coverage;
    /// Live for computed values, deferred for disk restores; null on
    /// failure.
    std::shared_ptr<core::ProgramHandle> program;
    std::string diagnostics;
    std::string producerName; // request whose analysis populated the entry
    bool fromDisk = false;    // restored from the disk level, not computed
    bool stored = false;      // this value was persisted to the disk level
    /// Failure came from a caught exception (bad_alloc, resource
    /// exhaustion), not from deterministic diagnostics. Never persisted:
    /// a transient failure written to disk would replay forever.
    bool transientFailure = false;
  };
  using CacheFuture = std::shared_future<std::shared_ptr<const CacheValue>>;

  /// Resolve one spec, whose request key the caller computed (unused
  /// with the cache off), through the plan (memory → disk → recompile →
  /// full compute) and fulfill its artifact mask. `resolved`, when
  /// non-null, receives the cache value the result was served from
  /// (null if resolving it threw).
  core::Artifacts analyzeSpec(const core::AnalysisSpec &spec,
                              std::uint64_t key,
                              std::shared_ptr<const CacheValue> *resolved);

  /// The specs of one fan-out call that share a request key, in input
  /// order. With the cache off every spec is its own group.
  struct SpecGroup {
    std::uint64_t key = 0;
    std::vector<std::size_t> members;
  };

  /// Group `specs` by request key, keyed on the calling thread. Only a
  /// group's first member is resolved through the plan; the rest are
  /// fulfilled from its value, so which request of a call produced an
  /// entry never depends on worker scheduling.
  std::vector<SpecGroup>
  groupSpecs(const std::vector<core::AnalysisSpec> &specs) const;

  /// One pool task of a fan-out call: resolve the group's first member,
  /// then serve the duplicates from the same value as cache hits.
  void analyzeGroup(const std::vector<core::AnalysisSpec> &specs,
                    const SpecGroup &group,
                    std::vector<core::Artifacts> &results);

  /// Count one finished request in the lifetime registry.
  void record(const core::Artifacts &artifacts);

  /// Serve `spec`'s artifacts out of a resolved cache value.
  core::Artifacts fulfill(const core::AnalysisSpec &spec,
                          const CacheValue &value, bool cacheHit);

  /// The producer path: disk lookup, then compute + disk store.
  CacheValue produceValue(const core::AnalysisSpec &spec, std::uint64_t key);

  CacheValue computeValue(const core::AnalysisSpec &spec);

  static AnalysisOutcome toOutcome(core::Artifacts &&artifacts);
  static core::AnalysisSpec toSpec(const AnalysisRequest &request);

  BatchOptions options_;
  ThreadPool pool_;
  std::unique_ptr<ThreadPool> model_pool_; // within-request fan-out
  std::unique_ptr<CacheStore> disk_;
  BatchStats stats_;

  // The metrics surface: a borrowed registry (BatchOptions::metrics) or
  // a private one. Declared before the counter handles below, which
  // bind into it at construction. Counters are lifetime-monotonic;
  // runArtifacts() derives its per-run BatchStats from before/after
  // deltas.
  std::unique_ptr<core::MetricsRegistry> owned_metrics_;
  core::MetricsRegistry *metrics_ = nullptr;
  core::MetricsRegistry::Counter &requests_;
  core::MetricsRegistry::Counter &failures_;
  core::MetricsRegistry::Counter &cache_hits_;
  core::MetricsRegistry::Counter &computed_;
  core::MetricsRegistry::Counter &disk_hits_;
  core::MetricsRegistry::Counter &disk_misses_;
  core::MetricsRegistry::Counter &disk_stores_;
  core::MetricsRegistry::Counter &coverage_from_cache_;
  core::MetricsRegistry::Counter &recompiles_;

  mutable std::mutex cache_mutex_;
  std::map<std::uint64_t, CacheFuture> cache_;
};

} // namespace mira::driver
