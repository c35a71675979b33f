/// \file
/// Persistent on-disk cache: one file per 64-bit key, atomic writes,
/// versioned headers, LRU size-capped eviction to a low-water mark.
///
/// CacheStore is payload-agnostic (it stores byte strings); the driver
/// layers the AnalysisOutcome serializer (model/serialize.h) on top of
/// it to get cross-run reuse of analysis results. The store is
/// deliberately paranoid: every read validates a magic number, a schema
/// version, the payload length, and an FNV-1a payload checksum, and
/// anything that fails validation is treated as a miss (and unlinked)
/// instead of an error, so a corrupted or torn cache can never fail a
/// batch — the worst case is recomputation. See docs/CACHING.md for the
/// format.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace mira {

/// On-disk format version written by store(). Bump whenever the
/// serialized payload layout (driver/batch.h artifact payload,
/// model/serialize.h) or the header itself changes.
///
/// Version history:
///   1 — PR 2: `[ok][producerName][diagnostics][model]` outcome payload.
///   2 — artifact payload: a loop-coverage summary rides alongside the
///       model so coverage can be served without the compiled program.
inline constexpr std::uint32_t kCacheSchemaVersion = 2;

/// Oldest schema version load(key, version) still accepts. v1 payloads
/// lack the coverage summary; the driver degrades them to
/// recompile-on-demand (docs/CACHING.md, "Schema migration").
inline constexpr std::uint32_t kCacheSchemaVersionMin = 1;

/// Process-lifetime counters of one CacheStore (all operations since
/// construction; not persisted).
struct CacheStoreStats {
  std::size_t hits = 0;      ///< load() calls that returned a payload
  std::size_t misses = 0;    ///< load() calls with no (valid) entry
  std::size_t corrupt = 0;   ///< entries rejected by validation
  std::size_t stores = 0;    ///< successful store() calls
  std::size_t evictions = 0; ///< entries removed to satisfy the byte cap
};

/// A directory of cache entries keyed by 64-bit fingerprints.
///
/// Concurrency: safe for concurrent use from multiple threads of one
/// process and tolerant of concurrent writers across processes — writes
/// go to a unique temporary file in the same directory and are
/// published with an atomic rename(2), so readers see either the old
/// entry, the new entry, or no entry, never a torn file. File I/O runs
/// without any lock (the rename protocol is what makes it safe); the
/// internal mutex guards only the counters, so parallel warm-run loads
/// proceed concurrently.
///
/// Eviction: when `bytesLimit` is non-zero and a store() pushes the
/// directory over the cap, that store scans the directory once and
/// evicts least-recently-used entries down to a low-water mark of 90% of
/// the cap, so the following ~10% of the cap's worth of stores fit
/// without another scan. Recency is the file modification time (load()
/// bumps it), never an in-process index: every CacheStore, in this
/// process or another, that shares the directory sees the others' loads.
/// The newly stored entry itself is never evicted by its own store()
/// call.
class CacheStore {
public:
  /// Opens (and creates, if needed) the cache directory. `bytesLimit` of
  /// 0 means unlimited. A directory that cannot be created disables the
  /// store: loads miss and stores fail, but nothing throws.
  explicit CacheStore(std::string directory, std::uint64_t bytesLimit = 0);

  /// Fetch the payload stored under `key`; nullopt when absent or when
  /// the entry fails validation (which also deletes the bad file). Only
  /// current-schema entries are served; older (still-supported) versions
  /// go through the two-argument overload.
  std::optional<std::string> load(std::uint64_t key);

  /// Like load(), but also accepts entries of any supported schema
  /// version (`kCacheSchemaVersionMin`..`kCacheSchemaVersion`) and
  /// reports which version the payload was written under, so the caller
  /// can pick the matching payload codec. Entries outside the supported
  /// range miss without being deleted (another binary's valid cache).
  std::optional<std::string> load(std::uint64_t key, std::uint32_t &version);

  /// Validated read without side effects: like the two-argument load()
  /// but bumps neither the LRU recency nor any counter, and never
  /// unlinks a corrupt entry (that is left to the next real load), so
  /// inspection commands (`cache stats`) cannot perturb the store.
  std::optional<std::string> peek(std::uint64_t key, std::uint32_t &version);

  /// Header schema version of the entry stored under `key`, or nullopt
  /// when there is no well-formed entry. Does not validate the payload
  /// checksum and does not bump LRU recency.
  std::optional<std::uint32_t> entryVersion(std::uint64_t key) const;

  /// Every key with a well-formed entry file name, in no particular
  /// order. `mira-cli cache stats` walks this to break byte totals down
  /// per artifact.
  std::vector<std::uint64_t> keys() const;

  /// Remove every entry written under schema `version` (the
  /// `cache clear --schema vN` migration path); returns how many were
  /// removed. Temp files and other versions are untouched.
  std::size_t clearVersion(std::uint32_t version);

  /// Unlink the entry stored under `key`, if any; true when a file was
  /// removed. The corpus-manifest prune path (`mira-cli cache prune`)
  /// walks keys() and removes entries no manifest still references.
  bool remove(std::uint64_t key);

  /// Persist `payload` under `key`, replacing any existing entry, then
  /// enforce the byte cap. Returns false on I/O failure (disk full,
  /// unwritable directory); the cache is a best-effort layer, so callers
  /// should treat a failed store as "not cached", not as an error.
  bool store(std::uint64_t key, const std::string &payload);

  /// Remove every cache entry and write-protocol temp file (including
  /// orphans left by crashed writers); foreign files in the directory
  /// are left alone.
  void clear();

  /// Number of valid-looking entries currently on disk.
  std::size_t entryCount() const;

  /// Total on-disk bytes of all entries (headers included).
  std::uint64_t totalBytes() const;

  /// entryCount() and totalBytes() in one directory scan — what pollers
  /// (the daemon's cache-stats endpoint, `mira-cli cache stats`) should
  /// use instead of two walks.
  void usage(std::size_t &entries, std::uint64_t &bytes) const;

  /// Counters since this CacheStore was constructed. The reference is
  /// unsynchronized — fine after the store has quiesced (tests, end of a
  /// run); concurrent readers (the serving daemon's stats endpoint) use
  /// statsSnapshot() instead.
  const CacheStoreStats &stats() const { return stats_; }

  /// Locked copy of the counters, safe while other threads are actively
  /// hitting the store.
  CacheStoreStats statsSnapshot() const;

  const std::string &directory() const { return directory_; }
  std::uint64_t bytesLimit() const { return bytes_limit_; }

  /// True when the cache directory exists and is usable.
  bool usable() const { return usable_; }

private:
  std::string pathForKey(std::uint64_t key) const;
  std::optional<std::string> loadRange(std::uint64_t key,
                                       std::uint32_t minVersion,
                                       std::uint32_t &version, bool touch);
  void evictToFit(std::uint64_t protectedKey);

  std::string directory_;
  std::uint64_t bytes_limit_ = 0;
  bool usable_ = false;
  /// Guards stats_ and approx_bytes_ only — never held across file I/O.
  mutable std::mutex mutex_;
  CacheStoreStats stats_;
  /// Running estimate of on-disk bytes, maintained incrementally so
  /// store() does not rescan the directory per call; only an estimate
  /// above the cap triggers an eviction pass. Concurrent replacements
  /// and other instances writing the same directory can make it drift;
  /// each eviction pass resynchronizes it to the measured total.
  std::uint64_t approx_bytes_ = 0;
  /// Serializes eviction passes (the only directory-scanning writers).
  std::mutex evict_mutex_;
};

} // namespace mira
