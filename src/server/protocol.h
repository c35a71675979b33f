/// \file
/// Wire protocol of the analysis daemon: message types and codecs.
///
/// `mira-cli serve` and its clients exchange length-prefixed frames
/// (support/socket.h) whose payload is one protocol message: a fixed
/// header — magic `"MirP"`, protocol version, one-byte message type —
/// followed by a type-specific body encoded with the same little-endian
/// primitives as every other Mira byte format (support/binary_io.h).
/// This header is the single in-tree source of those encodings: the
/// daemon (server/server.h), the client library (server/client.h), and
/// the protocol tests all go through these functions, and
/// docs/PROTOCOL.md specifies the byte layout normatively so non-C++
/// clients can speak it too.
///
/// Versioning: the protocol is version 2, which carries the Coverage and
/// Simulate requests of the artifact API (core/artifacts.h) and embeds
/// the schema-v2 artifact payload in analyze replies. Every message
/// carries its version and peers accept exactly kProtocolVersion: a
/// message of any other version (including the retired version 1) is
/// answered with Error-and-close. The ManifestDiff and ManifestBatch
/// requests and the Metrics/Busy/BatchProgress/Hello messages are
/// additive late-v2 extensions (new message types, no layout changes);
/// older v2 daemons answer them with Error-and-close like any unknown
/// type, which clients must treat as "not supported". Busy and
/// BatchProgress are the two replies that do NOT close the connection:
/// Busy reports the in-flight cap was hit and carries a retry-after
/// hint; BatchProgress precedes a manifestBatchReply on the same
/// request. Hello is the optional shared-secret handshake used on TCP
/// endpoints: a daemon started with a secret answers every other
/// request with Error-and-close until the session's first frame is a
/// Hello carrying the matching secret. See docs/PROTOCOL.md,
/// "Compatibility".
///
/// Analysis results travel as the canonical artifact payload of
/// driver::serializeArtifactPayload — the same bytes the disk cache
/// stores — so a daemon-served model is byte-identical to a one-shot
/// `mira-cli analyze` of the same (source, options) by construction.
/// Decoders never trust the wire: every read is bounds-checked and any
/// structural problem yields `false`, which peers answer with an Error
/// message and a closed connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/mira.h"
#include "corpus/manifest.h"
#include "support/binary_io.h"

namespace mira::server {

/// Message magic: the bytes `"MirP"` on the wire, read as a
/// little-endian u32. First field of every message.
inline constexpr std::uint32_t kProtocolMagic = 0x5072694du;

/// The protocol version, stamped on every message and the only one
/// peers accept. Bump on any change to the message layouts below or to
/// the artifact payload they embed (i.e. whenever kCacheSchemaVersion
/// bumps, bump this too).
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Default cap on one frame's payload, enforced by both sides. A
/// declared length beyond the cap is answered with Error and the
/// connection is closed (the body is never read).
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// One-byte message type. Requests are < 100; replies are >= 100.
/// Types marked (v2) were added by protocol version 2.
enum class MessageType : std::uint8_t {
  // Requests (client -> server).
  ping = 1,       ///< liveness probe; empty body
  analyze = 2,    ///< one source: [flags u8][name str][source str]
  batch = 3,      ///< many sources: [flags u8][count u32][count x item]
  cacheStats = 4, ///< server/cache counters; empty body
  shutdown = 5,   ///< stop accepting, drain, exit; empty body
  coverage = 6,   ///< (v2) loop coverage: same body as analyze
  simulate = 7,   ///< (v2) run the simulator: analyze body + sim args
  manifestDiff = 8, ///< (v2) diff two corpus manifests: [old str][new str]
  metrics = 9,    ///< (v2) named counter/gauge snapshot; empty body
  manifestBatch = 10, ///< (v2) run a whole manifest (ManifestBatchRequest)
  hello = 11,     ///< (v2) shared-secret handshake: [secret str]

  // Replies (server -> client).
  error = 100,           ///< [message str]; connection closes after
  pong = 101,            ///< empty body
  analyzeReply = 102,    ///< one result (see AnalyzeReply)
  batchReply = 103,      ///< [count u32][count x result]
  cacheStatsReply = 104, ///< fixed u64 counter block (see ServerStats)
  shutdownReply = 105,   ///< empty body; sent before the daemon drains
  coverageReply = 106,   ///< (v2) one coverage summary (see CoverageReply)
  simulateReply = 107,   ///< (v2) one simulation result (see SimulateReply)
  manifestDiffReply = 108, ///< (v2) added/changed/removed entry lists
  busyReply = 109,       ///< (v2) over the in-flight cap; [retryMillis u32]
  metricsReply = 110,    ///< (v2) [count u32][count x (name str, value u64)]
  manifestBatchReply = 111, ///< (v2) one merged report: [report str]
  batchProgress = 112,   ///< (v2) streamed before manifestBatchReply; the
                         ///< second reply type that does NOT close the
                         ///< connection (see BatchProgress)
  helloReply = 113,      ///< (v2) handshake accepted; empty body, the
                         ///< connection stays open for requests
};

/// Model-affecting option bits carried by analyze/batch requests —
/// exactly the options driver::requestKey hashes, so equal flags mean
/// equal cache keys for equal sources.
enum OptionFlags : std::uint8_t {
  kOptionOptimize = 1 << 0,
  kOptionVectorize = 1 << 1,
  kOptionAssumeBranchesTaken = 1 << 2,
};

/// Pack the wire-visible subset of MiraOptions into OptionFlags bits.
std::uint8_t packOptions(const core::MiraOptions &options);

/// Expand OptionFlags into a MiraOptions (all other fields default).
core::MiraOptions unpackOptions(std::uint8_t flags);

/// One named source, the unit of analyze/batch/coverage/simulate
/// requests.
struct SourceItem {
  std::string name;   ///< display name; echoed as the payload's producer
  std::string source; ///< MiniC source text
};

/// One analysis result as served to a client.
struct AnalyzeReply {
  /// Served without recomputation (daemon memory cache or disk cache).
  bool cacheHit = false;
  /// Server-side wall time of this request, microseconds.
  std::uint64_t micros = 0;
  /// The canonical result payload: driver::serializeArtifactPayload
  /// bytes.
  std::string payload;
};

/// One loop-coverage summary as served to a client (v2).
/// Body: [cacheHit u8][recompiled u8][micros u64][ok u8]
/// [diagnostics str] then, when ok, [loops u64][stmts u64][inLoop u64].
struct CoverageReply {
  bool cacheHit = false;   ///< served without running the full pipeline
  bool recompiled = false; ///< a recompile-on-demand materialized for this
  std::uint64_t micros = 0;
  bool ok = false;
  std::string diagnostics;
  sema::LoopCoverage coverage; ///< meaningful when ok
};

/// One simulation result as served to a client (v2).
/// Body: [cacheHit u8][recompiled u8][micros u64][ok u8]
/// [diagnostics str] then, when ok, the SimResult block (putSimResult).
struct SimulateReply {
  bool cacheHit = false;
  bool recompiled = false; ///< program came back via recompile-on-demand
  std::uint64_t micros = 0;
  bool ok = false;         ///< analysis ok and the simulator ran
  std::string diagnostics;
  sim::SimResult result;   ///< meaningful when ok (its own ok/error
                           ///< report simulator-level failures)
};

/// The decoded answer to a manifestDiff request (v2): what changed
/// between the two corpus manifests the client sent, so a daemon can
/// plan incremental re-analysis for callers that never read the
/// workload tree themselves.
/// Body: [added u32][added x (path str, hash u64, size u64)]
/// [changed u32][changed x (path str, hash u64, size u64)]
/// [removed u32][removed x path str].
struct ManifestDiffReply {
  std::vector<corpus::ManifestEntry> added;   ///< entries only in `new`
  std::vector<corpus::ManifestEntry> changed; ///< new-side entries whose
                                              ///< content hash differs
  std::vector<std::string> removed;           ///< paths only in `old`
};

/// A manifestBatch request (v2, additive late extension): run a whole
/// corpus manifest on the daemon's compute pool — the serving-side
/// equivalent of local `mira-cli batch --manifest`, with the same
/// incremental (`--since`) and sharding (`--shard I/N`) planning, and a
/// reply whose report bytes are identical to the local run's by
/// construction.
/// Body: [flags u8][progress u8][shardIndex u32][shardCount u32]
/// [root str][manifest str][since str]. `manifest` and `since` are raw
/// corpus::serializeManifest blobs (`since` empty = no baseline; the
/// daemon validates both and answers Error on malformed bytes). Empty
/// `root` resolves entries against the manifest's recorded root. When
/// `progress` is 1 the daemon streams cumulative BatchProgress frames
/// before the final manifestBatchReply.
struct ManifestBatchRequest {
  std::uint8_t flags = 0;       ///< OptionFlags for every entry
  bool progress = false;        ///< stream batchProgress frames
  std::uint32_t shardIndex = 0; ///< 0-based; < shardCount
  std::uint32_t shardCount = 1; ///< 1 = unsharded
  std::string root;             ///< resolve base override; empty = manifest's
  std::string manifestBytes;    ///< corpus::serializeManifest bytes
  std::string sinceBytes;       ///< optional baseline manifest; empty = full
};

/// One cumulative progress frame of a manifestBatch execution (v2).
/// Streamed after each chunk when the request asked for progress; like
/// Busy, it does NOT close the connection — the final reply follows.
/// Body: [done u32][total u32][failures u32][cacheHits u32].
struct BatchProgress {
  std::uint32_t done = 0;      ///< entries finished so far
  std::uint32_t total = 0;     ///< entries selected for this request
  std::uint32_t failures = 0;  ///< failed entries so far
  std::uint32_t cacheHits = 0; ///< cache-served entries so far
};

/// The final answer to a manifestBatch request (v2): one merged,
/// byte-stable batch report. Body: [report str] — raw
/// driver::serializeBatchReport bytes, so a client can write them to a
/// `--report` file that compares byte-identical to a local run's.
struct ManifestBatchReply {
  std::string reportBytes; ///< driver::serializeBatchReport bytes
};

/// The daemon's answer when a request would exceed its `--max-inflight`
/// cap (v2, additive): the request was NOT queued or executed; retry it
/// after the hinted delay. Unlike Error, a Busy reply does NOT close the
/// connection — the session keeps reading.
/// Body: [retryAfterMillis u32].
struct BusyReply {
  std::uint32_t retryAfterMillis = 0; ///< server-suggested backoff hint
};

/// One (name, value) pair of a metricsReply (v2, additive): a
/// core::MetricsRegistry sample. Names are Prometheus-idiom lowercase
/// (`server_requests_served_total`); the list is name-sorted.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Counter block answered to cacheStats, all u64, in this wire order.
/// Lifetime counters cover everything since the daemon started. The
/// last three fields were appended by protocol version 2.
struct ServerStats {
  std::uint64_t uptimeMicros = 0;        ///< since the daemon started
  std::uint64_t connectionsAccepted = 0; ///< client sessions opened
  std::uint64_t requestsServed = 0;      ///< frames answered (errors too)
  std::uint64_t analyzeRequests = 0;     ///< analyze messages
  std::uint64_t batchRequests = 0;       ///< batch messages
  std::uint64_t sourcesAnalyzed = 0;     ///< items across request kinds
  std::uint64_t cacheHits = 0;           ///< items served without recompute
  std::uint64_t computed = 0;            ///< items that ran the pipeline
  std::uint64_t failures = 0;            ///< items whose analysis failed
  std::uint64_t protocolErrors = 0;      ///< error replies + bad frames
  std::uint64_t memoryEntries = 0;       ///< in-memory cache entries now
  std::uint64_t diskHits = 0;            ///< disk-cache loads that hit
  std::uint64_t diskMisses = 0;          ///< disk-cache loads that missed
  std::uint64_t diskStores = 0;          ///< disk-cache entries written
  std::uint64_t diskEntries = 0;         ///< disk entries on disk now
  std::uint64_t diskBytes = 0;           ///< disk bytes on disk now
  std::uint64_t threads = 0;             ///< concurrent session workers
  std::uint64_t coverageRequests = 0;    ///< (v2) coverage messages
  std::uint64_t simulateRequests = 0;    ///< (v2) simulate messages
  std::uint64_t recompiles = 0;          ///< (v2) recompile-on-demand runs
};

/// Append the message header (magic, kProtocolVersion, type) to `out`.
void beginMessage(std::string &out, MessageType type);

/// Read and validate a message header: the magic must match and the
/// version must be kProtocolVersion. On failure sets `error` and returns
/// false; `type` is only meaningful on success.
bool readHeader(bio::Reader &r, MessageType &type, std::string &error);

/// Build a complete header-only message (ping, pong, cacheStats,
/// metrics, shutdown, shutdownReply, helloReply).
std::string encodeEmptyMessage(MessageType type);
/// Build an analyze request for one source under OptionFlags `flags`.
std::string encodeAnalyzeRequest(const SourceItem &item, std::uint8_t flags);
/// Build a batch request; every item shares one OptionFlags byte.
std::string encodeBatchRequest(const std::vector<SourceItem> &items,
                               std::uint8_t flags);
/// Build a coverage request (v2): same body as analyze.
std::string encodeCoverageRequest(const SourceItem &item, std::uint8_t flags);
/// Build a simulate request (v2): analyze body + the per-call
/// simulation arguments ([function str][fastForward u8]
/// [maxInstructions u64][argc u32][argc x (i i64, f f64, f2 f64)]).
std::string encodeSimulateRequest(const SourceItem &item, std::uint8_t flags,
                                  const core::SimulationArgs &sim);
/// Build a manifestDiff request (v2) carrying two serialized manifests
/// (corpus::serializeManifest bytes): [old str][new str].
std::string encodeManifestDiffRequest(const std::string &oldManifestBytes,
                                      const std::string &newManifestBytes);
/// Build a hello handshake request (v2) carrying the shared secret:
/// [secret str]. Sent as a session's first frame on authenticated
/// endpoints; answered with helloReply (empty) or Error-and-close.
std::string encodeHelloRequest(const std::string &secret);
/// Build a manifestBatch request (v2).
std::string encodeManifestBatchRequest(const ManifestBatchRequest &request);
/// Build a batchProgress frame (v2).
std::string encodeBatchProgress(const BatchProgress &progress);
/// Build a manifestBatchReply (v2) carrying the merged report bytes.
std::string encodeManifestBatchReply(const ManifestBatchReply &reply);
/// Build a busyReply (v2) carrying the retry-after hint.
std::string encodeBusyReply(const BusyReply &reply);
/// Build a metricsReply (v2) from a name-sorted sample list.
std::string encodeMetricsReply(const std::vector<MetricSample> &samples);
/// Build an Error reply carrying a human-readable description.
std::string encodeErrorReply(const std::string &message);
/// Build an analyzeReply carrying one result.
std::string encodeAnalyzeReply(const AnalyzeReply &reply);
/// Build a batchReply carrying results in request order.
std::string encodeBatchReply(const std::vector<AnalyzeReply> &replies);
/// Build a coverageReply (v2).
std::string encodeCoverageReply(const CoverageReply &reply);
/// Build a simulateReply (v2).
std::string encodeSimulateReply(const SimulateReply &reply);
/// Build a manifestDiffReply (v2).
std::string encodeManifestDiffReply(const ManifestDiffReply &reply);
/// Build a cacheStatsReply (the 20-field block) from a counter snapshot.
std::string encodeCacheStatsReply(const ServerStats &stats);

// Body decoders take a Reader positioned just past the header. Each
// returns false on any structural problem, including a body that does
// not end exactly where the message does (trailing garbage).

/// Decode an analyze request body.
bool decodeAnalyzeRequest(bio::Reader &r, SourceItem &item,
                          std::uint8_t &flags);
/// Decode a batch request body.
bool decodeBatchRequest(bio::Reader &r, std::vector<SourceItem> &items,
                        std::uint8_t &flags);
/// Decode a coverage request body (identical layout to analyze).
bool decodeCoverageRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags);
/// Decode a simulate request body.
bool decodeSimulateRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags, core::SimulationArgs &sim);
/// Decode a manifestDiff request body into the two raw manifest blobs
/// (the caller runs corpus::deserializeManifest on each, answering
/// Error on blobs that fail validation there).
bool decodeManifestDiffRequest(bio::Reader &r, std::string &oldManifestBytes,
                               std::string &newManifestBytes);
/// Decode a hello handshake request body into the presented secret.
bool decodeHelloRequest(bio::Reader &r, std::string &secret);
/// Decode a manifestBatch request body. Validates the scalar fields
/// (progress byte <= 1, shardCount >= 1, shardIndex < shardCount) but
/// not the manifest blobs — the caller runs corpus::deserializeManifest
/// on each, answering Error on blobs that fail validation there.
bool decodeManifestBatchRequest(bio::Reader &r, ManifestBatchRequest &request);
/// Decode a batchProgress frame body.
bool decodeBatchProgress(bio::Reader &r, BatchProgress &progress);
/// Decode a manifestBatchReply body.
bool decodeManifestBatchReply(bio::Reader &r, ManifestBatchReply &reply);
/// Decode an Error reply body.
bool decodeErrorReply(bio::Reader &r, std::string &message);
/// Decode an analyzeReply body.
bool decodeAnalyzeReply(bio::Reader &r, AnalyzeReply &reply);
/// Decode a batchReply body.
bool decodeBatchReply(bio::Reader &r, std::vector<AnalyzeReply> &replies);
/// Decode a coverageReply body.
bool decodeCoverageReply(bio::Reader &r, CoverageReply &reply);
/// Decode a simulateReply body.
bool decodeSimulateReply(bio::Reader &r, SimulateReply &reply);
/// Decode a manifestDiffReply body.
bool decodeManifestDiffReply(bio::Reader &r, ManifestDiffReply &reply);
/// Decode a busyReply body.
bool decodeBusyReply(bio::Reader &r, BusyReply &reply);
/// Decode a metricsReply body.
bool decodeMetricsReply(bio::Reader &r, std::vector<MetricSample> &samples);
/// Decode a cacheStatsReply body.
bool decodeCacheStatsReply(bio::Reader &r, ServerStats &stats);

/// Canonical byte encoding of a full sim::SimResult (ok, error, return
/// value, total counters with a sparse category block, per-function
/// inclusive profiles, printed values). Used by simulateReply and by
/// tests comparing daemon-served counters against one-shot runs
/// byte-for-byte.
void putSimResult(std::string &out, const sim::SimResult &result);
bool readSimResult(bio::Reader &r, sim::SimResult &result);

} // namespace mira::server
