/// \file
/// The long-lived analysis daemon behind `mira-cli serve`.
///
/// AnalysisServer listens on a Unix-domain socket and/or a TCP
/// endpoint, fans client sessions
/// across a ThreadPool, and answers protocol requests (server/protocol.h)
/// from one shared BatchAnalyzer — so the in-memory analysis cache stays
/// hot across requests and processes stop paying startup plus cold-cache
/// cost per invocation. With a cache directory configured the daemon
/// also reads and feeds the persistent disk level, making it a warm
/// front-end to the same cache a batch run would use.
///
/// Connections are pipelined: a session keeps reading frames while
/// earlier requests still compute, and replies go out strictly in
/// request order (a per-connection sequencer buffers out-of-order
/// completions). Admission is bounded: at most `maxInflight` analysis
/// requests run at once daemon-wide; one more is answered with a Busy
/// reply carrying a retry hint instead of queueing without bound.
///
/// Life cycle: construct -> start() binds the socket -> serve() accepts
/// and dispatches until a shutdown request (protocol message or
/// requestStop()) -> graceful drain: accepting stops, in-flight requests
/// get up to `drainTimeoutMillis` to finish, stragglers are cut, the
/// socket file is removed and the metrics file (if any) gets a final
/// write. docs/SERVING.md is the operator guide; tests/server_test.cpp
/// pins the pipelining, backpressure, and malformed-input behavior.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/metrics_registry.h"
#include "driver/batch.h"
#include "server/protocol.h"
#include "support/socket.h"

namespace mira::server {

/// Daemon configuration. Analysis-affecting options arrive per request
/// over the wire; everything here is placement and execution strategy.
struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket. The daemon
  /// creates it (mode 0600) and unlinks it on clean shutdown. Empty =
  /// no Unix endpoint (TCP-only daemon; at least one endpoint must be
  /// configured).
  std::string socketPath;
  /// When true, also (or only) listen on TCP at tcpHost:tcpPort. Port 0
  /// asks the kernel for an ephemeral port — read it back with
  /// tcpPort() after start().
  bool tcpListen = false;
  std::string tcpHost = "127.0.0.1"; ///< TCP bind address
  std::uint16_t tcpPortRequested = 0; ///< TCP bind port; 0 = ephemeral
  /// Optional shared secret. When set, every session's first frame must
  /// be a Hello carrying exactly this string; anything else (including
  /// a stray port-scan probe) is answered Error-and-close before any
  /// request dispatch or compute. Applies to both endpoints so a
  /// daemon's auth story does not depend on which transport a client
  /// picked.
  std::string secret;
  /// Concurrent client sessions (reader threads) and, independently,
  /// compute workers. Additional accepted connections wait in the pool
  /// queue until a reader frees up.
  std::size_t threads = 4;
  /// Persistent cache directory shared with batch runs; empty = memory
  /// cache only.
  std::string cacheDir;
  /// LRU byte cap for the disk level (0 = unlimited).
  std::uint64_t cacheBytesLimit = 0;
  /// Per-frame payload cap; larger declared lengths are rejected with an
  /// Error reply and a closed connection.
  std::uint32_t maxFrameBytes = kMaxFrameBytes;
  /// Daemon-wide cap on concurrently running analysis requests (analyze,
  /// batch, coverage, simulate, manifest-diff — a batch counts as one).
  /// A request over the cap is refused with Busy instead of queueing
  /// unboundedly. 0 = unlimited.
  std::size_t maxInflight = 0;
  /// How long a graceful shutdown waits for in-flight requests before
  /// force-closing the remaining connections.
  std::uint32_t drainTimeoutMillis = 5000;
  /// Retry-after hint (milliseconds) carried in Busy replies.
  std::uint32_t busyRetryMillis = 50;
  /// When non-empty, the daemon rewrites this file about once a second
  /// (and once at startup and shutdown) with the Prometheus-style text
  /// dump of the metrics registry, via write-temp-then-rename so
  /// scrapers never see a torn file.
  std::string metricsFile;
};

/// Analysis daemon serving the wire protocol of server/protocol.h from
/// a shared two-level analysis cache, over a Unix-domain socket, a TCP
/// endpoint, or both — sessions behave identically on either transport.
class AnalysisServer {
public:
  explicit AnalysisServer(ServerOptions options);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Bind the listening socket and the internal stop event. Returns
  /// false (with a description in `error`) when the path is unusable or
  /// another daemon already listens there.
  bool start(std::string &error);

  /// Accept and dispatch until shutdown; blocks the calling thread.
  /// Returns after the drain completed and the socket file was removed.
  /// Must be preceded by a successful start().
  void serve();

  /// Ask serve() to stop: no new connections are accepted, idle
  /// connections see EOF, in-flight requests get the drain window to
  /// complete. Callable from any thread. Also reachable from signal
  /// handlers via stopEventFd().
  void requestStop();

  /// Write end of the stop event pipe: writing one byte is equivalent to
  /// requestStop() and is async-signal-safe (the CLI's SIGINT/SIGTERM
  /// handlers use exactly this).
  int stopEventFd() const { return stop_write_.fd(); }

  /// Lifetime counters plus current cache occupancy — the cacheStats
  /// wire reply, assembled from the metrics registry. Safe to call
  /// concurrently with serving.
  ServerStats snapshotStats() const;

  /// The full registry contents as wire samples — the Metrics reply.
  /// Gauges (uptime, in-flight, cache occupancy) are refreshed first.
  std::vector<MetricSample> metricsSamples() const;

  /// Prometheus-style text dump of the registry (the --metrics-file
  /// format, also what `mira-cli client metrics` prints).
  std::string renderMetricsText() const;

  const ServerOptions &options() const { return options_; }

  /// The TCP port actually bound (resolves a requested port of 0 to the
  /// kernel-assigned one). 0 when the daemon has no TCP endpoint or
  /// start() has not succeeded yet.
  std::uint16_t tcpPort() const { return net::boundPort(tcp_listener_); }

private:
  /// Per-connection state: the socket, the reader's sequence numbers,
  /// and the reply sequencer that restores request order.
  struct Session;

  void handleConnection(std::shared_ptr<Session> session);
  /// Decode one frame and either answer it inline (cheap requests) or
  /// dispatch it to the compute pool. Returns false when the reader must
  /// stop (shutdown, protocol error).
  bool handleFrame(const std::shared_ptr<Session> &session,
                   std::uint64_t seq, const std::string &message);
  /// Hand the reply for `seq` to the connection's sequencer; consecutive
  /// ready replies are flushed in order. With `closeAfter` the reply is
  /// the connection's last frame: once it is flushed the socket is cut.
  void enqueueReply(const std::shared_ptr<Session> &session,
                    std::uint64_t seq, std::string frame, bool closeAfter);
  /// Enqueue a reply produced by a compute worker, degrading an over-cap
  /// frame to an Error (the frame cap binds the daemon's own output too).
  void sendReplyAt(const std::shared_ptr<Session> &session,
                   std::uint64_t seq, std::string frame);
  /// Enqueue an Error reply and count it; closes after flushing.
  void sendErrorAt(const std::shared_ptr<Session> &session,
                   std::uint64_t seq, const std::string &text);
  /// Write (or buffer) a batchProgress frame for request `seq`. The
  /// sequencer keeps the stream legal: progress frames go out after the
  /// reply to seq-1 and before the final reply to seq, in emission
  /// order. Progress frames are not replies — they do not count toward
  /// requests_served.
  void sendProgressAt(const std::shared_ptr<Session> &session,
                      std::uint64_t seq, std::string frame);
  /// True when a manifest batch on this session should abandon its
  /// remaining work: the peer disconnected (and the daemon is not
  /// draining — during a drain in-flight requests finish and answer) or
  /// the write side already aborted.
  bool batchCancelled(const std::shared_ptr<Session> &session);
  /// Execute one admitted manifestBatch request on a compute worker:
  /// chunked fan-out over the analyzer, optional progress frames,
  /// cancellation between chunks, one merged byte-stable report.
  void runManifestBatch(const std::shared_ptr<Session> &session,
                        std::uint64_t seq,
                        const ManifestBatchRequest &request,
                        const corpus::Manifest &manifest,
                        const corpus::Manifest *since);
  /// Try to reserve an in-flight slot. At capacity the request is
  /// answered Busy (the connection keeps going) and false is returned.
  bool admitOrRefuse(const std::shared_ptr<Session> &session,
                     std::uint64_t seq);
  void releaseInflight();
  /// The shared tail of every computed request: admit (or answer Busy),
  /// then on a compute worker run `compute`, release the in-flight slot
  /// and send the reply frame it encoded.
  void dispatch(const std::shared_ptr<Session> &session, std::uint64_t seq,
                std::function<std::string()> compute);
  /// Refresh the point-in-time gauges before a registry snapshot.
  void refreshGauges() const;
  /// Atomically (re)write options_.metricsFile; no-op when unset.
  void writeMetricsFile() const;

  /// Record a served result in the counters (cache hit vs computed,
  /// failures, recompiles).
  void recordServed(const core::Artifacts &artifacts);
  /// Record artifacts in the counters and wrap them as a wire reply.
  AnalyzeReply replyFor(const core::Artifacts &artifacts);

  ServerOptions options_;
  /// The one registry behind every surface: the analyzer registers its
  /// lifetime counters here too, so cacheStats, the Metrics reply, and
  /// --metrics-file all render the same numbers. Mutable because gauge
  /// refreshes are logically const snapshot preparation.
  mutable core::MetricsRegistry metrics_;
  std::unique_ptr<driver::BatchAnalyzer> analyzer_;
  /// Readers: one task per live connection, blocked on frame I/O.
  std::unique_ptr<ThreadPool> sessions_;
  /// Compute workers: analysis requests run here so a slow-reading
  /// client never starves computation (and vice versa), and so one
  /// connection can have several requests genuinely in flight.
  std::unique_ptr<ThreadPool> compute_;
  net::Socket listener_;     // Unix endpoint (invalid when socketPath empty)
  net::Socket tcp_listener_; // TCP endpoint (invalid when !tcpListen)
  net::Socket stop_read_, stop_write_; // self-pipe: poll()-able stop event
  std::chrono::steady_clock::time_point started_;
  bool bound_ = false;

  /// Guards connections_ and stopping_ (sockets are shut down under the
  /// lock; the fds stay open until each Session is destroyed, so the
  /// stop broadcast can never race a close).
  std::mutex connections_mutex_;
  std::set<Session *> connections_;
  bool stopping_ = false;

  /// Admission state for --max-inflight; the cv wakes the drain waiter.
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::uint64_t inflight_ = 0;

  core::MetricsRegistry::Counter &connections_accepted_;
  core::MetricsRegistry::Counter &requests_served_;
  core::MetricsRegistry::Counter &analyze_requests_;
  core::MetricsRegistry::Counter &batch_requests_;
  core::MetricsRegistry::Counter &coverage_requests_;
  core::MetricsRegistry::Counter &simulate_requests_;
  core::MetricsRegistry::Counter &sources_analyzed_;
  core::MetricsRegistry::Counter &cache_hits_;
  core::MetricsRegistry::Counter &computed_;
  core::MetricsRegistry::Counter &failures_;
  core::MetricsRegistry::Counter &recompiles_;
  core::MetricsRegistry::Counter &protocol_errors_;
  core::MetricsRegistry::Counter &busy_rejections_;
  // ManifestBatch counters live in the registry only (Metrics reply and
  // --metrics-file): the cacheStatsReply wire block is frozen — its
  // decoder rejects trailing bytes, so growing it would break deployed
  // v2 clients.
  core::MetricsRegistry::Counter &manifest_batch_requests_;
  core::MetricsRegistry::Counter &manifest_batch_cancelled_;
};

} // namespace mira::server
