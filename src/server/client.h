/// \file
/// C++ client for the analysis daemon (`mira-cli serve`).
///
/// Client wraps one connection to a daemon socket and exposes each
/// protocol request (server/protocol.h) as a blocking call returning
/// decoded results. The connection is persistent: many requests may be
/// issued over one Client, which is exactly the amortization the daemon
/// exists for. Errors — connect failures, protocol violations, Error
/// replies from the daemon — surface as a false return plus a
/// human-readable lastError(); nothing throws. `mira-cli client` is a
/// thin shell around this class, and tests/server_test.cpp drives both
/// ends in one process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mira.h"
#include "driver/batch.h"
#include "server/protocol.h"
#include "support/socket.h"

namespace mira::server {

/// A decoded analysis result from the daemon: the wire AnalyzeReply with
/// its result payload unpacked into usable parts.
struct ClientOutcome {
  std::string name;        ///< producer name from the payload
  bool ok = false;         ///< analysis produced a model
  bool cacheHit = false;   ///< daemon served it without recomputation
  std::uint64_t micros = 0;    ///< server-side wall time
  std::string diagnostics;     ///< rendered warnings/errors
  std::string payload;         ///< raw result payload (byte-comparable)
  /// Deserialized model; null when !ok. Shares no state with the daemon.
  std::shared_ptr<const core::AnalysisResult> analysis;
  /// Loop-coverage summary riding along in the payload (absent only
  /// when the daemon's value carried none).
  std::optional<sema::LoopCoverage> coverage;
};

/// One blocking connection to an AnalysisServer socket.
class Client {
public:
  Client() = default;

  /// Coarse classification of the most recent failure, so callers (the
  /// CLI in particular) can distinguish "no daemon there" from "the
  /// daemon vanished mid-conversation" without parsing lastError() text.
  enum class ErrorKind {
    none,      ///< no failure recorded
    connect,   ///< could not establish (or never had) a connection
    transport, ///< the connection died mid-conversation (EOF, send/recv)
    protocol,  ///< the peer spoke the protocol wrong (or a frame-cap hit)
    daemon,    ///< the daemon answered with an Error reply
    busy,      ///< gave up after the configured Busy retries
  };

  /// How many times a request refused with Busy is retried (after
  /// sleeping for the daemon's retry hint) before giving up with an
  /// error. 0 = fail on the first Busy.
  void setBusyRetries(std::size_t retries) { busy_retries_ = retries; }
  std::size_t busyRetries() const { return busy_retries_; }

  /// Bound on establishing a TCP connection, milliseconds (<= 0 waits
  /// indefinitely). Unix-domain connects are immediate and unaffected.
  void setConnectTimeoutMillis(int millis) { connect_timeout_ = millis; }

  /// Bound on waiting for any single reply frame, milliseconds (<= 0
  /// waits indefinitely, the default). A stalled daemon then surfaces
  /// as a transport failure instead of a hang. Applies to connections
  /// opened after the call, on either transport.
  void setReadTimeoutMillis(int millis) { read_timeout_ = millis; }

  /// Shared secret for daemons started with one: connect()/connectTcp()
  /// then sends a Hello frame as the session's first request and fails
  /// (ErrorKind::connect) unless the daemon answers helloReply. Empty
  /// (default) skips the handshake.
  void setSecret(const std::string &secret) { secret_ = secret; }

  /// Connect to the daemon socket at `path`. False (see lastError()) if
  /// no daemon is listening.
  bool connect(const std::string &path);

  /// Connect to a daemon's TCP endpoint at `host:port`, honoring the
  /// connect timeout. False (see lastError()) when unreachable or the
  /// handshake is rejected.
  bool connectTcp(const std::string &host, std::uint16_t port);

  bool connected() const { return socket_.valid(); }

  /// Close the connection; the client can connect() again afterwards.
  void disconnect();

  /// Round-trip a ping. True when the daemon answered pong.
  bool ping();

  /// Analyze one named source under `options` (only the wire-visible
  /// option bits travel; see protocol OptionFlags).
  bool analyze(const std::string &name, const std::string &source,
               const core::MiraOptions &options, ClientOutcome &outcome);

  /// Analyze many sources in one request; outcomes arrive in input
  /// order. False on transport/protocol failure (partial results are
  /// discarded).
  bool analyzeBatch(const std::vector<SourceItem> &items,
                    const core::MiraOptions &options,
                    std::vector<ClientOutcome> &outcomes);

  /// Analyze many sources as individual pipelined requests on this one
  /// connection: up to a fixed window of frames is outstanding at once,
  /// and the replies — which the daemon guarantees arrive in request
  /// order — are read back in sequence. Unlike analyzeBatch the daemon treats each item
  /// as its own request, so items refused with Busy are retried in
  /// follow-up rounds (honoring the retry hint) while accepted items'
  /// results are kept. Outcomes arrive in input order; payload bytes
  /// are identical to one-shot analyze() calls of the same items.
  bool analyzePipelined(const std::vector<SourceItem> &items,
                        const core::MiraOptions &options,
                        std::vector<ClientOutcome> &outcomes);

  /// Loop-coverage summary of one source. Served from the daemon's
  /// cached coverage summary when warm — no recompilation.
  bool coverage(const std::string &name, const std::string &source,
                const core::MiraOptions &options, CoverageReply &reply);

  /// Run the simulator on one source. A warm daemon reuses the cached
  /// analysis and at most recompiles the binary (reply.recompiled); the
  /// model stage never re-runs.
  bool simulate(const std::string &name, const std::string &source,
                const core::MiraOptions &options,
                const core::SimulationArgs &sim, SimulateReply &reply);

  /// Diff two serialized corpus manifests (corpus::serializeManifest
  /// bytes) on the daemon. The daemon validates both blobs and answers
  /// the added/changed/removed entry lists that an incremental
  /// `batch --manifest --since` run would act on.
  bool manifestDiff(const std::string &oldManifestBytes,
                    const std::string &newManifestBytes,
                    ManifestDiffReply &reply);

  /// Called for each BatchProgress frame a manifestBatch() streams back
  /// (cumulative counts; the daemon sends one per executed chunk).
  using ProgressFn = std::function<void(const BatchProgress &)>;

  /// Execute a whole corpus manifest on the daemon: the daemon diffs
  /// against `sinceBytes` (when non-empty), keeps shard `shard` of the
  /// result, analyzes on its compute pool, and answers
  /// one serialized BatchReport (driver::deserializeBatchReport bytes)
  /// that is byte-identical to a local `mira-cli batch --manifest` over
  /// the same manifest, options, and cache. `root` overrides the
  /// manifest's recorded source root; empty keeps it. With `onProgress`
  /// set the request asks for streaming progress frames and invokes the
  /// callback as they arrive; without it a progress frame is a protocol
  /// error. A Busy refusal is retried like every other request (the
  /// daemon has not started the batch).
  bool manifestBatch(const std::string &manifestBytes,
                     const std::string &sinceBytes, const std::string &root,
                     const driver::ShardSpec &shard,
                     const core::MiraOptions &options,
                     const ProgressFn &onProgress, std::string &reportBytes);

  /// Fetch the daemon's counter block.
  bool cacheStats(ServerStats &stats);

  /// Fetch the daemon's full metrics registry: every named counter and
  /// gauge, name-sorted — the same numbers the --metrics-file dump
  /// renders.
  bool metrics(std::vector<MetricSample> &samples);

  /// Ask the daemon to shut down cleanly. True once the daemon
  /// acknowledged (it drains in-flight work and exits afterwards).
  bool shutdownServer();

  /// Description of the most recent failure (connect, send, receive,
  /// decode, or an Error reply's message).
  const std::string &lastError() const { return error_; }

  /// Classification of the most recent failure; ErrorKind::none after a
  /// success.
  ErrorKind lastErrorKind() const { return kind_; }

private:
  /// One request/reply exchange: send(), then receive() until a reply
  /// of type `expected` arrives; a Busy refusal resends after
  /// backoff(). `onProgress`, when set, takes batchProgress frames
  /// ahead of the reply. On success `reply` holds the reply's body.
  bool roundTrip(const std::string &request, MessageType expected,
                 std::string &reply, const ProgressFn &onProgress = nullptr);
  /// Write one request frame: fails when not connected, refuses an
  /// over-cap request before anything reaches the wire.
  bool send(const std::string &request);
  /// Read one reply and sort it. The `expected` type leaves its body in
  /// `reply`; Busy succeeds with `busyMillis` set to the wait before a
  /// resend (the daemon's hint, 10 ms when the hint is 0; 0 for any
  /// other reply); batchProgress goes to `onProgress` when one is set
  /// and the next frame is read. Error replies, transport failures and
  /// any other type fail and close the connection.
  bool receive(MessageType expected, const ProgressFn &onProgress,
               std::string &reply, std::uint32_t &busyMillis);
  /// Spend Busy retry number `retry` (0-based): fail with
  /// ErrorKind::busy once busyRetries() are used up, else sleep.
  bool backoff(std::size_t retry, std::uint32_t busyMillis);
  /// Decode a reply body with `decoder`; on failure close the
  /// connection and record a protocol error reading `malformed`.
  template <typename Body>
  bool decode(const std::string &bytes, bool (*decoder)(bio::Reader &, Body &),
              Body &body, const char *malformed);
  bool decodeOutcome(const AnalyzeReply &wire, ClientOutcome &outcome);
  bool fail(ErrorKind kind, const std::string &message);
  /// Shared tail of connect()/connectTcp(): arm the read timeout and
  /// run the Hello handshake when a secret is configured. On handshake
  /// failure the socket is closed and ErrorKind::connect recorded (the
  /// session was never usable).
  bool finishConnect(const std::string &where);

  net::Socket socket_;
  std::string error_;
  ErrorKind kind_ = ErrorKind::none;
  std::size_t busy_retries_ = 8;
  int connect_timeout_ = 0;
  int read_timeout_ = 0;
  std::string secret_;
};

} // namespace mira::server
