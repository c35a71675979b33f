#include "server/client.h"

#include <chrono>
#include <thread>

#include "driver/batch.h"

namespace mira::server {

namespace {

/// Requests analyzePipelined keeps outstanding on one connection. A
/// daemon worker writes its reply while holding the session lock that the
/// session's reader needs before it reads the next request. A client that
/// writes without reading can therefore fill the socket buffers both ways
/// and stall against the daemon. With a small window the unread replies,
/// or the unread requests, fit in the socket buffers.
constexpr std::size_t kPipelineWindow = 16;

} // namespace

bool Client::fail(ErrorKind kind, const std::string &message) {
  kind_ = kind;
  error_ = message;
  return false;
}

bool Client::connect(const std::string &path) {
  disconnect();
  std::string error;
  socket_ = net::connectUnix(path, error);
  if (!socket_.valid())
    return fail(ErrorKind::connect, error);
  return finishConnect("'" + path + "'");
}

bool Client::connectTcp(const std::string &host, std::uint16_t port) {
  disconnect();
  std::string error;
  socket_ = net::connectTcp(host, port, connect_timeout_, error);
  if (!socket_.valid())
    return fail(ErrorKind::connect, error);
  return finishConnect(host + ":" + std::to_string(port));
}

bool Client::finishConnect(const std::string &where) {
  if (read_timeout_ > 0)
    net::setReadTimeout(socket_.fd(), read_timeout_);
  if (!secret_.empty()) {
    // The handshake is this session's first frame; any failure means
    // the connection never became usable, so it classifies as connect.
    std::string reply;
    if (!roundTrip(encodeHelloRequest(secret_), MessageType::helloReply,
                   reply)) {
      disconnect();
      return fail(ErrorKind::connect,
                  "handshake with " + where + " failed: " + error_);
    }
  }
  kind_ = ErrorKind::none;
  return true;
}

void Client::disconnect() { socket_.close(); }

template <typename Body>
bool Client::decode(const std::string &bytes,
                    bool (*decoder)(bio::Reader &, Body &), Body &body,
                    const char *malformed) {
  bio::Reader r{bytes, 0};
  if (decoder(r, body))
    return true;
  disconnect();
  return fail(ErrorKind::protocol, malformed);
}

bool Client::send(const std::string &request) {
  if (!socket_.valid())
    return fail(ErrorKind::connect, "not connected");
  // The frame cap is a protocol MUST for both peers: refuse to send an
  // over-cap request up front, with the actionable message the daemon
  // could never deliver (it would close the connection mid-send).
  if (request.size() > kMaxFrameBytes)
    return fail(ErrorKind::protocol,
                "request of " + std::to_string(request.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap; split the request");
  if (!net::writeFrame(socket_.fd(), request)) {
    disconnect();
    return fail(ErrorKind::transport, "send failed (daemon gone?)");
  }
  return true;
}

bool Client::receive(MessageType expected, const ProgressFn &onProgress,
                     std::string &reply, std::uint32_t &busyMillis) {
  busyMillis = 0;
  for (;;) {
    net::FrameStatus status =
        net::readFrame(socket_.fd(), reply, kMaxFrameBytes);
    if (status != net::FrameStatus::ok) {
      disconnect();
      switch (status) {
      case net::FrameStatus::closed:
        return fail(ErrorKind::transport, "daemon closed the connection");
      case net::FrameStatus::truncated:
        return fail(ErrorKind::transport,
                    "daemon closed the connection mid-reply");
      case net::FrameStatus::oversized:
        return fail(ErrorKind::protocol, "reply frame exceeds the frame cap");
      default:
        return fail(ErrorKind::transport, "receive failed");
      }
    }
    bio::Reader r{reply, 0};
    MessageType type{};
    std::string headerError;
    if (!readHeader(r, type, headerError)) {
      disconnect();
      return fail(ErrorKind::protocol, "malformed reply: " + headerError);
    }
    // Strip the consumed header so only the body is decoded.
    reply.erase(0, r.offset);
    if (type == expected)
      return true;
    if (type == MessageType::error) {
      std::string message;
      if (!decode(reply, decodeErrorReply, message,
                  "daemon error (unreadable message)"))
        return false;
      // The daemon closes the connection after an Error reply.
      disconnect();
      return fail(ErrorKind::daemon, "daemon error: " + message);
    }
    if (type == MessageType::busyReply) {
      // Refused without queueing and the connection left open: nothing
      // ran, so the caller may resend after the hint.
      BusyReply busy;
      if (!decode(reply, decodeBusyReply, busy, "malformed busy reply"))
        return false;
      busyMillis = busy.retryAfterMillis ? busy.retryAfterMillis : 10;
      return true;
    }
    if (type == MessageType::batchProgress && onProgress) {
      BatchProgress progress;
      if (!decode(reply, decodeBatchProgress, progress,
                  "malformed progress frame"))
        return false;
      onProgress(progress);
      continue;
    }
    disconnect();
    return fail(ErrorKind::protocol,
                "unexpected reply type " +
                    std::to_string(static_cast<unsigned>(type)));
  }
}

bool Client::backoff(std::size_t retry, std::uint32_t busyMillis) {
  if (retry >= busy_retries_)
    return fail(ErrorKind::busy, "daemon at capacity (gave up after " +
                                     std::to_string(busy_retries_) +
                                     " retries)");
  std::this_thread::sleep_for(std::chrono::milliseconds(busyMillis));
  return true;
}

bool Client::roundTrip(const std::string &request, MessageType expected,
                       std::string &reply, const ProgressFn &onProgress) {
  for (std::size_t retry = 0;; ++retry) {
    std::uint32_t busyMillis = 0;
    if (!send(request) || !receive(expected, onProgress, reply, busyMillis))
      return false;
    if (busyMillis == 0)
      return true;
    if (!backoff(retry, busyMillis))
      return false;
  }
}

bool Client::ping() {
  std::string reply;
  return roundTrip(encodeEmptyMessage(MessageType::ping), MessageType::pong,
                   reply);
}

bool Client::decodeOutcome(const AnalyzeReply &wire, ClientOutcome &outcome) {
  outcome = ClientOutcome();
  outcome.cacheHit = wire.cacheHit;
  outcome.micros = wire.micros;
  outcome.payload = wire.payload;
  if (!driver::deserializeArtifactPayload(wire.payload, outcome.analysis,
                                          outcome.coverage,
                                          outcome.diagnostics, outcome.name))
    return fail(ErrorKind::protocol, "malformed result payload in reply");
  outcome.ok = outcome.analysis != nullptr;
  return true;
}

bool Client::analyze(const std::string &name, const std::string &source,
                     const core::MiraOptions &options,
                     ClientOutcome &outcome) {
  std::string reply;
  AnalyzeReply wire;
  return roundTrip(encodeAnalyzeRequest({name, source}, packOptions(options)),
                   MessageType::analyzeReply, reply) &&
         decode(reply, decodeAnalyzeReply, wire, "malformed analyze reply") &&
         decodeOutcome(wire, outcome);
}

bool Client::analyzeBatch(const std::vector<SourceItem> &items,
                          const core::MiraOptions &options,
                          std::vector<ClientOutcome> &outcomes) {
  std::string reply;
  std::vector<AnalyzeReply> wires;
  if (!roundTrip(encodeBatchRequest(items, packOptions(options)),
                 MessageType::batchReply, reply) ||
      !decode(reply, decodeBatchReply, wires, "malformed batch reply"))
    return false;
  if (wires.size() != items.size())
    return fail(ErrorKind::protocol, "batch reply count mismatch");
  // Decode into a local vector so a mid-loop failure leaves the
  // caller's outcomes untouched (the documented all-or-nothing
  // contract).
  std::vector<ClientOutcome> decoded(wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i)
    if (!decodeOutcome(wires[i], decoded[i]))
      return false;
  outcomes = std::move(decoded);
  return true;
}

bool Client::analyzePipelined(const std::vector<SourceItem> &items,
                              const core::MiraOptions &options,
                              std::vector<ClientOutcome> &outcomes) {
  // send() checks this too, but an empty list never reaches it.
  if (!socket_.valid())
    return fail(ErrorKind::connect, "not connected");
  const std::uint8_t flags = packOptions(options);
  std::vector<ClientOutcome> decoded(items.size());
  std::vector<std::size_t> pending(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    pending[i] = i;

  for (std::size_t round = 0; !pending.empty(); ++round) {
    // Write requests until kPipelineWindow are outstanding, then read a
    // reply before writing the next. The daemon answers strictly in
    // request order, so the i-th reply frame belongs to the i-th frame of
    // this round. A failure after the round's first frame leaves replies
    // owed that nobody will read, so the session ends with it.
    std::vector<std::size_t> refused;
    std::uint32_t retryMillis = 0;
    std::size_t sent = 0;
    for (std::size_t received = 0; received < pending.size(); ++received) {
      for (; sent < pending.size() && sent - received < kPipelineWindow;
           ++sent)
        if (!send(encodeAnalyzeRequest(items[pending[sent]], flags))) {
          if (sent > 0)
            disconnect();
          return false;
        }
      const std::size_t idx = pending[received];
      std::string reply;
      std::uint32_t busyMillis = 0;
      if (!receive(MessageType::analyzeReply, nullptr, reply, busyMillis))
        return false;
      if (busyMillis != 0) {
        // Refused items go into the next round; accepted ones are kept.
        retryMillis = busyMillis;
        refused.push_back(idx);
        continue;
      }
      AnalyzeReply wire;
      if (!decode(reply, decodeAnalyzeReply, wire, "malformed analyze reply"))
        return false;
      if (!decodeOutcome(wire, decoded[idx])) {
        disconnect();
        return false;
      }
    }
    if (!refused.empty() && !backoff(round, retryMillis))
      return false;
    pending = std::move(refused);
  }
  outcomes = std::move(decoded);
  return true;
}

bool Client::coverage(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      CoverageReply &reply) {
  std::string wire;
  return roundTrip(encodeCoverageRequest({name, source}, packOptions(options)),
                   MessageType::coverageReply, wire) &&
         decode(wire, decodeCoverageReply, reply, "malformed coverage reply");
}

bool Client::simulate(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      const core::SimulationArgs &sim, SimulateReply &reply) {
  std::string wire;
  return roundTrip(
             encodeSimulateRequest({name, source}, packOptions(options), sim),
             MessageType::simulateReply, wire) &&
         decode(wire, decodeSimulateReply, reply, "malformed simulate reply");
}

bool Client::manifestDiff(const std::string &oldManifestBytes,
                          const std::string &newManifestBytes,
                          ManifestDiffReply &reply) {
  std::string wire;
  return roundTrip(
             encodeManifestDiffRequest(oldManifestBytes, newManifestBytes),
             MessageType::manifestDiffReply, wire) &&
         decode(wire, decodeManifestDiffReply, reply,
                "malformed manifest-diff reply");
}

bool Client::manifestBatch(const std::string &manifestBytes,
                           const std::string &sinceBytes,
                           const std::string &root,
                           const driver::ShardSpec &shard,
                           const core::MiraOptions &options,
                           const ProgressFn &onProgress,
                           std::string &reportBytes) {
  ManifestBatchRequest request;
  request.flags = packOptions(options);
  request.progress = onProgress != nullptr;
  request.shardIndex = static_cast<std::uint32_t>(shard.index);
  request.shardCount = static_cast<std::uint32_t>(shard.count);
  request.root = root;
  request.manifestBytes = manifestBytes;
  request.sinceBytes = sinceBytes;
  std::string wire;
  ManifestBatchReply reply;
  if (!roundTrip(encodeManifestBatchRequest(request),
                 MessageType::manifestBatchReply, wire, onProgress) ||
      !decode(wire, decodeManifestBatchReply, reply,
              "malformed manifest-batch reply"))
    return false;
  reportBytes = std::move(reply.reportBytes);
  return true;
}

bool Client::cacheStats(ServerStats &stats) {
  std::string reply;
  return roundTrip(encodeEmptyMessage(MessageType::cacheStats),
                   MessageType::cacheStatsReply, reply) &&
         decode(reply, decodeCacheStatsReply, stats,
                "malformed cache-stats reply");
}

bool Client::metrics(std::vector<MetricSample> &samples) {
  std::string reply;
  return roundTrip(encodeEmptyMessage(MessageType::metrics),
                   MessageType::metricsReply, reply) &&
         decode(reply, decodeMetricsReply, samples, "malformed metrics reply");
}

bool Client::shutdownServer() {
  std::string reply;
  if (!roundTrip(encodeEmptyMessage(MessageType::shutdown),
                 MessageType::shutdownReply, reply))
    return false;
  // The daemon stops reading afterwards; this connection is done.
  disconnect();
  return true;
}

} // namespace mira::server
