#include "server/client.h"

#include <chrono>
#include <thread>

#include "driver/batch.h"

namespace mira::server {

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

bool Client::receiveReply(MessageType &type, std::string &reply) {
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
  std::string headerError;
  if (!readHeader(r, type, headerError)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed reply: " + headerError);
  }
  if (type == MessageType::error) {
    std::string message;
    // The daemon closes the connection after an Error reply.
    disconnect();
    if (decodeErrorReply(r, message))
      return fail(ErrorKind::daemon, "daemon error: " + message);
    return fail(ErrorKind::protocol, "daemon error (unreadable message)");
  }
  // Strip the consumed header so callers decode the body only.
  reply.erase(0, r.offset);
  return true;
}

bool Client::roundTrip(const std::string &request, MessageType expected,
                       std::string &reply) {
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
  for (std::size_t attempt = 0;; ++attempt) {
    if (!net::writeFrame(socket_.fd(), request)) {
      disconnect();
      return fail(ErrorKind::transport, "send failed (daemon gone?)");
    }
    MessageType type{};
    if (!receiveReply(type, reply))
      return false;
    if (type == MessageType::busyReply) {
      // The daemon refused without queueing and left the connection
      // open: back off for the server-supplied hint and resend.
      bio::Reader r{reply, 0};
      BusyReply busy;
      if (!decodeBusyReply(r, busy)) {
        disconnect();
        return fail(ErrorKind::protocol, "malformed busy reply");
      }
      if (attempt >= busy_retries_)
        return fail(ErrorKind::busy,
                    "daemon at capacity (gave up after " +
                        std::to_string(busy_retries_) + " retries)");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          busy.retryAfterMillis ? busy.retryAfterMillis : 10));
      continue;
    }
    if (type != expected) {
      disconnect();
      return fail(ErrorKind::protocol,
                  "unexpected reply type " +
                      std::to_string(static_cast<unsigned>(type)));
    }
    return true;
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
  SourceItem item{name, source};
  std::string reply;
  if (!roundTrip(encodeAnalyzeRequest(item, packOptions(options)),
                 MessageType::analyzeReply, reply))
    return false;
  bio::Reader r{reply, 0};
  AnalyzeReply wire;
  if (!decodeAnalyzeReply(r, wire)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed analyze reply");
  }
  return decodeOutcome(wire, outcome);
}

bool Client::analyzeBatch(const std::vector<SourceItem> &items,
                          const core::MiraOptions &options,
                          std::vector<ClientOutcome> &outcomes) {
  std::string reply;
  if (!roundTrip(encodeBatchRequest(items, packOptions(options)),
                 MessageType::batchReply, reply))
    return false;
  bio::Reader r{reply, 0};
  std::vector<AnalyzeReply> wires;
  if (!decodeBatchReply(r, wires)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed batch reply");
  }
  if (wires.size() != items.size())
    return fail(ErrorKind::protocol, "batch reply count mismatch");
  // Decode into a local vector so a mid-loop failure leaves the
  // caller's outcomes untouched (the documented all-or-nothing
  // contract).
  std::vector<ClientOutcome> decoded;
  decoded.reserve(wires.size());
  for (const AnalyzeReply &wire : wires) {
    ClientOutcome outcome;
    if (!decodeOutcome(wire, outcome))
      return false;
    decoded.push_back(std::move(outcome));
  }
  outcomes = std::move(decoded);
  return true;
}

bool Client::analyzePipelined(const std::vector<SourceItem> &items,
                              const core::MiraOptions &options,
                              std::vector<ClientOutcome> &outcomes) {
  if (!socket_.valid())
    return fail(ErrorKind::connect, "not connected");
  std::vector<ClientOutcome> decoded(items.size());
  std::vector<std::size_t> pending(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    pending[i] = i;
  std::uint32_t retryHintMillis = 0;

  for (std::size_t round = 0; !pending.empty(); ++round) {
    if (round > 0) {
      if (round > busy_retries_)
        return fail(ErrorKind::busy, "daemon at capacity (gave up after " +
                    std::to_string(busy_retries_) + " retries)");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retryHintMillis ? retryHintMillis : 10));
    }
    // Write every outstanding request up front, then read the replies
    // back: the daemon answers strictly in request order, so the i-th
    // reply frame belongs to the i-th frame of this round.
    for (std::size_t idx : pending) {
      const std::string request =
          encodeAnalyzeRequest(items[idx], packOptions(options));
      if (request.size() > kMaxFrameBytes)
        return fail(ErrorKind::protocol, "request of " + std::to_string(request.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap; split the request");
      if (!net::writeFrame(socket_.fd(), request)) {
        disconnect();
        return fail(ErrorKind::transport, "send failed (daemon gone?)");
      }
    }
    std::vector<std::size_t> refused;
    for (std::size_t idx : pending) {
      std::string reply;
      MessageType type{};
      if (!receiveReply(type, reply))
        return false;
      if (type == MessageType::busyReply) {
        // Refused without queueing; the connection stays open and the
        // item goes into the next round.
        bio::Reader r{reply, 0};
        BusyReply busy;
        if (!decodeBusyReply(r, busy)) {
          disconnect();
          return fail(ErrorKind::protocol, "malformed busy reply");
        }
        retryHintMillis = busy.retryAfterMillis;
        refused.push_back(idx);
        continue;
      }
      if (type != MessageType::analyzeReply) {
        disconnect();
        return fail(ErrorKind::protocol, "unexpected reply type " +
                    std::to_string(static_cast<unsigned>(type)));
      }
      bio::Reader r{reply, 0};
      AnalyzeReply wire;
      if (!decodeAnalyzeReply(r, wire)) {
        disconnect();
        return fail(ErrorKind::protocol, "malformed analyze reply");
      }
      if (!decodeOutcome(wire, decoded[idx]))
        return false;
    }
    pending = std::move(refused);
  }
  outcomes = std::move(decoded);
  return true;
}

bool Client::coverage(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      CoverageReply &reply) {
  SourceItem item{name, source};
  std::string wire;
  if (!roundTrip(encodeCoverageRequest(item, packOptions(options)),
                 MessageType::coverageReply, wire))
    return false;
  bio::Reader r{wire, 0};
  if (!decodeCoverageReply(r, reply)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed coverage reply");
  }
  return true;
}

bool Client::simulate(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      const core::SimulationArgs &sim, SimulateReply &reply) {
  SourceItem item{name, source};
  std::string wire;
  if (!roundTrip(encodeSimulateRequest(item, packOptions(options), sim),
                 MessageType::simulateReply, wire))
    return false;
  bio::Reader r{wire, 0};
  if (!decodeSimulateReply(r, reply)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed simulate reply");
  }
  return true;
}

bool Client::manifestDiff(const std::string &oldManifestBytes,
                          const std::string &newManifestBytes,
                          ManifestDiffReply &reply) {
  std::string wire;
  if (!roundTrip(encodeManifestDiffRequest(oldManifestBytes, newManifestBytes),
                 MessageType::manifestDiffReply, wire))
    return false;
  bio::Reader r{wire, 0};
  if (!decodeManifestDiffReply(r, reply)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed manifest-diff reply");
  }
  return true;
}

bool Client::manifestBatch(const std::string &manifestBytes,
                           const std::string &sinceBytes,
                           const std::string &root,
                           const driver::ShardSpec &shard,
                           const core::MiraOptions &options,
                           const ProgressFn &onProgress,
                           std::string &reportBytes) {
  if (!socket_.valid())
    return fail(ErrorKind::connect, "not connected");
  ManifestBatchRequest request;
  request.flags = packOptions(options);
  request.progress = onProgress != nullptr;
  request.shardIndex = static_cast<std::uint32_t>(shard.index);
  request.shardCount = static_cast<std::uint32_t>(shard.count);
  request.root = root;
  request.manifestBytes = manifestBytes;
  request.sinceBytes = sinceBytes;
  const std::string wire = encodeManifestBatchRequest(request);
  if (wire.size() > kMaxFrameBytes)
    return fail(ErrorKind::protocol,
                "request of " + std::to_string(wire.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap; split the request");
  // Not roundTrip: the final reply may be preceded by any number of
  // batchProgress frames, the second reply type (after Busy) that does
  // not end the conversation.
  for (std::size_t attempt = 0;; ++attempt) {
    if (!net::writeFrame(socket_.fd(), wire)) {
      disconnect();
      return fail(ErrorKind::transport, "send failed (daemon gone?)");
    }
    bool resend = false;
    for (;;) {
      MessageType type{};
      std::string reply;
      if (!receiveReply(type, reply))
        return false;
      if (type == MessageType::busyReply) {
        // Refused without queueing: nothing ran, resending is safe.
        bio::Reader r{reply, 0};
        BusyReply busy;
        if (!decodeBusyReply(r, busy)) {
          disconnect();
          return fail(ErrorKind::protocol, "malformed busy reply");
        }
        if (attempt >= busy_retries_)
          return fail(ErrorKind::busy,
                      "daemon at capacity (gave up after " +
                          std::to_string(busy_retries_) + " retries)");
        std::this_thread::sleep_for(std::chrono::milliseconds(
            busy.retryAfterMillis ? busy.retryAfterMillis : 10));
        resend = true;
        break;
      }
      if (type == MessageType::batchProgress) {
        bio::Reader r{reply, 0};
        BatchProgress progress;
        if (!decodeBatchProgress(r, progress)) {
          disconnect();
          return fail(ErrorKind::protocol, "malformed progress frame");
        }
        if (onProgress)
          onProgress(progress);
        continue;
      }
      if (type != MessageType::manifestBatchReply) {
        disconnect();
        return fail(ErrorKind::protocol,
                    "unexpected reply type " +
                        std::to_string(static_cast<unsigned>(type)));
      }
      bio::Reader r{reply, 0};
      ManifestBatchReply decoded;
      if (!decodeManifestBatchReply(r, decoded)) {
        disconnect();
        return fail(ErrorKind::protocol, "malformed manifest-batch reply");
      }
      reportBytes = std::move(decoded.reportBytes);
      return true;
    }
    if (!resend)
      return false; // unreachable; inner loop always returns or resends
  }
}

bool Client::cacheStats(ServerStats &stats) {
  std::string reply;
  if (!roundTrip(encodeEmptyMessage(MessageType::cacheStats),
                 MessageType::cacheStatsReply, reply))
    return false;
  bio::Reader r{reply, 0};
  if (!decodeCacheStatsReply(r, stats)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed cache-stats reply");
  }
  return true;
}

bool Client::metrics(std::vector<MetricSample> &samples) {
  std::string reply;
  if (!roundTrip(encodeEmptyMessage(MessageType::metrics),
                 MessageType::metricsReply, reply))
    return false;
  bio::Reader r{reply, 0};
  if (!decodeMetricsReply(r, samples)) {
    disconnect();
    return fail(ErrorKind::protocol, "malformed metrics reply");
  }
  return true;
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
