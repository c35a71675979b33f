// Serving subsystem tests: wire-protocol codecs, the daemon's
// request/response loop, malformed and oversized frames, concurrent
// clients, clean shutdown with requests in flight — and the headline
// acceptance invariant: a daemon-served model payload is byte-identical
// to a one-shot analysis of the same (source, options), cold and warm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/artifacts.h"
#include "corpus/manifest.h"
#include "driver/batch.h"
#include "model/python_emitter.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/socket.h"
#include "workloads/workloads.h"

namespace mira::server {
namespace {

// ---------------------------------------------------------------- codecs

TEST(ProtocolCodec, AnalyzeRequestRoundTrips) {
  SourceItem item{"kernel.mc", "int f() { return 1; }"};
  std::string wire = encodeAnalyzeRequest(item, kOptionOptimize);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::analyze);

  SourceItem decoded;
  std::uint8_t flags = 0;
  ASSERT_TRUE(decodeAnalyzeRequest(r, decoded, flags));
  EXPECT_EQ(decoded.name, item.name);
  EXPECT_EQ(decoded.source, item.source);
  EXPECT_EQ(flags, kOptionOptimize);
}

TEST(ProtocolCodec, BatchRequestRoundTrips) {
  std::vector<SourceItem> items{{"a", "src a"}, {"b", "src b"}, {"c", ""}};
  std::string wire = encodeBatchRequest(items, 0x7);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::batch);

  std::vector<SourceItem> decoded;
  std::uint8_t flags = 0;
  ASSERT_TRUE(decodeBatchRequest(r, decoded, flags));
  EXPECT_EQ(flags, 0x7);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[1].name, "b");
  EXPECT_EQ(decoded[2].source, "");
}

TEST(ProtocolCodec, RepliesRoundTrip) {
  AnalyzeReply reply;
  reply.cacheHit = true;
  reply.micros = 123456;
  reply.payload = std::string("\x01payload bytes\x00with nul", 23);
  std::string wire = encodeAnalyzeReply(reply);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::analyzeReply);
  AnalyzeReply decoded;
  ASSERT_TRUE(decodeAnalyzeReply(r, decoded));
  EXPECT_TRUE(decoded.cacheHit);
  EXPECT_EQ(decoded.micros, 123456u);
  EXPECT_EQ(decoded.payload, reply.payload);

  ServerStats stats;
  stats.uptimeMicros = 1;
  stats.cacheHits = 42;
  stats.diskBytes = 1ull << 40;
  stats.threads = 8;
  std::string statsWire = encodeCacheStatsReply(stats);
  bio::Reader sr{statsWire, 0};
  ASSERT_TRUE(readHeader(sr, type, error)) << error;
  EXPECT_EQ(type, MessageType::cacheStatsReply);
  ServerStats decodedStats;
  ASSERT_TRUE(decodeCacheStatsReply(sr, decodedStats));
  EXPECT_EQ(decodedStats.cacheHits, 42u);
  EXPECT_EQ(decodedStats.diskBytes, 1ull << 40);
  EXPECT_EQ(decodedStats.threads, 8u);
}

TEST(ProtocolCodec, RejectsBadMagicAndVersion) {
  std::string wire = encodeEmptyMessage(MessageType::ping);
  {
    std::string bad = wire;
    bad[0] = 'X';
    bio::Reader r{bad, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error));
    EXPECT_NE(error.find("magic"), std::string::npos);
  }
  // The version field: a future version, the retired version 1, and 0.
  for (const char version : {99, 1, 0}) {
    std::string bad = wire;
    bad[4] = version;
    bio::Reader r{bad, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error)) << int(version);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  {
    std::string truncated = wire.substr(0, 6);
    bio::Reader r{truncated, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error));
  }
}

TEST(ProtocolCodec, RejectsTrailingGarbage) {
  SourceItem item{"a", "b"};
  std::string wire = encodeAnalyzeRequest(item, 0);
  wire += "junk";
  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error));
  SourceItem decoded;
  std::uint8_t flags = 0;
  EXPECT_FALSE(decodeAnalyzeRequest(r, decoded, flags));
}

TEST(ProtocolCodec, OptionFlagsMatchRequestKeyInputs) {
  // The wire flags must cover exactly the options requestKey hashes:
  // packing then unpacking preserves every model-affecting toggle.
  core::MiraOptions options;
  options.compile.compiler.optimize = false;
  options.compile.compiler.vectorize = true;
  options.metrics.assumeBranchesTaken = false;
  core::MiraOptions round = unpackOptions(packOptions(options));
  EXPECT_EQ(round.compile.compiler.optimize, false);
  EXPECT_EQ(round.compile.compiler.vectorize, true);
  EXPECT_EQ(round.metrics.assumeBranchesTaken, false);
}

// ---------------------------------------------------------------- daemon

/// Starts an AnalysisServer on a fresh socket in a thread; tears it down
/// (via requestStop) on destruction if a test did not shut it down.
class DaemonFixture {
public:
  explicit DaemonFixture(ServerOptions options = {}) {
    static std::atomic<int> counter{0};
    socketPath_ = (std::filesystem::temp_directory_path() /
                   ("mira_server_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)) + ".sock"))
                      .string();
    options.socketPath = socketPath_;
    if (options.threads == 0)
      options.threads = 2;
    server_ = std::make_unique<AnalysisServer>(options);
    std::string error;
    started_ = server_->start(error);
    EXPECT_TRUE(started_) << error;
    if (started_)
      thread_ = std::thread([this] { server_->serve(); });
  }

  ~DaemonFixture() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }

  /// Join serve() without forcing a stop — for tests that shut the
  /// daemon down over the wire and assert it actually exits.
  void join() { thread_.join(); }

  AnalysisServer &server() { return *server_; }
  const std::string &socketPath() const { return socketPath_; }
  bool started() const { return started_; }

private:
  std::string socketPath_;
  std::unique_ptr<AnalysisServer> server_;
  std::thread thread_;
  bool started_ = false;
};

TEST(AnalysisServerTest, ColdAndWarmPayloadsAreByteIdenticalToOneShot) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // One-shot reference: what `mira-cli analyze` computes and what the
  // schema-v2 disk cache would store for this (source, options, name).
  const std::string name = "@fig5";
  const std::string &source = workloads::fig5Source();
  core::MiraOptions options;
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.options = options;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactCoverage;
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok) << direct.diagnostics;
  ASSERT_TRUE(direct.coverage.has_value());
  const std::string expected = driver::serializeArtifactPayload(
      direct.model.get(), &*direct.coverage, direct.diagnostics, name);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  ClientOutcome cold;
  ASSERT_TRUE(client.analyze(name, source, options, cold))
      << client.lastError();
  EXPECT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_EQ(cold.payload, expected) << "cold daemon payload diverges from "
                                       "one-shot analysis";

  ClientOutcome warm;
  ASSERT_TRUE(client.analyze(name, source, options, warm))
      << client.lastError();
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.payload, expected) << "warm daemon payload diverges from "
                                       "one-shot analysis";

  // Zero recomputation on the warm repeat, per the server's own
  // counters: exactly one pipeline run for two requests.
  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.sourcesAnalyzed, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.memoryEntries, 1u);
}

TEST(AnalysisServerTest, BatchKeepsInputOrderAndSharesCache) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  std::vector<SourceItem> items{
      {"first", workloads::dgemmSource()},
      {"second", "int broken("},
      {"third", workloads::fig5Source()},
      {"fourth", workloads::dgemmSource()}, // duplicate source of "first"
  };
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(client.analyzeBatch(items, core::MiraOptions(), outcomes))
      << client.lastError();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[1].diagnostics.empty());
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_TRUE(outcomes[3].ok);
  EXPECT_TRUE(outcomes[3].cacheHit); // same source as "first"
  // Payload names echo the producing request (docs/CACHING.md).
  EXPECT_EQ(outcomes[0].name, "first");

  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.batchRequests, 1u);
  EXPECT_EQ(stats.sourcesAnalyzed, 4u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.failures, 1u);
}

TEST(AnalysisServerTest, MalformedFrameGetsErrorReplyAndServerSurvives) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  {
    // A well-framed message that is not a protocol message at all.
    std::string error;
    net::Socket raw = net::connectUnix(daemon.socketPath(), error);
    ASSERT_TRUE(raw.valid()) << error;
    ASSERT_TRUE(net::writeFrame(raw.fd(), "this is not a protocol message"));
    std::string reply;
    ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::ok);
    bio::Reader r{reply, 0};
    MessageType type{};
    std::string headerError;
    ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
    EXPECT_EQ(type, MessageType::error);
    std::string message;
    ASSERT_TRUE(decodeErrorReply(r, message));
    EXPECT_NE(message.find("magic"), std::string::npos) << message;
    // The daemon closes the connection after an error.
    EXPECT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::closed);
  }
  {
    // A truncated frame: the header promises more bytes than arrive.
    std::string error;
    net::Socket raw = net::connectUnix(daemon.socketPath(), error);
    ASSERT_TRUE(raw.valid()) << error;
    const char partial[] = {100, 0, 0, 0, 'x', 'y'}; // 100-byte promise
    ASSERT_EQ(::send(raw.fd(), partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    raw.close();
  }

  // After both abuses the daemon still answers normal requests. The
  // truncated connection is handled asynchronously, so poll briefly for
  // its error count instead of racing the handler.
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
  ServerStats stats;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
    if (stats.protocolErrors >= 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(stats.protocolErrors, 2u);
}

TEST(AnalysisServerTest, OversizedFrameIsRejectedWithoutReadingBody) {
  ServerOptions options;
  options.maxFrameBytes = 1024; // tiny cap to keep the test cheap
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  // Declare 16 MiB; send only the header. The daemon must answer from
  // the declaration alone.
  const unsigned char header[] = {0, 0, 0, 1};
  ASSERT_EQ(::send(raw.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::error);
  std::string message;
  ASSERT_TRUE(decodeErrorReply(r, message));
  EXPECT_NE(message.find("exceeds"), std::string::npos) << message;

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(AnalysisServerTest, ConcurrentClientsAllGetCorrectReplies) {
  ServerOptions options;
  options.threads = 4;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(daemon.socketPath())) {
        ++failures;
        return;
      }
      const std::string &source =
          c % 2 == 0 ? workloads::fig5Source() : workloads::dgemmSource();
      for (int i = 0; i < kRequestsEach; ++i) {
        ClientOutcome outcome;
        if (!client.analyze("client" + std::to_string(c % 2), source,
                            core::MiraOptions(), outcome) ||
            !outcome.ok)
          ++failures;
      }
    });
  }
  for (auto &thread : threads)
    thread.join();
  EXPECT_EQ(failures.load(), 0);

  // 12 requests over 2 distinct (source, options) pairs: exactly 2
  // pipeline runs, everything else served from the shared cache.
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.sourcesAnalyzed,
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cacheHits,
            static_cast<std::uint64_t>(kClients * kRequestsEach - 2));
}

TEST(AnalysisServerTest, ShutdownDrainsInFlightWorkAndRemovesSocket) {
  ServerOptions options;
  options.threads = 3;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  const std::string socketPath = daemon.socketPath();

  // An idle connection: its server-side reader is blocked in recv and
  // must be woken (EOF) by the shutdown, not waited on forever.
  std::string error;
  net::Socket idle = net::connectUnix(socketPath, error);
  ASSERT_TRUE(idle.valid()) << error;

  // A client with real work in flight around the shutdown.
  Client worker;
  ASSERT_TRUE(worker.connect(socketPath)) << worker.lastError();
  ClientOutcome outcome;
  ASSERT_TRUE(worker.analyze("@stream", workloads::streamSource(),
                             core::MiraOptions(), outcome))
      << worker.lastError();
  EXPECT_TRUE(outcome.ok);

  Client stopper;
  ASSERT_TRUE(stopper.connect(socketPath)) << stopper.lastError();
  ASSERT_TRUE(stopper.shutdownServer()) << stopper.lastError();

  // serve() must return on its own (the fixture would otherwise hang
  // here — a deadlocked drain fails the test by timeout).
  daemon.join();

  // The socket file is gone and new connections are refused.
  EXPECT_FALSE(std::filesystem::exists(socketPath));
  Client late;
  EXPECT_FALSE(late.connect(socketPath));

  // The idle connection saw EOF rather than hanging.
  std::string leftover;
  EXPECT_NE(net::readFrame(idle.fd(), leftover, kMaxFrameBytes),
            net::FrameStatus::ok);
}

TEST(AnalysisServerTest, DiskCacheServesAcrossDaemonRestarts) {
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_server_test_disk")
          .string();
  std::filesystem::remove_all(cacheDir);

  ServerOptions options;
  options.cacheDir = cacheDir;
  std::string coldPayload;
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    ClientOutcome outcome;
    ASSERT_TRUE(client.analyze("@minife", workloads::minifeSource(),
                               core::MiraOptions(), outcome))
        << client.lastError();
    EXPECT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.cacheHit);
    coldPayload = outcome.payload;
  }
  {
    // A fresh daemon (fresh memory cache) must hit the disk level.
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    ClientOutcome outcome;
    ASSERT_TRUE(client.analyze("@minife", workloads::minifeSource(),
                               core::MiraOptions(), outcome))
        << client.lastError();
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.cacheHit);
    EXPECT_EQ(outcome.payload, coldPayload);

    ServerStats stats;
    ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
    EXPECT_EQ(stats.computed, 0u);
    EXPECT_EQ(stats.diskHits, 1u);
  }
  std::filesystem::remove_all(cacheDir);
}

TEST(AnalysisServerTest, RefusesToClobberANonSocketPath) {
  // Stale-socket reclaim must never extend to regular files: a typo'd
  // --socket pointing at user data fails loudly and leaves it intact.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mira_server_test_notasock")
          .string();
  {
    std::ofstream out(path);
    out << "precious bytes";
  }
  std::string error;
  net::Socket listener = net::listenUnix(path, error);
  EXPECT_FALSE(listener.valid());
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ifstream in(path);
    std::string contents;
    std::getline(in, contents);
    EXPECT_EQ(contents, "precious bytes");
  }
  std::filesystem::remove(path);
}

TEST(AnalysisServerTest, OverCapReplyDegradesToError) {
  // A reply the daemon cannot legally frame (tiny cap, real payload)
  // must come back as Error, not as an oversized frame the client
  // rejects mid-stream.
  ServerOptions options;
  options.maxFrameBytes = 64; // the request fits; the analyze reply
                              // (outcome payload + model) cannot
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  SourceItem item{"f", "int f() { return 1; }"};
  ASSERT_TRUE(net::writeFrame(raw.fd(), encodeAnalyzeRequest(item, 0x7)));
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::error);
  std::string message;
  ASSERT_TRUE(decodeErrorReply(r, message));
  EXPECT_NE(message.find("frame cap"), std::string::npos) << message;
}

TEST(AnalysisServerTest, CoverageRoundTripMatchesOneShotCounters) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // One-shot reference coverage for the same (source, options).
  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = core::kArtifactCoverage;
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  CoverageReply cold;
  ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), cold))
      << client.lastError();
  EXPECT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_FALSE(cold.recompiled);
  EXPECT_EQ(cold.coverage.loops, direct.coverage->loops);
  EXPECT_EQ(cold.coverage.statements, direct.coverage->statements);
  EXPECT_EQ(cold.coverage.inLoopStatements,
            direct.coverage->inLoopStatements);

  // Warm: served from the daemon's cached summary — a hit, and still
  // no recompile because the memory entry holds the live program.
  CoverageReply warm;
  ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), warm))
      << client.lastError();
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_FALSE(warm.recompiled);
  EXPECT_EQ(warm.coverage.loops, cold.coverage.loops);

  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.coverageRequests, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.recompiles, 0u);
}

TEST(AnalysisServerTest, SimulateRoundTripMatchesOneShotCounters) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = core::kArtifactSimulation;
  spec.simulation.function = "fig5_main";
  spec.simulation.args = {sim::Value::ofInt(64)};
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok);
  std::string reference;
  putSimResult(reference, *direct.simulation);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  SimulateReply reply;
  ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), spec.simulation, reply))
      << client.lastError();
  ASSERT_TRUE(reply.ok);
  ASSERT_TRUE(reply.result.ok) << reply.result.error;
  std::string served;
  putSimResult(served, reply.result);
  EXPECT_EQ(served, reference) << "daemon-served simulation counters "
                                  "diverge from a one-shot run";

  // Different arguments re-simulate on the same cached analysis.
  core::SimulationArgs smaller = spec.simulation;
  smaller.args = {sim::Value::ofInt(8)};
  SimulateReply small;
  ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), smaller, small))
      << client.lastError();
  ASSERT_TRUE(small.ok);
  EXPECT_TRUE(small.cacheHit);
  EXPECT_LT(small.result.total.totalInstructions,
            reply.result.total.totalInstructions);

  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.simulateRequests, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.recompiles, 0u); // live program in the memory cache
}

TEST(AnalysisServerTest, WarmDiskSimulateRecompilesWithoutRecomputing) {
  // The acceptance headline: against a warm daemon whose memory cache
  // is cold but whose disk cache is hot, coverage and simulation are
  // served without a full re-analysis — coverage from the stored
  // summary, simulation through one recompile-on-demand.
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_server_test_artifact")
          .string();
  std::filesystem::remove_all(cacheDir);
  ServerOptions options;
  options.cacheDir = cacheDir;

  core::SimulationArgs simArgs;
  simArgs.function = "fig5_main";
  simArgs.args = {sim::Value::ofInt(64)};

  std::string coldSim;
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    SimulateReply reply;
    ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), simArgs, reply))
        << client.lastError();
    ASSERT_TRUE(reply.ok);
    EXPECT_FALSE(reply.cacheHit);
    putSimResult(coldSim, reply.result);
  }
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

    CoverageReply coverage;
    ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), coverage))
        << client.lastError();
    EXPECT_TRUE(coverage.ok);
    EXPECT_TRUE(coverage.cacheHit);
    EXPECT_FALSE(coverage.recompiled) << "summary should come from the "
                                         "schema-v2 entry, not a recompile";

    SimulateReply reply;
    ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), simArgs, reply))
        << client.lastError();
    ASSERT_TRUE(reply.ok);
    EXPECT_TRUE(reply.cacheHit);
    EXPECT_TRUE(reply.recompiled);
    std::string warmSim;
    putSimResult(warmSim, reply.result);
    EXPECT_EQ(warmSim, coldSim);

    ServerStats stats;
    ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
    EXPECT_EQ(stats.computed, 0u) << "warm daemon must not re-run the "
                                     "full pipeline";
    EXPECT_EQ(stats.recompiles, 1u);
    EXPECT_EQ(stats.diskHits, 1u);
  }
  std::filesystem::remove_all(cacheDir);
}

TEST(AnalysisServerTest, V1FrameGetsErrorAndCloseThenV2ClientIsServed) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // A well-formed analyze frame stamped with the retired version 1.
  std::string frame =
      encodeAnalyzeRequest({"@fig5", workloads::fig5Source()}, 0x3);
  frame[4] = 1; // version field, bytes [4, 8)
  {
    std::string error;
    net::Socket raw = net::connectUnix(daemon.socketPath(), error);
    ASSERT_TRUE(raw.valid()) << error;
    ASSERT_TRUE(net::writeFrame(raw.fd(), frame));
    std::string reply;
    ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::ok);
    bio::Reader r{reply, 0};
    MessageType type{};
    std::string headerError;
    ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
    EXPECT_EQ(type, MessageType::error);
    std::string message;
    ASSERT_TRUE(decodeErrorReply(r, message));
    EXPECT_NE(message.find("unsupported protocol version 1"),
              std::string::npos)
        << message;
    // Error-then-close: the daemon sends nothing more on this session.
    EXPECT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::closed);
  }

  // A fresh client is served normally: the refused frame computed
  // nothing, so its analyze is the daemon's first.
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
  ClientOutcome outcome;
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.cacheHit);
  EXPECT_TRUE(outcome.coverage.has_value());
  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  EXPECT_EQ(stats.sourcesAnalyzed, 1u);
  EXPECT_EQ(stats.protocolErrors, 1u);
}

TEST(ProtocolCodec, CoverageAndSimulateRepliesRoundTrip) {
  CoverageReply coverage;
  coverage.cacheHit = true;
  coverage.recompiled = true;
  coverage.micros = 77;
  coverage.ok = true;
  coverage.diagnostics = "warn\n";
  coverage.coverage.loops = 4;
  coverage.coverage.statements = 16;
  coverage.coverage.inLoopStatements = 8;
  std::string wire = encodeCoverageReply(coverage);
  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::coverageReply);
  CoverageReply decoded;
  ASSERT_TRUE(decodeCoverageReply(r, decoded));
  EXPECT_TRUE(decoded.cacheHit);
  EXPECT_TRUE(decoded.recompiled);
  EXPECT_EQ(decoded.coverage.loops, 4u);
  EXPECT_EQ(decoded.coverage.inLoopStatements, 8u);

  core::SimulationArgs sim;
  sim.function = "kernel";
  sim.args = {sim::Value::ofInt(7), sim::Value::ofDouble(2.5)};
  sim.options.fastForward = true;
  sim.options.maxInstructions = 123456789;
  std::string request = encodeSimulateRequest({"k.mc", "int k;"}, 0x3, sim);
  bio::Reader sr{request, 0};
  ASSERT_TRUE(readHeader(sr, type, error)) << error;
  EXPECT_EQ(type, MessageType::simulate);
  SourceItem item;
  std::uint8_t flags = 0;
  core::SimulationArgs decodedSim;
  ASSERT_TRUE(decodeSimulateRequest(sr, item, flags, decodedSim));
  EXPECT_EQ(item.name, "k.mc");
  EXPECT_EQ(flags, 0x3);
  EXPECT_EQ(decodedSim.function, "kernel");
  ASSERT_EQ(decodedSim.args.size(), 2u);
  EXPECT_EQ(decodedSim.args[0].i, 7);
  EXPECT_EQ(decodedSim.args[1].f, 2.5);
  EXPECT_TRUE(decodedSim.options.fastForward);
  EXPECT_EQ(decodedSim.options.maxInstructions, 123456789u);
}

// --------------------------------------------- pipelining / backpressure

/// Small distinct kernels so every pipelined reply is distinguishable
/// by payload bytes, making reordering impossible to miss.
std::vector<SourceItem> distinctKernels(std::size_t count) {
  std::vector<SourceItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string k = std::to_string(i);
    items.push_back({"pipe" + k + ".mc",
                     "double f" + k + "(double x) {\n"
                     "  double s = 0.0;\n"
                     "  for (int i = 0; i < " + std::to_string(3 + i) +
                         "; i++) {\n"
                     "    s = s + x * " + k + ".0;\n"
                     "  }\n"
                     "  return s;\n"
                     "}"});
  }
  return items;
}

TEST(AnalysisServerTest, PipelinedRepliesArriveInOrderByteIdenticalToOneShots) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  const std::vector<SourceItem> items = distinctKernels(6);

  // Reference: the same items as sequential one-shot requests.
  std::vector<std::string> reference;
  {
    Client sequential;
    ASSERT_TRUE(sequential.connect(daemon.socketPath()))
        << sequential.lastError();
    for (const SourceItem &item : items) {
      ClientOutcome outcome;
      ASSERT_TRUE(sequential.analyze(item.name, item.source,
                                     core::MiraOptions(), outcome))
          << sequential.lastError();
      EXPECT_TRUE(outcome.ok) << outcome.diagnostics;
      reference.push_back(outcome.payload);
    }
  }

  // All six requests in flight on one connection; replies must come
  // back in request order with byte-identical payloads.
  Client pipelined;
  ASSERT_TRUE(pipelined.connect(daemon.socketPath()))
      << pipelined.lastError();
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(pipelined.analyzePipelined(items, core::MiraOptions(), outcomes))
      << pipelined.lastError();
  ASSERT_EQ(outcomes.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].diagnostics;
    EXPECT_EQ(outcomes[i].name, items[i].name) << "reply order broke at " << i;
    EXPECT_EQ(outcomes[i].payload, reference[i]) << "payload differs at " << i;
  }
  // The connection survived the whole exchange (Busy never closes, and
  // nothing here should have errored).
  EXPECT_TRUE(pipelined.ping()) << pipelined.lastError();
}

TEST(AnalysisServerTest, LargePipelinedRoundFinishesByteIdenticalToOneShots) {
  // A round that wrote every request before reading any reply stalled
  // once the unread replies filled the socket buffers: a daemon worker
  // blocked writing while holding the session lock the reader needs, so
  // the client's next write never finished. The call runs in a child
  // process, so such a stall fails this test at the deadline instead of
  // hanging it.
  ServerOptions options;
  options.threads = 4;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  std::vector<SourceItem> items;
  for (int i = 0; i < 1000; ++i)
    items.push_back(
        {"stream" + std::to_string(i) + ".mc", workloads::streamSource()});

  // Reference and warm-up: the same items as sequential one-shots.
  std::vector<std::string> reference;
  {
    Client sequential;
    ASSERT_TRUE(sequential.connect(daemon.socketPath()))
        << sequential.lastError();
    for (const SourceItem &item : items) {
      ClientOutcome outcome;
      ASSERT_TRUE(sequential.analyze(item.name, item.source,
                                     core::MiraOptions(), outcome))
          << sequential.lastError();
      ASSERT_TRUE(outcome.ok) << outcome.diagnostics;
      reference.push_back(std::move(outcome.payload));
    }
  }

  // The child exits 0 when every payload matches, 1 when the call
  // fails and 2 when a payload differs.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Client pipelined;
    std::vector<ClientOutcome> outcomes;
    if (!pipelined.connect(daemon.socketPath()) ||
        !pipelined.analyzePipelined(items, core::MiraOptions(), outcomes) ||
        outcomes.size() != items.size())
      ::_exit(1);
    for (std::size_t i = 0; i < items.size(); ++i)
      if (!outcomes[i].ok || outcomes[i].payload != reference[i])
        ::_exit(2);
    ::_exit(0);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (done == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
    FAIL() << "a pipelined round of " << items.size()
           << " items did not finish within 30 s";
  }
  ASSERT_EQ(done, child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1 = the pipelined call failed, 2 = a payload differed";
}

TEST(AnalysisServerTest, BusyRefusalsAreRetriedUntilAllSucceed) {
  ServerOptions options;
  options.threads = 2;
  options.maxInflight = 1;    // one request at a time: the rest get Busy
  options.busyRetryMillis = 5; // keep the retry rounds fast
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  // Four real workloads under a capacity of one: the frames all land
  // before the first finishes computing, so later ones are refused with
  // Busy, and the client's retry rounds must eventually land them all.
  std::vector<SourceItem> items;
  for (int i = 0; i < 4; ++i)
    items.push_back({"busy" + std::to_string(i) + ".mc",
                     workloads::streamSource()});
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(client.analyzePipelined(items, core::MiraOptions(), outcomes))
      << client.lastError();
  ASSERT_EQ(outcomes.size(), items.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].diagnostics;
    EXPECT_EQ(outcomes[i].name, items[i].name);
  }

  // The daemon must actually have refused work (not just queued it):
  // the busy-rejection counter is the proof the backpressure engaged.
  std::vector<MetricSample> samples;
  ASSERT_TRUE(client.metrics(samples)) << client.lastError();
  std::uint64_t busyRejections = 0;
  for (const MetricSample &sample : samples)
    if (sample.name == "server_busy_rejections_total")
      busyRejections = sample.value;
  EXPECT_GE(busyRejections, 1u);
}

TEST(AnalysisServerTest, GracefulDrainAnswersInFlightRequestThenExits) {
  ServerOptions options;
  options.drainTimeoutMillis = 10000; // generous: the drain must finish
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  // A raw connection with an analyze request in flight when the stop
  // lands. Raw so the reply can be read after requestStop without the
  // Client's reconnect logic getting in the way.
  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  ASSERT_TRUE(net::writeFrame(
      raw.fd(),
      encodeAnalyzeRequest({"@drain", workloads::streamSource()}, 0)));

  // Wait until the daemon has actually dispatched the request —
  // stopping earlier would race the reader and test nothing.
  Client poll;
  ASSERT_TRUE(poll.connect(daemon.socketPath())) << poll.lastError();
  bool dispatched = false;
  for (int attempt = 0; attempt < 200 && !dispatched; ++attempt) {
    std::vector<MetricSample> samples;
    ASSERT_TRUE(poll.metrics(samples)) << poll.lastError();
    for (const MetricSample &sample : samples)
      if (sample.name == "server_analyze_requests_total" && sample.value >= 1)
        dispatched = true;
    if (!dispatched)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(dispatched);
  poll.disconnect();

  daemon.server().requestStop();

  // The in-flight request is answered before the connection closes.
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::analyzeReply);
  AnalyzeReply decoded;
  ASSERT_TRUE(decodeAnalyzeReply(r, decoded));
  EXPECT_FALSE(decoded.payload.empty());

  // ... then EOF, serve() returns, and the socket file is gone.
  EXPECT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::closed);
  daemon.join();
  EXPECT_FALSE(std::filesystem::exists(daemon.socketPath()));
}

TEST(AnalysisServerTest, MetricsAndCacheStatsRenderTheSameRegistry) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  // One computed item and one memory hit to make the counters move.
  ClientOutcome outcome;
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();

  ServerStats stats;
  ASSERT_TRUE(client.cacheStats(stats)) << client.lastError();
  std::vector<MetricSample> samples;
  ASSERT_TRUE(client.metrics(samples)) << client.lastError();

  auto sampleValue = [&](const std::string &name) -> std::uint64_t {
    for (const MetricSample &sample : samples)
      if (sample.name == name)
        return sample.value;
    ADD_FAILURE() << "metrics reply is missing " << name;
    return ~0ull;
  };
  // Both views are rendered from the one MetricsRegistry, so the
  // numbers must agree (no request ran between the two reads that
  // would bump these counters).
  EXPECT_EQ(sampleValue("server_cache_hits_total"), stats.cacheHits);
  EXPECT_EQ(sampleValue("server_computed_total"), stats.computed);
  EXPECT_EQ(sampleValue("server_analyze_requests_total"),
            stats.analyzeRequests);
  EXPECT_EQ(sampleValue("server_connections_accepted_total"),
            stats.connectionsAccepted);
  // The sorted-name contract the text renderer relies on.
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].name, samples[i].name);
}

// ----------------------------------------------- manifest batch (v2)

TEST(ProtocolCodec, ManifestBatchMessagesRoundTrip) {
  ManifestBatchRequest request;
  request.flags = 0x5;
  request.progress = true;
  request.shardIndex = 2;
  request.shardCount = 4;
  request.root = "/corpora/nightly";
  request.manifestBytes = std::string("MirM\x01raw manifest\x00bytes", 21);
  request.sinceBytes = "older manifest";
  std::string wire = encodeManifestBatchRequest(request);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::manifestBatch);
  ManifestBatchRequest decoded;
  ASSERT_TRUE(decodeManifestBatchRequest(r, decoded));
  EXPECT_EQ(decoded.flags, 0x5);
  EXPECT_TRUE(decoded.progress);
  EXPECT_EQ(decoded.shardIndex, 2u);
  EXPECT_EQ(decoded.shardCount, 4u);
  EXPECT_EQ(decoded.root, request.root);
  EXPECT_EQ(decoded.manifestBytes, request.manifestBytes);
  EXPECT_EQ(decoded.sinceBytes, request.sinceBytes);

  BatchProgress progress;
  progress.done = 7;
  progress.total = 32;
  progress.failures = 1;
  progress.cacheHits = 4;
  std::string progressWire = encodeBatchProgress(progress);
  bio::Reader pr{progressWire, 0};
  ASSERT_TRUE(readHeader(pr, type, error)) << error;
  EXPECT_EQ(type, MessageType::batchProgress);
  BatchProgress decodedProgress;
  ASSERT_TRUE(decodeBatchProgress(pr, decodedProgress));
  EXPECT_EQ(decodedProgress.done, 7u);
  EXPECT_EQ(decodedProgress.total, 32u);
  EXPECT_EQ(decodedProgress.failures, 1u);
  EXPECT_EQ(decodedProgress.cacheHits, 4u);

  ManifestBatchReply reply;
  reply.reportBytes = std::string("MirR\x01report\x00bytes", 16);
  std::string replyWire = encodeManifestBatchReply(reply);
  bio::Reader rr{replyWire, 0};
  ASSERT_TRUE(readHeader(rr, type, error)) << error;
  EXPECT_EQ(type, MessageType::manifestBatchReply);
  ManifestBatchReply decodedReply;
  ASSERT_TRUE(decodeManifestBatchReply(rr, decodedReply));
  EXPECT_EQ(decodedReply.reportBytes, reply.reportBytes);
}

TEST(ProtocolCodec, ManifestBatchDecoderRejectsBadScalarFields) {
  ManifestBatchRequest good;
  good.manifestBytes = "m";
  const std::string wire = encodeManifestBatchRequest(good);
  const std::size_t headerSize = [] {
    std::string h;
    beginMessage(h, MessageType::manifestBatch);
    return h.size();
  }();

  auto decodeBody = [&](std::string bytes) {
    bio::Reader r{bytes, 0};
    MessageType type{};
    std::string error;
    EXPECT_TRUE(readHeader(r, type, error)) << error;
    ManifestBatchRequest decoded;
    return decodeManifestBatchRequest(r, decoded);
  };

  EXPECT_TRUE(decodeBody(wire));
  {
    std::string bad = wire;
    bad[headerSize + 1] = 2; // progress flag: only 0/1 are legal
    EXPECT_FALSE(decodeBody(bad));
  }
  {
    ManifestBatchRequest shard;
    shard.manifestBytes = "m";
    shard.shardIndex = 3;
    shard.shardCount = 3; // index must be < count
    EXPECT_FALSE(decodeBody(encodeManifestBatchRequest(shard)));
  }
  {
    ManifestBatchRequest zero;
    zero.manifestBytes = "m";
    zero.shardCount = 0; // at least one shard
    EXPECT_FALSE(decodeBody(encodeManifestBatchRequest(zero)));
  }
  EXPECT_FALSE(decodeBody(wire + "junk")); // trailing garbage
}

/// A corpus on disk plus its serialized manifest, for manifest-batch
/// round trips against an in-process daemon.
struct CorpusFixture {
  std::filesystem::path root;
  std::string manifestBytes;
  std::size_t count;

  explicit CorpusFixture(std::size_t sources) : count(sources) {
    static std::atomic<int> counter{0};
    root = std::filesystem::temp_directory_path() /
           ("mira_server_test_corpus_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (std::size_t i = 0; i < sources; ++i) {
      const std::string k = std::to_string(i);
      std::ofstream out(root / ("entry_" + k + ".mc"));
      out << "int entry_" + k + "(int n) {\n"
             "  int s = " + k + ";\n"
             "  for (int i = 0; i < n; i++) {\n"
             "    s = s + i * " + std::to_string(i + 2) + ";\n"
             "  }\n"
             "  return s;\n"
             "}\n";
    }
    corpus::Manifest manifest;
    std::string error;
    EXPECT_TRUE(corpus::buildManifest(root.string(), manifest, error))
        << error;
    manifestBytes = corpus::serializeManifest(manifest);
  }

  ~CorpusFixture() { std::filesystem::remove_all(root); }
};

TEST(AnalysisServerTest, ManifestBatchStreamsProgressAndServesWarmReruns) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  CorpusFixture corpus(3);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  // Cold run with progress streaming: frames are cumulative and the
  // last one accounts for the whole selection.
  std::vector<BatchProgress> frames;
  std::string reportBytes;
  ASSERT_TRUE(client.manifestBatch(
      corpus.manifestBytes, /*sinceBytes=*/"", /*root=*/"",
      driver::ShardSpec{}, core::MiraOptions(),
      [&](const BatchProgress &frame) { frames.push_back(frame); },
      reportBytes))
      << client.lastError();
  ASSERT_FALSE(frames.empty());
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].done, frames[i - 1].done);
    EXPECT_EQ(frames[i].total, frames[0].total);
  }
  EXPECT_EQ(frames.back().done, corpus.count);
  EXPECT_EQ(frames.back().total, corpus.count);

  driver::BatchReport report;
  std::string error;
  ASSERT_TRUE(driver::deserializeBatchReport(reportBytes, report, error))
      << error;
  ASSERT_EQ(report.entries.size(), corpus.count);
  EXPECT_EQ(report.entries[0].name, "entry_0.mc"); // manifest path order
  for (const auto &entry : report.entries)
    EXPECT_TRUE(entry.ok) << entry.name;
  EXPECT_EQ(report.stats.requests, corpus.count);
  EXPECT_EQ(report.stats.cacheHits, 0u);

  // Warm rerun on the same daemon, no progress requested: every entry
  // comes from the memory cache and no frame is streamed.
  std::string warmBytes;
  ASSERT_TRUE(client.manifestBatch(corpus.manifestBytes, "", "",
                                   driver::ShardSpec{}, core::MiraOptions(),
                                   /*onProgress=*/nullptr, warmBytes))
      << client.lastError();
  driver::BatchReport warm;
  ASSERT_TRUE(driver::deserializeBatchReport(warmBytes, warm, error)) << error;
  EXPECT_EQ(warm.stats.cacheHits, corpus.count);
  EXPECT_EQ(warm.stats.requests, corpus.count);
  for (std::size_t i = 0; i < warm.entries.size(); ++i)
    EXPECT_EQ(warm.entries[i].key, report.entries[i].key);

  // An unchanged --since baseline selects nothing: empty report, and
  // the connection stays usable afterwards.
  std::string emptyBytes;
  ASSERT_TRUE(client.manifestBatch(corpus.manifestBytes,
                                   /*sinceBytes=*/corpus.manifestBytes, "",
                                   driver::ShardSpec{}, core::MiraOptions(),
                                   nullptr, emptyBytes))
      << client.lastError();
  driver::BatchReport empty;
  ASSERT_TRUE(driver::deserializeBatchReport(emptyBytes, empty, error))
      << error;
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(AnalysisServerTest, ManifestBatchRejectsMalformedManifestBlob) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  std::string reportBytes;
  EXPECT_FALSE(client.manifestBatch("definitely not a manifest", "", "",
                                    driver::ShardSpec{}, core::MiraOptions(),
                                    nullptr, reportBytes));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::daemon);
  EXPECT_NE(client.lastError().find("malformed manifest"), std::string::npos)
      << client.lastError();

  // Error replies close the connection; the daemon itself stays up.
  Client fresh;
  ASSERT_TRUE(fresh.connect(daemon.socketPath())) << fresh.lastError();
  EXPECT_TRUE(fresh.ping()) << fresh.lastError();
}

// ------------------------------------------- CLI client exit contract

/// Fork/exec the real mira-cli and return its exit code; stdout+stderr
/// (stdout only with `stdoutOnly`) land in `log`. The binary path is
/// compiled in by CMake.
int runClientCli(const std::vector<std::string> &args,
                 const std::filesystem::path &log, bool stdoutOnly = false) {
  std::string command = MIRA_CLI_PATH;
  for (const std::string &arg : args)
    command += " '" + arg + "'";
  command += " > '" + log.string() + (stdoutOnly ? "' 2>/dev/null" : "' 2>&1");
  const int status = std::system(command.c_str());
  return status == -1 ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
}

std::string slurp(const std::filesystem::path &path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ClientCliExitContract, ConnectFailureIsExitThreeWithUnifiedDiagnostic) {
  // No daemon at the socket: the unified "mira-cli client:" diagnostic
  // on stderr and exit 3 ("no daemon there"), distinct from transport
  // failures so scripts can tell "start one" from "it died".
  const auto dir = std::filesystem::temp_directory_path();
  const auto log = dir / ("mira_server_test_exit3_" +
                          std::to_string(::getpid()) + ".log");
  const auto socket = dir / "mira_server_test_no_such_daemon.sock";
  std::filesystem::remove(socket);
  EXPECT_EQ(runClientCli({"client", "ping", "--socket", socket.string()},
                         log),
            3);
  const std::string output = slurp(log);
  EXPECT_NE(output.find("mira-cli client: "), std::string::npos) << output;
  std::filesystem::remove(log);
}

TEST(ClientCliExitContract, MidStreamEofIsExitFourWithUnifiedDiagnostic) {
  // A "daemon" that accepts, reads the request, and hangs up without
  // replying: the connection died mid-conversation — exit 4, same
  // unified stderr prefix.
  const auto dir = std::filesystem::temp_directory_path();
  const auto socket = dir / ("mira_server_test_eof_" +
                             std::to_string(::getpid()) + ".sock");
  const auto log = dir / ("mira_server_test_exit4_" +
                          std::to_string(::getpid()) + ".log");
  std::filesystem::remove(socket);
  std::string error;
  net::Socket listener = net::listenUnix(socket.string(), error);
  ASSERT_TRUE(listener.valid()) << error;
  std::thread fake([&] {
    net::Socket peer = net::acceptConnection(listener);
    if (!peer.valid())
      return;
    std::string request;
    net::readFrame(peer.fd(), request, kMaxFrameBytes);
    peer.close(); // EOF instead of a reply
  });
  EXPECT_EQ(runClientCli({"client", "ping", "--socket", socket.string()},
                         log),
            4);
  fake.join();
  const std::string output = slurp(log);
  EXPECT_NE(output.find("mira-cli client: "), std::string::npos) << output;
  std::filesystem::remove(socket);
  std::filesystem::remove(log);
}

// ------------------------------------------- client reply policy

/// A scripted stand-in for the daemon: accepts one connection on a
/// fresh socket and answers the i-th request frame with the frames
/// `script(i)` returns, until the client hangs up. It pins the client's
/// reply policy (Busy backoff, progress frames, unexpected reply types,
/// the frame cap) without depending on a real daemon's timing.
class ScriptedPeer {
public:
  using Script = std::function<std::vector<std::string>(std::size_t)>;

  explicit ScriptedPeer(Script script) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("mira_server_test_peer_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1)) + ".sock"))
                .string();
    std::string error;
    listener_ = net::listenUnix(path_, error);
    EXPECT_TRUE(listener_.valid()) << error;
    thread_ = std::thread([this, script = std::move(script)] {
      net::Socket peer = net::acceptConnection(listener_);
      std::string request;
      while (peer.valid() &&
             net::readFrame(peer.fd(), request, kMaxFrameBytes) ==
                 net::FrameStatus::ok)
        for (const std::string &reply : script(frames_++))
          net::writeFrame(peer.fd(), reply);
    });
  }

  ScriptedPeer(const ScriptedPeer &) = delete;
  ScriptedPeer &operator=(const ScriptedPeer &) = delete;

  ~ScriptedPeer() {
    if (thread_.joinable()) {
      // Unblock an accept() no client ever reached.
      std::string error;
      net::connectUnix(path_, error);
      thread_.join();
    }
    std::filesystem::remove(path_);
  }

  const std::string &path() const { return path_; }

  /// Wait for the client to hang up; the number of request frames the
  /// peer read.
  std::size_t framesAfterHangUp() {
    thread_.join();
    return frames_;
  }

private:
  std::string path_;
  net::Socket listener_;
  std::size_t frames_ = 0; ///< written by the thread; read after join
  std::thread thread_;
};

std::vector<std::string> alwaysBusy(std::size_t) {
  return {encodeBusyReply(BusyReply{1})};
}

TEST(ClientReplyPolicy, AnalyzeGivesUpAfterTheConfiguredBusyRetries) {
  ScriptedPeer peer(alwaysBusy);
  Client client;
  client.setBusyRetries(2);
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  ClientOutcome outcome;
  EXPECT_FALSE(client.analyze("a.mc", "int f() { return 0; }",
                              core::MiraOptions{}, outcome));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::busy);
  EXPECT_EQ(client.lastError(), "daemon at capacity (gave up after 2 retries)");
  // Busy leaves the connection open; the first send plus two retries.
  EXPECT_TRUE(client.connected());
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 3u);
}

TEST(ClientReplyPolicy, PipelinedGivesUpAfterTheConfiguredBusyRetries) {
  ScriptedPeer peer(alwaysBusy);
  Client client;
  client.setBusyRetries(2);
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  std::vector<ClientOutcome> outcomes;
  EXPECT_FALSE(client.analyzePipelined({{"a.mc", "int f() { return 0; }"}},
                                       core::MiraOptions{}, outcomes));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::busy);
  EXPECT_EQ(client.lastError(), "daemon at capacity (gave up after 2 retries)");
  EXPECT_TRUE(outcomes.empty());
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 3u);
}

TEST(ClientReplyPolicy, ManifestBatchResendsAfterBusyAndStreamsProgress) {
  ScriptedPeer peer([](std::size_t frame) -> std::vector<std::string> {
    if (frame == 0)
      return {encodeBusyReply(BusyReply{1})};
    return {encodeBatchProgress(BatchProgress{1, 2, 0, 0}),
            encodeBatchProgress(BatchProgress{2, 2, 0, 1}),
            encodeManifestBatchReply(ManifestBatchReply{"report bytes"})};
  });
  Client client;
  client.setBusyRetries(2);
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  std::vector<BatchProgress> progress;
  std::string report;
  EXPECT_TRUE(client.manifestBatch(
      "manifest", "", "", driver::ShardSpec{}, core::MiraOptions{},
      [&](const BatchProgress &p) { progress.push_back(p); }, report))
      << client.lastError();
  EXPECT_EQ(report, "report bytes");
  ASSERT_EQ(progress.size(), 2u);
  EXPECT_EQ(progress[0].done, 1u);
  EXPECT_EQ(progress[1].done, 2u);
  EXPECT_EQ(progress[1].cacheHits, 1u);
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 2u);
}

TEST(ClientReplyPolicy, ProgressFrameOutsideAManifestBatchIsAProtocolError) {
  ScriptedPeer peer([](std::size_t) -> std::vector<std::string> {
    return {encodeBatchProgress(BatchProgress{1, 1, 0, 0})};
  });
  Client client;
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  ClientOutcome outcome;
  EXPECT_FALSE(client.analyze("a.mc", "int f() { return 0; }",
                              core::MiraOptions{}, outcome));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::protocol);
  EXPECT_EQ(client.lastError(), "unexpected reply type 112");
  EXPECT_FALSE(client.connected());
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 1u);
}

TEST(ClientReplyPolicy, OverCapRequestIsRefusedBeforeAnythingIsSent) {
  ScriptedPeer peer([](std::size_t) -> std::vector<std::string> {
    return {encodeEmptyMessage(MessageType::pong)};
  });
  Client client;
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  ClientOutcome outcome;
  EXPECT_FALSE(client.analyze("big.mc", std::string(kMaxFrameBytes, ' '),
                              core::MiraOptions{}, outcome));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::protocol);
  EXPECT_NE(client.lastError().find("frame cap; split the request"),
            std::string::npos)
      << client.lastError();
  // Nothing reached the wire, so the session is still usable.
  EXPECT_TRUE(client.connected());
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 0u);
}

// A pipelined round that fails after writing frames leaves replies owed
// on the wire; reusing the session would read them as answers to later
// requests, so the client must close it.
TEST(ClientReplyPolicy, PipelinedOverCapItemMidRoundEndsTheSession) {
  ScriptedPeer peer([](std::size_t) -> std::vector<std::string> {
    return {encodeAnalyzeReply(AnalyzeReply{})};
  });
  Client client;
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  std::vector<ClientOutcome> outcomes;
  EXPECT_FALSE(client.analyzePipelined(
      {{"a.mc", "int f() { return 0; }"},
       {"big.mc", std::string(kMaxFrameBytes, ' ')}},
      core::MiraOptions{}, outcomes));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::protocol);
  EXPECT_NE(client.lastError().find("frame cap; split the request"),
            std::string::npos)
      << client.lastError();
  EXPECT_FALSE(client.connected());
  client.disconnect(); // keeps a regression from hanging the join below
  EXPECT_EQ(peer.framesAfterHangUp(), 1u);
}

TEST(ClientReplyPolicy, PipelinedMalformedPayloadEndsTheSession) {
  ScriptedPeer peer([](std::size_t) -> std::vector<std::string> {
    AnalyzeReply reply;
    reply.payload = "not a payload";
    return {encodeAnalyzeReply(reply)};
  });
  Client client;
  ASSERT_TRUE(client.connect(peer.path())) << client.lastError();
  std::vector<ClientOutcome> outcomes;
  EXPECT_FALSE(client.analyzePipelined({{"a.mc", "int f() { return 0; }"},
                                        {"b.mc", "int g() { return 1; }"}},
                                       core::MiraOptions{}, outcomes));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::protocol);
  EXPECT_EQ(client.lastError(), "malformed result payload in reply");
  EXPECT_FALSE(client.connected());
  client.disconnect();
  EXPECT_EQ(peer.framesAfterHangUp(), 2u);
}

// ------------------------------------------ local == daemon CLI parity

/// Stdout of `mira-cli X args...` and of `mira-cli client X args...
/// --socket PATH`: one command function serves both spellings, so
/// everything but the provenance line and the totals must agree.
struct ParityRun {
  std::string local, remote;
};

ParityRun runBothSpellings(const std::vector<std::string> &args,
                           const std::string &socketPath) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const auto localLog = dir / ("mira_server_test_parity_local_" + tag);
  const auto remoteLog = dir / ("mira_server_test_parity_remote_" + tag);
  std::vector<std::string> client = {"client"};
  client.insert(client.end(), args.begin(), args.end());
  client.insert(client.end(), {"--socket", socketPath});
  EXPECT_EQ(runClientCli(args, localLog, true), 0) << slurp(localLog);
  EXPECT_EQ(runClientCli(client, remoteLog, true), 0) << slurp(remoteLog);
  ParityRun run{slurp(localLog), slurp(remoteLog)};
  std::filesystem::remove(localLog);
  std::filesystem::remove(remoteLog);
  return run;
}

/// Everything after the first line (the per-backend provenance line).
std::string afterFirstLine(const std::string &text) {
  const std::size_t eol = text.find('\n');
  return eol == std::string::npos ? std::string() : text.substr(eol + 1);
}

TEST(CliParity, SimulateCounterBlocksAreIdentical) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  const ParityRun run = runBothSpellings(
      {"simulate", "@fig5", "--function", "fig5_main", "--sim-arg", "64"},
      daemon.socketPath());
  EXPECT_EQ(run.local.rfind("simulated @fig5:fig5_main in ", 0), 0u)
      << run.local;
  EXPECT_EQ(run.remote.rfind("simulated @fig5:fig5_main via daemon in ", 0),
            0u)
      << run.remote;
  EXPECT_NE(run.local.find("total instructions  : "), std::string::npos);
  EXPECT_EQ(afterFirstLine(run.local), afterFirstLine(run.remote));
}

TEST(CliParity, CoverageTableIBlocksAreIdentical) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  const ParityRun run = runBothSpellings({"coverage"}, daemon.socketPath());
  // The Table I block runs up to the first blank line; the status table
  // and the backend's totals follow it.
  const auto tableI = [](const std::string &text) {
    return text.substr(0, text.find("\n\n"));
  };
  EXPECT_EQ(tableI(run.local).rfind("app ", 0), 0u) << run.local;
  EXPECT_NE(tableI(run.local).find("mg3d"), std::string::npos) << run.local;
  EXPECT_EQ(tableI(run.local), tableI(run.remote));
  EXPECT_NE(run.remote.find("15 sources via daemon at "), std::string::npos)
      << run.remote;
}

TEST(CliParity, AnalyzeModelSummariesAreIdentical) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  const ParityRun run = runBothSpellings({"analyze", "@fig5"},
                                         daemon.socketPath());
  EXPECT_EQ(run.local.rfind("analyzed @fig5 in ", 0), 0u) << run.local;
  EXPECT_NE(run.local.find(" s (computed)\n"), std::string::npos);
  EXPECT_EQ(run.remote.rfind("analyzed @fig5 via daemon in ", 0), 0u)
      << run.remote;
  EXPECT_NE(afterFirstLine(run.local).find("function "), std::string::npos);
  EXPECT_EQ(afterFirstLine(run.local), afterFirstLine(run.remote));
}

TEST(CliParity, ClientCoverageAndSimulateShareTheConnectionContract) {
  // Every remote run connects through the one client path: the
  // shared-secret handshake works, and with no daemon there both exit
  // 3 with the unified diagnostic.
  ServerOptions options;
  options.secret = "parity-secret";
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  const auto dir = std::filesystem::temp_directory_path();
  const auto log = dir / ("mira_server_test_parity_secret_" +
                          std::to_string(::getpid()) + ".log");
  const auto missing = dir / ("mira_server_test_parity_none_" +
                              std::to_string(::getpid()) + ".sock");
  std::filesystem::remove(missing);
  const std::vector<std::string> commands[] = {
      {"client", "coverage"},
      {"client", "simulate", "@fig5", "--function", "fig5_main", "--sim-arg",
       "64"},
  };
  for (std::vector<std::string> command : commands) {
    std::vector<std::string> secured = command;
    secured.insert(secured.end(), {"--socket", daemon.socketPath(),
                                   "--secret", "parity-secret"});
    EXPECT_EQ(runClientCli(secured, log), 0) << slurp(log);
    command.insert(command.end(), {"--socket", missing.string()});
    EXPECT_EQ(runClientCli(command, log), 3) << slurp(log);
    EXPECT_NE(slurp(log).find("mira-cli client: "), std::string::npos)
        << slurp(log);
  }
  std::filesystem::remove(log);
}

TEST(AnalysisServerTest, RefusesSecondDaemonOnSamePath) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  ServerOptions options;
  options.socketPath = daemon.socketPath();
  AnalysisServer second(options);
  std::string error;
  EXPECT_FALSE(second.start(error));
  EXPECT_NE(error.find("already listening"), std::string::npos) << error;

  // The loser must not have unlinked the winner's socket.
  Client client;
  EXPECT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
}

} // namespace
} // namespace mira::server
