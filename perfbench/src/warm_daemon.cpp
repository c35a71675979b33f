// warm-daemon: an AnalysisServer on a Unix socket, warmed with the
// corpus during set-up, then two closed-loop Client connections (one per
// server thread) asking for Zipf-skewed sources. Every reply is a memory
// hit, so the time goes to the socket, the protocol codec, payload
// serialization on the server and deserialization on the client; the
// pipeline does no work.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "bench.h"
#include "core/artifacts.h"
#include "driver/batch.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {
namespace {

using mira::server::AnalysisServer;
using mira::server::Client;
using mira::server::ClientOutcome;
using mira::server::SourceItem;

constexpr std::size_t kGenerated = 1000;
constexpr unsigned kConnections = 2;
constexpr int kSetupRepeats = 3;
/// Short windows (~2,000 requests each, so ~20 beyond p99) let the steal
/// filter in reportSlices skip brief bursts of host contention.
constexpr double kSliceSeconds = 0.25;
/// Popularity skew. With exponent 1 over this corpus the ten most popular
/// sources would take ~40% of requests, so the seed's draw of those ten
/// would set the mean reply size; 0.6 keeps a clear skew (top ten ~15%)
/// without letting a handful of sources decide the result.
constexpr double kZipfExponent = 0.6;

/// A daemon serving on its own thread; stopped and joined on
/// destruction.
class Daemon {
public:
  explicit Daemon(const std::string &socketPath) {
    mira::server::ServerOptions options;
    options.socketPath = socketPath;
    options.threads = kConnections;
    server_ = std::make_unique<AnalysisServer>(options);
  }
  ~Daemon() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(std::string &error) {
    if (!server_->start(error))
      return false;
    thread_ = std::thread([this] { server_->serve(); });
    return true;
  }

private:
  std::unique_ptr<AnalysisServer> server_;
  std::thread thread_;
};

/// Zipf(kZipfExponent) over the corpus, with a seeded rank -> source
/// permutation so the popular sources change with the seed.
class ZipfPicker {
public:
  ZipfPicker(std::size_t n, std::uint64_t seed) : order_(n), cdf_(n) {
    for (std::size_t i = 0; i < n; ++i)
      order_[i] = i;
    std::mt19937_64 rng(seed ^ 0x21bfull);
    std::shuffle(order_.begin(), order_.end(), rng);
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r)
      cdf_[r] = sum += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    for (double &c : cdf_)
      c /= sum;
  }
  std::size_t operator()(std::mt19937_64 &rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

private:
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

std::vector<SourceItem> itemsFor(const std::vector<CorpusSource> &corpus) {
  std::vector<SourceItem> items;
  for (const CorpusSource &c : corpus)
    items.push_back({c.name, c.source});
  return items;
}

/// Start a daemon and warm it with every item; the warm-up replies'
/// payloads become the expected bytes of every later reply.
std::unique_ptr<Daemon> startWarm(const std::string &socketPath,
                                  const std::vector<SourceItem> &items,
                                  std::vector<std::string> &payloads,
                                  Report &report) {
  auto daemon = std::make_unique<Daemon>(socketPath);
  std::string error;
  if (!daemon->start(error)) {
    report.check(false, "daemon start: " + error);
    return nullptr;
  }
  Client client;
  std::vector<ClientOutcome> outcomes;
  if (!client.connect(socketPath) ||
      !client.analyzePipelined(items, mira::core::MiraOptions(), outcomes) ||
      outcomes.size() != items.size()) {
    report.check(false, "daemon warm-up: " + client.lastError());
    return nullptr;
  }
  payloads.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    report.check(outcomes[i].ok, items[i].name + ": warm-up failed");
    payloads[i] = std::move(outcomes[i].payload);
  }
  return daemon;
}

/// Closed-loop load from kConnections threads for a timed phase of
/// nominal length `seconds` (see keepMeasuring). `request(thread, index,
/// op)` returns false on a failed op. Ops are grouped into kSliceSeconds
/// windows by completion time.
struct LoadResult {
  std::vector<Slice> slices;
  std::uint64_t ops = 0, failed = 0;
  double wall = 0;
};
LoadResult closedLoop(std::size_t n, std::uint64_t seed, double seconds,
                      const std::function<bool(unsigned, std::size_t,
                                               std::uint64_t)> &request) {
  const ZipfPicker pick(n, seed);
  struct Sample {
    double end, latency;
  };
  std::vector<std::vector<Sample>> samples(kConnections);
  std::vector<std::uint64_t> failed(kConnections, 0);
  std::atomic<bool> stop{false};
  const auto start = Clock::now();
  const auto worker = [&](unsigned t) {
    std::mt19937_64 rng(seed * 1000003u + t);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t index = pick(rng);
      const auto begin = Clock::now();
      const bool ok =
          request(t, index, samples[t].size() * kConnections + t);
      samples[t].push_back({secondsSince(start), secondsSince(begin)});
      if (!ok)
        ++failed[t];
    }
  };
  // The calling thread closes a window every kSliceSeconds, recording its
  // wall time and steal, and decides when to stop.
  LoadResult all;
  std::vector<double> bounds{0.0};
  CpuTicks ticks = cpuTicks();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kConnections; ++t)
    threads.emplace_back(worker, t);
  do {
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(bounds.back() + kSliceSeconds));
    const CpuTicks now = cpuTicks();
    bounds.push_back(secondsSince(start));
    Slice window;
    window.wall = bounds.back() - bounds[bounds.size() - 2];
    window.steal = stealShare(ticks, now);
    ticks = now;
    all.slices.push_back(std::move(window));
  } while (keepMeasuring(all.slices, bounds.back(), seconds));
  stop = true;
  for (std::thread &t : threads)
    t.join();
  all.wall = bounds.back();
  // Ops finishing after the last boundary count as ops but in no window.
  for (unsigned t = 0; t < kConnections; ++t) {
    std::size_t w = 0;
    for (const Sample &s : samples[t]) {
      while (w < all.slices.size() && s.end >= bounds[w + 1])
        ++w;
      if (w < all.slices.size())
        all.slices[w].latencies.push_back(s.latency);
    }
    all.ops += samples[t].size();
    all.failed += failed[t];
  }
  return all;
}

/// Connect one Client per load thread; false (reported) on failure.
bool connectAll(std::vector<Client> &clients, const std::string &socketPath,
                Report &report) {
  clients.resize(kConnections);
  for (Client &c : clients)
    if (!c.connect(socketPath)) {
      report.check(false, "connect: " + c.lastError());
      return false;
    }
  return true;
}

/// Client::analyze on a memory hit, checked against the warm-up bytes.
LoadResult clientLoad(std::vector<Client> &clients,
                      const std::vector<SourceItem> &items,
                      const std::vector<std::string> &payloads,
                      std::uint64_t seed, double seconds) {
  return closedLoop(items.size(), seed, seconds,
                    [&](unsigned t, std::size_t i, std::uint64_t) {
                      ClientOutcome out;
                      return clients[t].analyze(items[i].name,
                                                items[i].source,
                                                mira::core::MiraOptions(),
                                                out) &&
                             out.ok && out.cacheHit &&
                             out.payload == payloads[i] && out.analysis;
                    });
}

/// Mean reply payload bytes over a fixed seeded request sequence.
double meanReplyBytes(const std::vector<std::string> &payloads,
                      std::uint64_t seed) {
  const ZipfPicker pick(payloads.size(), seed);
  std::mt19937_64 rng(seed ^ 0xb17e5ull);
  constexpr int kDraws = 10000;
  double total = 0;
  for (int k = 0; k < kDraws; ++k)
    total += static_cast<double>(payloads[pick(rng)].size());
  return total / kDraws;
}

/// Every expected payload must equal the bytes of a local one-shot
/// analyze of the same source.
void checkPayloads(const std::vector<SourceItem> &items,
                   const std::vector<std::string> &payloads, Report &report) {
  std::vector<char> same(items.size(), 0);
  parallelFor(items.size(), cpuCount(), [&](std::size_t i) {
    mira::core::AnalysisSpec spec;
    spec.name = items[i].name;
    spec.source = items[i].source;
    spec.artifacts = mira::core::kArtifactModel |
                     mira::core::kArtifactDiagnostics |
                     mira::core::kArtifactCoverage;
    const mira::core::Artifacts local = mira::core::analyze(spec);
    same[i] = payloads[i] == mira::driver::serializeArtifactPayload(
                                 local.model.get(),
                                 local.coverage ? &*local.coverage : nullptr,
                                 local.diagnostics, local.name);
  });
  for (std::size_t i = 0; i < items.size(); ++i)
    report.check(same[i], items[i].name +
                              ": daemon payload differs from local analyze");
}

std::uint64_t busyRejections(const std::string &socketPath, Report &report) {
  Client client;
  std::vector<mira::server::MetricSample> samples;
  if (!client.connect(socketPath) || !client.metrics(samples)) {
    report.check(false, "metrics scrape: " + client.lastError());
    return 0;
  }
  for (const auto &s : samples)
    if (s.name == "server_busy_rejections_total")
      return s.value;
  return 0;
}

} // namespace

void runWarmDaemon(const Args &args, Report &report) {
  const std::vector<CorpusSource> corpus = buildCorpus(args.seed, kGenerated);
  const std::vector<SourceItem> items = itemsFor(corpus);
  const std::string socketPath = args.runDir + "/daemon.sock";

  // Set-up: daemon start plus cold warm-up, repeated; the last daemon
  // stays up for the timed phase.
  std::vector<double> setups;
  std::vector<std::string> payloads;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < kSetupRepeats; ++r) {
    daemon.reset();
    const auto start = Clock::now();
    daemon = startWarm(socketPath, items, payloads, report);
    setups.push_back(secondsSince(start));
    if (!daemon)
      return;
  }

  std::vector<Client> clients;
  if (!connectAll(clients, socketPath, report))
    return;
  resetPeakRss();
  const LoadResult load =
      clientLoad(clients, items, payloads, args.seed, args.seconds);
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  // Each session holds a server thread, so close them before scraping.
  clients.clear();
  const std::uint64_t busy = busyRejections(socketPath, report);
  daemon.reset();

  reportSetup(report, setups);
  reportSlices(report, load.slices, args.seconds);
  report.ops(load.ops, load.failed);
  report.note("corpus: " + std::to_string(items.size()) + " sources (" +
              std::to_string(kGenerated) + " generated), " +
              std::to_string(kConnections) +
              " closed-loop connections, Zipf picks; busy rejections " +
              std::to_string(busy));
  report.check(busy == 0, "daemon refused requests with Busy");
  checkPayloads(items, payloads, report);
  checkAgainstSimulator(corpus, args.seed, 32, report);
}

void traceWarmDaemon(const Args &args, double seconds, Report &report,
                     TraceLog &log) {
  using namespace mira;
  const std::vector<CorpusSource> corpus = buildCorpus(args.seed, kGenerated);
  const std::vector<SourceItem> items = itemsFor(corpus);
  const std::string socketPath = args.runDir + "/daemon.sock";
  std::vector<std::string> payloads;
  std::unique_ptr<Daemon> daemon =
      startWarm(socketPath, items, payloads, report);
  if (!daemon)
    return;

  // Transport floor.
  std::vector<double> pings;
  {
    Client client;
    report.check(client.connect(socketPath), "connect: " + client.lastError());
    const auto start = Clock::now();
    while (secondsSince(start) < seconds * 0.1) {
      const auto begin = Clock::now();
      report.op(client.ping());
      pings.push_back(secondsSince(begin));
    }
  }

  // Untraced reference throughput through Client.
  std::vector<Client> clients;
  if (!connectAll(clients, socketPath, report))
    return;
  const LoadResult untraced =
      clientLoad(clients, items, payloads, args.seed, seconds * 0.35);
  report.ops(untraced.ops, untraced.failed);
  clients.clear();

  // Traced: the same requests composed from the protocol's public codec
  // and framing, one span per layer.
  std::vector<SpanBuffer *> buffers;
  std::vector<net::Socket> sockets;
  for (unsigned t = 0; t < kConnections; ++t) {
    buffers.push_back(&log.buffer(args.tracePid));
    std::string error;
    sockets.push_back(net::connectUnix(socketPath, error));
    report.check(sockets.back().valid(), "connect: " + error);
  }
  const std::uint8_t flags = server::packOptions(core::MiraOptions());
  const LoadResult traced = closedLoop(
      items.size(), args.seed, seconds * 0.35,
      [&](unsigned t, std::size_t i, std::uint64_t op) {
        SpanBuffer *b = buffers[t];
        ScopedSpan whole(b, "daemon.request", op);
        std::string request, reply;
        {
          ScopedSpan s(b, "protocol.encode_request", op);
          request = server::encodeAnalyzeRequest(items[i], flags);
        }
        {
          ScopedSpan s(b, "socket.roundtrip", op);
          if (!net::writeFrame(sockets[t].fd(), request) ||
              net::readFrame(sockets[t].fd(), reply,
                             server::kMaxFrameBytes) != net::FrameStatus::ok)
            return false;
        }
        server::AnalyzeReply wire;
        {
          ScopedSpan s(b, "protocol.decode_reply", op);
          bio::Reader r{reply, 0};
          server::MessageType type{};
          std::string error;
          if (!server::readHeader(r, type, error) ||
              type != server::MessageType::analyzeReply ||
              !server::decodeAnalyzeReply(r, wire))
            return false;
        }
        std::shared_ptr<const core::AnalysisResult> analysis;
        std::optional<sema::LoopCoverage> coverage;
        std::string diagnostics, producer;
        {
          ScopedSpan s(b, "model.deserialize_payload", op);
          if (!driver::deserializeArtifactPayload(wire.payload, analysis,
                                                  coverage, diagnostics,
                                                  producer))
            return false;
        }
        return wire.cacheHit && wire.payload == payloads[i] && analysis;
      });
  report.ops(traced.ops, traced.failed);
  sockets.clear();
  const std::uint64_t busy = busyRejections(socketPath, report);
  daemon.reset();

  // The server-side halves of a memory hit, driven through the same
  // public calls the daemon makes: the analyzer's memory lookup and the
  // reply payload serialization.
  SpanBuffer *local = &log.buffer(args.tracePid);
  std::vector<core::AnalysisSpec> specs;
  for (std::size_t i = 0; i < std::min<std::size_t>(items.size(), 64); ++i) {
    core::AnalysisSpec spec;
    spec.name = items[i].name;
    spec.source = items[i].source;
    specs.push_back(std::move(spec));
  }
  driver::BatchOptions memoryOnly;
  memoryOnly.threads = cpuCount();
  driver::BatchAnalyzer analyzer(memoryOnly);
  analyzer.analyzeArtifactsMany(specs);
  const auto start = Clock::now();
  std::uint64_t op = 0;
  while (secondsSince(start) < seconds * 0.2) {
    for (const core::AnalysisSpec &spec : specs) {
      ScopedSpan whole(local, "daemon.local_hit", ++op);
      core::Artifacts hit;
      {
        ScopedSpan s(local, "driver.memory_hit", op);
        hit = analyzer.analyzeArtifacts(spec);
      }
      ScopedSpan s(local, "model.serialize_payload", op);
      const std::string payload = driver::serializeArtifactPayload(
          hit.model.get(), hit.coverage ? &*hit.coverage : nullptr,
          hit.diagnostics, hit.name);
      report.op(hit.cacheHit && !payload.empty());
    }
  }

  const std::map<std::string, SelfCost> costs = log.selfCosts(args.tracePid);
  const auto medianUs = [&](const char *name) {
    const auto it = costs.find(name);
    return it == costs.end() ? 0.0 : median(it->second.seconds) * 1e6;
  };
  report.metric("socket.ping_us", median(pings) * 1e6, "us");
  report.metric("socket.roundtrip_us", medianUs("socket.roundtrip"), "us");
  report.metric("protocol.encode_request_us",
                medianUs("protocol.encode_request"), "us");
  report.metric("protocol.decode_reply_us", medianUs("protocol.decode_reply"),
                "us");
  report.metric("model.serialize_payload_us",
                medianUs("model.serialize_payload"), "us");
  report.metric("model.deserialize_payload_us",
                medianUs("model.deserialize_payload"), "us");
  report.metric("driver.memory_hit_us", medianUs("driver.memory_hit"), "us");
  report.metric("server.reply_bytes", meanReplyBytes(payloads, args.seed),
                "bytes");
  report.metric("server.busy_rejections", static_cast<double>(busy), "count");
  const double untracedRate = untraced.ops / untraced.wall;
  const double tracedRate = traced.ops / traced.wall;
  report.metric("trace.daemon_overhead_frac",
                (untracedRate - tracedRate) / untracedRate, "ratio");
  report.note("warm-daemon traced: " + std::to_string(tracedRate) +
              " traced vs " + std::to_string(untracedRate) +
              " untraced requests/s");
}

} // namespace perfbench
