#include "server/protocol.h"

#include <cstring>

namespace mira::server {

namespace {

// Doubles travel as their IEEE-754 bit pattern in the usual
// little-endian u64 slot; bit-exact round trip by construction.
void putF64(std::string &out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bio::putU64(out, bits);
}

bool readF64(bio::Reader &r, double &v) {
  std::uint64_t bits = 0;
  if (!r.u64(bits))
    return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

void putValue(std::string &out, const sim::Value &value) {
  bio::putI64(out, value.i);
  putF64(out, value.f);
  putF64(out, value.f2);
}

bool readValue(bio::Reader &r, sim::Value &value) {
  return r.i64(value.i) && readF64(r, value.f) && readF64(r, value.f2);
}

// Category counts are sparse in practice (a kernel touches a handful of
// the 64 categories), so they travel as [count u32][(index u8, count
// u64) x count] with indices strictly increasing — a canonical form, so
// equal counters encode to equal bytes.
void putCounters(std::string &out, const sim::Counters &counters) {
  std::uint32_t nonZero = 0;
  for (std::size_t i = 0; i < isa::kNumCategories; ++i)
    if (counters.categories[i] != 0)
      ++nonZero;
  bio::putU32(out, nonZero);
  for (std::size_t i = 0; i < isa::kNumCategories; ++i) {
    if (counters.categories[i] == 0)
      continue;
    bio::putU8(out, static_cast<std::uint8_t>(i));
    bio::putU64(out, counters.categories[i]);
  }
  bio::putU64(out, counters.totalInstructions);
  bio::putU64(out, counters.fpInstructions);
  bio::putU64(out, counters.flops);
}

bool readCounters(bio::Reader &r, sim::Counters &counters) {
  counters = sim::Counters{};
  std::uint32_t nonZero = 0;
  if (!r.u32(nonZero))
    return false;
  int lastIndex = -1;
  for (std::uint32_t i = 0; i < nonZero; ++i) {
    std::uint8_t index = 0;
    std::uint64_t count = 0;
    if (!r.u8(index) || !r.u64(count))
      return false;
    if (index >= isa::kNumCategories || static_cast<int>(index) <= lastIndex ||
        count == 0)
      return false; // non-canonical or out-of-range: treat as corrupt
    lastIndex = index;
    counters.categories[index] = count;
  }
  return r.u64(counters.totalInstructions) &&
         r.u64(counters.fpInstructions) && r.u64(counters.flops);
}

} // namespace

void putSimResult(std::string &out, const sim::SimResult &result) {
  bio::putU8(out, result.ok ? 1 : 0);
  bio::putString(out, result.error);
  putValue(out, result.returnValue);
  putCounters(out, result.total);
  bio::putU32(out, static_cast<std::uint32_t>(result.functions.size()));
  for (const auto &entry : result.functions) { // std::map: sorted, canonical
    bio::putString(out, entry.first);
    bio::putU64(out, entry.second.calls);
    putCounters(out, entry.second.inclusive);
  }
  bio::putU32(out, static_cast<std::uint32_t>(result.printed.size()));
  for (double value : result.printed)
    putF64(out, value);
}

bool readSimResult(bio::Reader &r, sim::SimResult &result) {
  result = sim::SimResult{};
  std::uint8_t ok = 0;
  if (!r.u8(ok) || ok > 1)
    return false;
  result.ok = ok == 1;
  if (!r.str(result.error) || !readValue(r, result.returnValue) ||
      !readCounters(r, result.total))
    return false;
  std::uint32_t functionCount = 0;
  if (!r.u32(functionCount))
    return false;
  for (std::uint32_t i = 0; i < functionCount; ++i) {
    std::string name;
    sim::FunctionProfile profile;
    if (!r.str(name) || !r.u64(profile.calls) ||
        !readCounters(r, profile.inclusive))
      return false;
    result.functions.emplace(std::move(name), std::move(profile));
  }
  std::uint32_t printedCount = 0;
  if (!r.u32(printedCount))
    return false;
  for (std::uint32_t i = 0; i < printedCount; ++i) {
    double value = 0;
    if (!readF64(r, value))
      return false;
    result.printed.push_back(value);
  }
  return true;
}

std::uint8_t packOptions(const core::MiraOptions &options) {
  std::uint8_t flags = 0;
  if (options.compile.compiler.optimize)
    flags |= kOptionOptimize;
  if (options.compile.compiler.vectorize)
    flags |= kOptionVectorize;
  if (options.metrics.assumeBranchesTaken)
    flags |= kOptionAssumeBranchesTaken;
  return flags;
}

core::MiraOptions unpackOptions(std::uint8_t flags) {
  core::MiraOptions options;
  options.compile.compiler.optimize = (flags & kOptionOptimize) != 0;
  options.compile.compiler.vectorize = (flags & kOptionVectorize) != 0;
  options.metrics.assumeBranchesTaken =
      (flags & kOptionAssumeBranchesTaken) != 0;
  return options;
}

void beginMessage(std::string &out, MessageType type) {
  bio::putU32(out, kProtocolMagic);
  bio::putU32(out, kProtocolVersion);
  bio::putU8(out, static_cast<std::uint8_t>(type));
}

bool readHeader(bio::Reader &r, MessageType &type, std::string &error) {
  std::uint32_t magic = 0, version = 0;
  std::uint8_t rawType = 0;
  if (!r.u32(magic) || !r.u32(version) || !r.u8(rawType)) {
    error = "short message header";
    return false;
  }
  if (magic != kProtocolMagic) {
    error = "bad magic (not a Mira protocol message)";
    return false;
  }
  if (version != kProtocolVersion) {
    error = "unsupported protocol version " + std::to_string(version) +
            " (this peer speaks " + std::to_string(kProtocolVersion) + ")";
    return false;
  }
  type = static_cast<MessageType>(rawType);
  return true;
}

std::string encodeEmptyMessage(MessageType type) {
  std::string out;
  beginMessage(out, type);
  return out;
}

namespace {

std::string encodeSourceRequest(MessageType type, const SourceItem &item,
                                std::uint8_t flags) {
  std::string out;
  beginMessage(out, type);
  bio::putU8(out, flags);
  bio::putString(out, item.name);
  bio::putString(out, item.source);
  return out;
}

bool decodeSourceRequestBody(bio::Reader &r, SourceItem &item,
                             std::uint8_t &flags) {
  return r.u8(flags) && r.str(item.name) && r.str(item.source);
}

} // namespace

std::string encodeAnalyzeRequest(const SourceItem &item, std::uint8_t flags) {
  return encodeSourceRequest(MessageType::analyze, item, flags);
}

std::string encodeBatchRequest(const std::vector<SourceItem> &items,
                               std::uint8_t flags) {
  std::string out;
  beginMessage(out, MessageType::batch);
  bio::putU8(out, flags);
  bio::putU32(out, static_cast<std::uint32_t>(items.size()));
  for (const SourceItem &item : items) {
    bio::putString(out, item.name);
    bio::putString(out, item.source);
  }
  return out;
}

std::string encodeCoverageRequest(const SourceItem &item, std::uint8_t flags) {
  return encodeSourceRequest(MessageType::coverage, item, flags);
}

std::string encodeSimulateRequest(const SourceItem &item, std::uint8_t flags,
                                  const core::SimulationArgs &sim) {
  std::string out = encodeSourceRequest(MessageType::simulate, item, flags);
  bio::putString(out, sim.function);
  bio::putU8(out, sim.options.fastForward ? 1 : 0);
  bio::putU64(out, sim.options.maxInstructions);
  bio::putU32(out, static_cast<std::uint32_t>(sim.args.size()));
  for (const sim::Value &value : sim.args)
    putValue(out, value);
  return out;
}

std::string encodeManifestDiffRequest(const std::string &oldManifestBytes,
                                      const std::string &newManifestBytes) {
  std::string out;
  beginMessage(out, MessageType::manifestDiff);
  bio::putString(out, oldManifestBytes);
  bio::putString(out, newManifestBytes);
  return out;
}

std::string encodeHelloRequest(const std::string &secret) {
  std::string out;
  beginMessage(out, MessageType::hello);
  bio::putString(out, secret);
  return out;
}

std::string encodeManifestBatchRequest(const ManifestBatchRequest &request) {
  std::string out;
  beginMessage(out, MessageType::manifestBatch);
  bio::putU8(out, request.flags);
  bio::putU8(out, request.progress ? 1 : 0);
  bio::putU32(out, request.shardIndex);
  bio::putU32(out, request.shardCount);
  bio::putString(out, request.root);
  bio::putString(out, request.manifestBytes);
  bio::putString(out, request.sinceBytes);
  return out;
}

std::string encodeBatchProgress(const BatchProgress &progress) {
  std::string out;
  beginMessage(out, MessageType::batchProgress);
  bio::putU32(out, progress.done);
  bio::putU32(out, progress.total);
  bio::putU32(out, progress.failures);
  bio::putU32(out, progress.cacheHits);
  return out;
}

std::string encodeManifestBatchReply(const ManifestBatchReply &reply) {
  std::string out;
  beginMessage(out, MessageType::manifestBatchReply);
  bio::putString(out, reply.reportBytes);
  return out;
}

std::string encodeBusyReply(const BusyReply &reply) {
  std::string out;
  beginMessage(out, MessageType::busyReply);
  bio::putU32(out, reply.retryAfterMillis);
  return out;
}

std::string encodeMetricsReply(const std::vector<MetricSample> &samples) {
  std::string out;
  beginMessage(out, MessageType::metricsReply);
  bio::putU32(out, static_cast<std::uint32_t>(samples.size()));
  for (const MetricSample &sample : samples) {
    bio::putString(out, sample.name);
    bio::putU64(out, sample.value);
  }
  return out;
}

std::string encodeErrorReply(const std::string &message) {
  std::string out;
  beginMessage(out, MessageType::error);
  bio::putString(out, message);
  return out;
}

namespace {

void putAnalyzeReplyBody(std::string &out, const AnalyzeReply &reply) {
  bio::putU8(out, reply.cacheHit ? 1 : 0);
  bio::putU64(out, reply.micros);
  bio::putString(out, reply.payload);
}

bool readAnalyzeReplyBody(bio::Reader &r, AnalyzeReply &reply) {
  std::uint8_t hit = 0;
  if (!r.u8(hit) || hit > 1)
    return false;
  reply.cacheHit = hit == 1;
  return r.u64(reply.micros) && r.str(reply.payload);
}

/// Shared [cacheHit u8][recompiled u8][micros u64][ok u8][diagnostics]
/// prefix of the coverage and simulate replies.
void putServedReplyPrefix(std::string &out, bool cacheHit, bool recompiled,
                          std::uint64_t micros, bool ok,
                          const std::string &diagnostics) {
  bio::putU8(out, cacheHit ? 1 : 0);
  bio::putU8(out, recompiled ? 1 : 0);
  bio::putU64(out, micros);
  bio::putU8(out, ok ? 1 : 0);
  bio::putString(out, diagnostics);
}

bool readServedReplyPrefix(bio::Reader &r, bool &cacheHit, bool &recompiled,
                           std::uint64_t &micros, bool &ok,
                           std::string &diagnostics) {
  std::uint8_t hit = 0, rec = 0, okByte = 0;
  if (!r.u8(hit) || hit > 1 || !r.u8(rec) || rec > 1 || !r.u64(micros) ||
      !r.u8(okByte) || okByte > 1 || !r.str(diagnostics))
    return false;
  cacheHit = hit == 1;
  recompiled = rec == 1;
  ok = okByte == 1;
  return true;
}

} // namespace

std::string encodeAnalyzeReply(const AnalyzeReply &reply) {
  std::string out;
  beginMessage(out, MessageType::analyzeReply);
  putAnalyzeReplyBody(out, reply);
  return out;
}

std::string encodeBatchReply(const std::vector<AnalyzeReply> &replies) {
  std::string out;
  beginMessage(out, MessageType::batchReply);
  bio::putU32(out, static_cast<std::uint32_t>(replies.size()));
  for (const AnalyzeReply &reply : replies)
    putAnalyzeReplyBody(out, reply);
  return out;
}

std::string encodeCoverageReply(const CoverageReply &reply) {
  std::string out;
  beginMessage(out, MessageType::coverageReply);
  putServedReplyPrefix(out, reply.cacheHit, reply.recompiled, reply.micros,
                       reply.ok, reply.diagnostics);
  if (reply.ok) {
    bio::putU64(out, reply.coverage.loops);
    bio::putU64(out, reply.coverage.statements);
    bio::putU64(out, reply.coverage.inLoopStatements);
  }
  return out;
}

std::string encodeSimulateReply(const SimulateReply &reply) {
  std::string out;
  beginMessage(out, MessageType::simulateReply);
  putServedReplyPrefix(out, reply.cacheHit, reply.recompiled, reply.micros,
                       reply.ok, reply.diagnostics);
  if (reply.ok)
    putSimResult(out, reply.result);
  return out;
}

namespace {

void putManifestEntries(std::string &out,
                        const std::vector<corpus::ManifestEntry> &entries) {
  bio::putU32(out, static_cast<std::uint32_t>(entries.size()));
  for (const corpus::ManifestEntry &entry : entries) {
    bio::putString(out, entry.path);
    bio::putU64(out, entry.contentHash);
    bio::putU64(out, entry.size);
  }
}

bool readManifestEntries(bio::Reader &r,
                         std::vector<corpus::ManifestEntry> &entries) {
  std::uint32_t count = 0;
  if (!r.u32(count))
    return false;
  entries.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    corpus::ManifestEntry entry;
    if (!r.str(entry.path) || !r.u64(entry.contentHash) || !r.u64(entry.size))
      return false;
    entries.push_back(std::move(entry));
  }
  return true;
}

} // namespace

std::string encodeManifestDiffReply(const ManifestDiffReply &reply) {
  std::string out;
  beginMessage(out, MessageType::manifestDiffReply);
  putManifestEntries(out, reply.added);
  putManifestEntries(out, reply.changed);
  bio::putU32(out, static_cast<std::uint32_t>(reply.removed.size()));
  for (const std::string &path : reply.removed)
    bio::putString(out, path);
  return out;
}

std::string encodeCacheStatsReply(const ServerStats &stats) {
  std::string out;
  beginMessage(out, MessageType::cacheStatsReply);
  bio::putU64(out, stats.uptimeMicros);
  bio::putU64(out, stats.connectionsAccepted);
  bio::putU64(out, stats.requestsServed);
  bio::putU64(out, stats.analyzeRequests);
  bio::putU64(out, stats.batchRequests);
  bio::putU64(out, stats.sourcesAnalyzed);
  bio::putU64(out, stats.cacheHits);
  bio::putU64(out, stats.computed);
  bio::putU64(out, stats.failures);
  bio::putU64(out, stats.protocolErrors);
  bio::putU64(out, stats.memoryEntries);
  bio::putU64(out, stats.diskHits);
  bio::putU64(out, stats.diskMisses);
  bio::putU64(out, stats.diskStores);
  bio::putU64(out, stats.diskEntries);
  bio::putU64(out, stats.diskBytes);
  bio::putU64(out, stats.threads);
  bio::putU64(out, stats.coverageRequests);
  bio::putU64(out, stats.simulateRequests);
  bio::putU64(out, stats.recompiles);
  return out;
}

bool decodeAnalyzeRequest(bio::Reader &r, SourceItem &item,
                          std::uint8_t &flags) {
  return decodeSourceRequestBody(r, item, flags) && r.remaining() == 0;
}

bool decodeBatchRequest(bio::Reader &r, std::vector<SourceItem> &items,
                        std::uint8_t &flags) {
  std::uint32_t count = 0;
  if (!r.u8(flags) || !r.u32(count))
    return false;
  items.clear();
  // No reserve(count): the count is attacker-controlled; per-item reads
  // below fail naturally when the body runs out.
  for (std::uint32_t i = 0; i < count; ++i) {
    SourceItem item;
    if (!r.str(item.name) || !r.str(item.source))
      return false;
    items.push_back(std::move(item));
  }
  return r.remaining() == 0;
}

bool decodeCoverageRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags) {
  return decodeSourceRequestBody(r, item, flags) && r.remaining() == 0;
}

bool decodeSimulateRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags, core::SimulationArgs &sim) {
  sim = core::SimulationArgs{};
  if (!decodeSourceRequestBody(r, item, flags))
    return false;
  std::uint8_t fastForward = 0;
  std::uint32_t argCount = 0;
  if (!r.str(sim.function) || !r.u8(fastForward) || fastForward > 1 ||
      !r.u64(sim.options.maxInstructions) || !r.u32(argCount))
    return false;
  sim.options.fastForward = fastForward == 1;
  for (std::uint32_t i = 0; i < argCount; ++i) {
    sim::Value value;
    if (!readValue(r, value))
      return false;
    sim.args.push_back(value);
  }
  return r.remaining() == 0;
}

bool decodeManifestDiffRequest(bio::Reader &r, std::string &oldManifestBytes,
                               std::string &newManifestBytes) {
  return r.str(oldManifestBytes) && r.str(newManifestBytes) &&
         r.remaining() == 0;
}

bool decodeHelloRequest(bio::Reader &r, std::string &secret) {
  return r.str(secret) && r.remaining() == 0;
}

bool decodeManifestBatchRequest(bio::Reader &r,
                                ManifestBatchRequest &request) {
  request = ManifestBatchRequest{};
  std::uint8_t progress = 0;
  if (!r.u8(request.flags) || !r.u8(progress) || progress > 1 ||
      !r.u32(request.shardIndex) || !r.u32(request.shardCount) ||
      !r.str(request.root) || !r.str(request.manifestBytes) ||
      !r.str(request.sinceBytes))
    return false;
  request.progress = progress == 1;
  // A zero shard count divides by zero downstream; an out-of-range index
  // would silently select nothing. Both are structural errors.
  if (request.shardCount < 1 || request.shardIndex >= request.shardCount)
    return false;
  return r.remaining() == 0;
}

bool decodeBatchProgress(bio::Reader &r, BatchProgress &progress) {
  progress = BatchProgress{};
  return r.u32(progress.done) && r.u32(progress.total) &&
         r.u32(progress.failures) && r.u32(progress.cacheHits) &&
         r.remaining() == 0;
}

bool decodeManifestBatchReply(bio::Reader &r, ManifestBatchReply &reply) {
  reply = ManifestBatchReply{};
  return r.str(reply.reportBytes) && r.remaining() == 0;
}

bool decodeErrorReply(bio::Reader &r, std::string &message) {
  return r.str(message) && r.remaining() == 0;
}

bool decodeAnalyzeReply(bio::Reader &r, AnalyzeReply &reply) {
  return readAnalyzeReplyBody(r, reply) && r.remaining() == 0;
}

bool decodeBatchReply(bio::Reader &r, std::vector<AnalyzeReply> &replies) {
  std::uint32_t count = 0;
  if (!r.u32(count))
    return false;
  replies.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    AnalyzeReply reply;
    if (!readAnalyzeReplyBody(r, reply))
      return false;
    replies.push_back(std::move(reply));
  }
  return r.remaining() == 0;
}

bool decodeCoverageReply(bio::Reader &r, CoverageReply &reply) {
  reply = CoverageReply{};
  if (!readServedReplyPrefix(r, reply.cacheHit, reply.recompiled,
                             reply.micros, reply.ok, reply.diagnostics))
    return false;
  if (!reply.ok)
    return r.remaining() == 0;
  std::uint64_t loops = 0, statements = 0, inLoop = 0;
  if (!r.u64(loops) || !r.u64(statements) || !r.u64(inLoop))
    return false;
  reply.coverage.loops = static_cast<std::size_t>(loops);
  reply.coverage.statements = static_cast<std::size_t>(statements);
  reply.coverage.inLoopStatements = static_cast<std::size_t>(inLoop);
  return r.remaining() == 0;
}

bool decodeSimulateReply(bio::Reader &r, SimulateReply &reply) {
  reply = SimulateReply{};
  if (!readServedReplyPrefix(r, reply.cacheHit, reply.recompiled,
                             reply.micros, reply.ok, reply.diagnostics))
    return false;
  if (!reply.ok)
    return r.remaining() == 0;
  return readSimResult(r, reply.result) && r.remaining() == 0;
}

bool decodeManifestDiffReply(bio::Reader &r, ManifestDiffReply &reply) {
  reply = ManifestDiffReply{};
  std::uint32_t removedCount = 0;
  if (!readManifestEntries(r, reply.added) ||
      !readManifestEntries(r, reply.changed) || !r.u32(removedCount))
    return false;
  for (std::uint32_t i = 0; i < removedCount; ++i) {
    std::string path;
    if (!r.str(path))
      return false;
    reply.removed.push_back(std::move(path));
  }
  return r.remaining() == 0;
}

bool decodeBusyReply(bio::Reader &r, BusyReply &reply) {
  reply = BusyReply{};
  return r.u32(reply.retryAfterMillis) && r.remaining() == 0;
}

bool decodeMetricsReply(bio::Reader &r, std::vector<MetricSample> &samples) {
  std::uint32_t count = 0;
  if (!r.u32(count))
    return false;
  samples.clear();
  // No reserve(count): the count is attacker-controlled; per-sample
  // reads fail naturally when the body runs out.
  for (std::uint32_t i = 0; i < count; ++i) {
    MetricSample sample;
    if (!r.str(sample.name) || !r.u64(sample.value))
      return false;
    samples.push_back(std::move(sample));
  }
  return r.remaining() == 0;
}

bool decodeCacheStatsReply(bio::Reader &r, ServerStats &stats) {
  if (!(r.u64(stats.uptimeMicros) && r.u64(stats.connectionsAccepted) &&
        r.u64(stats.requestsServed) && r.u64(stats.analyzeRequests) &&
        r.u64(stats.batchRequests) && r.u64(stats.sourcesAnalyzed) &&
        r.u64(stats.cacheHits) && r.u64(stats.computed) &&
        r.u64(stats.failures) && r.u64(stats.protocolErrors) &&
        r.u64(stats.memoryEntries) && r.u64(stats.diskHits) &&
        r.u64(stats.diskMisses) && r.u64(stats.diskStores) &&
        r.u64(stats.diskEntries) && r.u64(stats.diskBytes) &&
        r.u64(stats.threads) && r.u64(stats.coverageRequests) &&
        r.u64(stats.simulateRequests) && r.u64(stats.recompiles)))
    return false;
  return r.remaining() == 0;
}

} // namespace mira::server
