// mira-cli: command-line front door to the analysis pipeline.
//
//   mira-cli analyze <file.mc | @workload> [--no-optimize] [--no-vectorize]
//            [--emit-python] [--cache-dir DIR]
//       Run the full pipeline on one source, print a model summary.
//
//   mira-cli batch <files/@workloads...> [--threads N] [--no-cache]
//            [--compare-serial] [--cache-dir DIR] [--cache-limit BYTES]
//            [--manifest FILE [--since OLD] [--shard I/N] [--root DIR]]
//            [--report FILE]
//       Fan many sources across the thread pool; per-source status table,
//       cache statistics, and (with --compare-serial) the wall-clock
//       speedup against a 1-thread run. With --cache-dir, results persist
//       on disk and a rerun over an unchanged corpus recomputes nothing.
//       With --manifest the request list comes from a corpus manifest
//       instead of the command line: --since OLD analyzes only entries
//       added or changed since an older manifest, and --shard I/N keeps
//       only this process's deterministic share of the keys so N
//       processes over one --cache-dir behave like one warm batch.
//       --report writes a deterministic per-entry report for
//       `manifest merge`.
//
//   mira-cli manifest <build|diff|merge> ...
//       build <dir> --out FILE [--ext .mc]...  walk a workload tree into
//           a content-addressed manifest (docs/MANIFESTS.md);
//       diff OLD NEW  report added/changed/removed entries (exit 0 when
//           identical, 1 when they differ, 2 on trouble);
//       merge --out FILE <reports...>  fold per-shard batch reports into
//           the single report a 1-process run would have written.
//
//   mira-cli coverage [sources...] [--threads N] [--compare-serial]
//            [--cache-dir DIR]
//       Without sources, drive the ten Table I kernels plus the
//       fig-series workloads through the artifact engine and print
//       loop-coverage numbers next to the paper's; with sources, print
//       their per-source coverage rows. With --cache-dir a warm run
//       answers entirely from the schema-v2 coverage summaries (zero
//       recompiles, shown in the stats line).
//
//   mira-cli simulate <file.mc|@workload> --function NAME [--sim-arg V]...
//            [--fast-forward] [--max-instructions N] [--cache-dir DIR]
//       Run the dynamic simulator (the TAU/PAPI stand-in) on one source.
//       With a warm cache or daemon the model is never regenerated: the
//       binary comes back through a recompile-on-demand handle
//       (parse->codegen only), flagged in the output.
//
//   mira-cli cache <stats|clear|prune> --cache-dir DIR [--manifest FILE]...
//       Inspect or empty a persistent analysis cache directory. stats
//       breaks bytes down per artifact (model vs coverage vs
//       diagnostics); prune removes entries no given manifest's sources
//       can produce (union over manifests and all option-flag combos).
//
//   mira-cli serve [--socket PATH] [--listen HOST:PORT] [--secret S]
//            [--threads N] [--cache-dir DIR] [--cache-limit BYTES]
//            [--max-inflight N] [--drain-timeout SECONDS]
//            [--metrics-file PATH]
//       Long-lived analysis daemon on a Unix-domain socket and/or a TCP
//       endpoint (--listen, port 0 = kernel-assigned, printed in the
//       readiness line): the in-memory cache stays hot across requests,
//       so repeat analyses cost one socket round-trip instead of a
//       process start plus a cold pipeline. --secret demands a
//       shared-secret Hello handshake before any request is served (a
//       stray port scan triggers no compute). Connections are pipelined
//       (replies in request order); --max-inflight bounds concurrent
//       analyses (excess gets a Busy reply, not an unbounded queue);
//       --metrics-file keeps a Prometheus-style dump fresh on disk.
//       Stops on SIGINT/SIGTERM or a client shutdown, draining
//       in-flight work for up to --drain-timeout seconds.
//
//   mira-cli client <analyze|batch|coverage|simulate|manifest-diff|
//            cache-stats|metrics|ping|shutdown>
//            (--socket PATH | --connect HOST:PORT) [--secret S]
//            [--connect-timeout SECONDS] [--busy-retries N] [args...]
//       Talk to a running daemon over the wire protocol
//       (docs/PROTOCOL.md). `client analyze|batch|coverage|simulate` is
//       the same command as the local one, run by the daemon: same
//       arguments, same tables, tagged "via daemon". Busy refusals are
//       retried with the daemon's backoff hint up to --busy-retries
//       times.
//       `client batch --manifest FILE [--since OLD] [--shard I/N]
//       [--root DIR] [--report FILE] [--progress]` executes a whole
//       corpus on the daemon: report and cache directory come out
//       byte-identical to the local `batch --manifest` run, and
//       --progress streams per-chunk progress lines to stderr.
//       Failure diagnostics are uniform: one `mira-cli client: ...`
//       line on stderr, exit 3 when no daemon answered the socket,
//       exit 4 when the connection died mid-conversation, exit 1 when
//       the daemon or the analysis failed.
//
//   mira-cli coordinate --manifest FILE --workers host:port[,...]
//            [--shard-count N] [--since OLD] [--root DIR] [--report FILE]
//            [--lease-timeout SECONDS] [--connect-timeout SECONDS]
//            [--secret S] [--metrics-file PATH] [--progress]
//       Drive a corpus manifest across a fleet of TCP worker daemons
//       (docs/FLEET.md): shards are handed out as epoch-stamped leases
//       over the ManifestBatch request, progress frames double as
//       heartbeats, a dead or stalled worker's lease is re-issued under
//       a bumped epoch (stale replies are fenced), and the per-shard
//       reports merge into bytes identical to a 1-process local `batch
//       --manifest` run. Exit codes follow the client contract: 0 ok,
//       1 daemon/analysis failure, 3 no worker reachable, 4 the fleet
//       died mid-run.
//
// '@name' pulls an embedded workload (stream, dgemm, minife, fig5,
// listings) instead of reading a file. See docs/CLI.md for a full tour,
// docs/CACHING.md for the on-disk format, and docs/SERVING.md for the
// daemon operator guide.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "fleet/coordinator.h"
#include "model/python_emitter.h"
#include "server/client.h"
#include "server/server.h"
#include "support/socket.h"
#include "support/cache_store.h"
#include "support/string_utils.h"
#include "sema/ast_stats.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace {

using namespace mira;

int usage(const char *argv0) {
  std::fprintf(
      stderr,
      "usage: %s <analyze|batch|coverage|simulate|manifest|cache|serve|"
      "client|coordinate> [args]\n"
      "  analyze <file.mc|@workload> [--no-optimize] [--no-vectorize]\n"
      "          [--emit-python] [--cache-dir DIR]\n"
      "  batch <files/@workloads...> [--threads N] [--no-cache]\n"
      "          [--compare-serial] [--cache-dir DIR] [--cache-limit BYTES]\n"
      "          [--manifest FILE [--since OLD] [--shard I/N] [--root DIR]]\n"
      "          [--report FILE]\n"
      "  coverage [sources...] [--threads N] [--compare-serial]\n"
      "          [--cache-dir DIR]\n"
      "  simulate <file.mc|@workload> --function NAME [--sim-arg V]...\n"
      "          [--fast-forward] [--max-instructions N] [--cache-dir DIR]\n"
      "  manifest build <dir> --out FILE [--ext .mc]...\n"
      "  manifest diff <old.manifest> <new.manifest>\n"
      "  manifest merge --out FILE <reports...>\n"
      "  cache <stats|clear|prune> --cache-dir DIR [--manifest FILE]...\n"
      "  serve [--socket PATH] [--listen HOST:PORT] [--secret S]\n"
      "          [--threads N] [--cache-dir DIR] [--cache-limit BYTES]\n"
      "          [--max-inflight N] [--drain-timeout SECONDS]\n"
      "          [--metrics-file PATH]\n"
      "  client <analyze|batch|coverage|simulate|manifest-diff|cache-stats|\n"
      "          metrics|ping|shutdown> (--socket PATH | --connect HOST:PORT)\n"
      "          [--secret S] [--connect-timeout SECONDS] [--busy-retries N]\n"
      "          [analyze|batch|coverage|simulate arguments as above]\n"
      "  client batch --manifest FILE [--since OLD] [--shard I/N]\n"
      "          [--root DIR] [--report FILE] [--progress] --socket PATH\n"
      "  coordinate --manifest FILE --workers host:port[,host:port...]\n"
      "          [--shard-count N] [--since OLD] [--root DIR] [--report FILE]\n"
      "          [--lease-timeout SECONDS] [--connect-timeout SECONDS]\n"
      "          [--secret S] [--metrics-file PATH] [--progress]\n"
      "          [--no-optimize] [--no-vectorize]\n"
      "workloads: @stream @dgemm @minife @fig5 @listings\n"
      "--cache-limit accepts plain bytes or a K/M/G suffix (e.g. 64M)\n"
      "--sim-arg parses integers (8) and doubles (2.5) positionally\n"
      "--shard I/N is 1-based: processes 1/N .. N/N partition a manifest\n",
      argv0);
  return 2;
}

/// Sentinel a command returns to exit with status 2 ("trouble", the
/// diff/cmp convention) *without* the usage dump main() prints for
/// ordinary argument errors — the command already printed a specific
/// message.
constexpr int kExitTrouble = -3;

const std::string *embeddedWorkload(const std::string &name) {
  for (const auto &workload : workloads::figSeriesWorkloads())
    if (workload.name == name)
      return workload.source;
  return nullptr;
}

/// Resolve a CLI source argument: '@name' -> embedded workload, anything
/// else -> file contents. Returns false (with a message) on failure.
bool loadSource(const std::string &arg, core::AnalysisSpec &spec) {
  if (!arg.empty() && arg[0] == '@') {
    const std::string *source = embeddedWorkload(arg.substr(1));
    if (!source) {
      std::fprintf(stderr, "unknown workload '%s'\n", arg.c_str());
      return false;
    }
    spec.name = arg;
    spec.source = *source;
    return true;
  }
  std::ifstream in(arg);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", arg.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  spec.name = arg;
  spec.source = buffer.str();
  return true;
}

void printModelSummary(const model::PerformanceModel &model) {
  std::printf("%-24s | %6s | %6s | %5s | parameters\n", "function", "counts",
              "calls", "exact");
  for (const auto &fn : model.functions) {
    std::string params;
    for (const auto &p : fn.parameters()) {
      if (!params.empty())
        params += ", ";
      params += p;
    }
    std::printf("%-24s | %6zu | %6zu | %5s | %s\n", fn.sourceName.c_str(),
                fn.counts.size(), fn.calls.size(), fn.exact ? "yes" : "no",
                params.c_str());
  }
}

struct CommonFlags {
  std::size_t threads = ThreadPool::defaultThreadCount();
  bool useCache = true;
  bool compareSerial = false;
  bool optimize = true;
  bool vectorize = true;
  bool emitPython = false;
  std::string cacheDir;
  std::uint64_t cacheBytesLimit = 0;
  std::string socketPath;
  std::size_t maxInflight = 0;  ///< serve --max-inflight (0 = unlimited)
  double drainTimeoutSeconds = 5.0; ///< serve --drain-timeout
  std::string metricsFile;      ///< serve --metrics-file
  std::size_t busyRetries = 8;  ///< client --busy-retries
  core::SimulationArgs sim;     ///< --function / --sim-arg / --fast-forward
  std::string outPath;          ///< `manifest build/merge --out`
  std::vector<std::string> extensions; ///< `manifest build --ext` (repeatable)
  /// batch --manifest (exactly one) / cache prune --manifest
  /// (repeatable: the keep-set is the union).
  std::vector<std::string> manifestPaths;
  std::string sincePath;        ///< batch --since (older manifest)
  std::string rootOverride;     ///< batch --root (resolve base override)
  std::string reportPath;       ///< batch --report (deterministic report)
  driver::ShardSpec shard;      ///< batch --shard I/N (default: unsharded)
  bool shardGiven = false;      ///< --shard appeared (even as 1/1)
  bool progress = false;        ///< client batch --progress (stream frames)
  std::string listenSpec;       ///< serve --listen HOST:PORT (TCP endpoint)
  std::string connectSpec;      ///< client --connect HOST:PORT (TCP daemon)
  std::string secret;           ///< shared-secret handshake (both sides)
  std::string workersSpec;      ///< coordinate --workers h:p,... (repeatable)
  std::size_t shardCount = 0;   ///< coordinate --shard-count (0 = #workers)
  double leaseTimeoutSeconds = 10.0;  ///< coordinate --lease-timeout
  double connectTimeoutSeconds = 5.0; ///< TCP connect bound (client too)
};

/// Parse "1048576", "64K", "64M", "2G" into bytes; false on junk or on
/// values that would overflow 64 bits (a silently wrapped limit would
/// evict a cache the user asked to be effectively unlimited).
bool parseByteSize(const std::string &text, std::uint64_t &bytes) {
  if (text.empty())
    return false;
  std::uint64_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
  case 'K':
  case 'k':
    multiplier = 1024ull;
    digits.pop_back();
    break;
  case 'M':
  case 'm':
    multiplier = 1024ull * 1024;
    digits.pop_back();
    break;
  case 'G':
  case 'g':
    multiplier = 1024ull * 1024 * 1024;
    digits.pop_back();
    break;
  default:
    break;
  }
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long parsed = std::strtoull(digits.c_str(), nullptr, 10);
  if (errno == ERANGE ||
      parsed > std::numeric_limits<std::uint64_t>::max() / multiplier)
    return false;
  bytes = parsed * multiplier;
  return true;
}

/// Consume the numeric value of the flag at args[i], advancing i past it.
/// The whole value must parse as a T: a missing, empty, non-numeric or
/// trailing-garbage value prints a diagnostic and fails, so the command
/// takes the usage exit (2) instead of running with a silently
/// substituted 0.
template <typename T>
bool numericFlag(const std::vector<std::string> &args, std::size_t &i,
                 T &value) {
  const std::string &flag = args[i];
  if (i + 1 == args.size()) {
    std::fprintf(stderr, "%s requires a value\n", flag.c_str());
    return false;
  }
  const std::string &text = args[++i];
  const char *end = text.data() + text.size();
  const auto [parsed, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || parsed != end) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", flag.c_str(),
                 text.c_str());
    return false;
  }
  return true;
}

/// Consume a seconds flag whose value the command converts to a count of
/// milliseconds held in a Millis. Besides numericFlag's checks, the value
/// must be finite and its millisecond count must fit a Millis: a cast
/// from `inf`, `nan` or `1e300` would be undefined. Negative values pass
/// here and clamp to the flag's floor.
template <typename Millis>
bool secondsFlag(const std::vector<std::string> &args, std::size_t &i,
                 double &seconds) {
  if (!numericFlag(args, i, seconds))
    return false;
  constexpr double kMaxMillis = std::numeric_limits<Millis>::max();
  if (std::isfinite(seconds) && seconds * 1000.0 <= kMaxMillis)
    return true;
  std::fprintf(stderr, "%s: invalid value '%s'\n", args[i - 1].c_str(),
               args[i].c_str());
  return false;
}

/// Consume recognized flags from args (in place); leave positionals.
bool parseFlags(std::vector<std::string> &args, CommonFlags &flags) {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string &a = args[i];
    long long integer = 0;
    double real = 0;
    if (a == "--threads") {
      if (!numericFlag(args, i, integer))
        return false;
      flags.threads = static_cast<std::size_t>(std::max(1LL, integer));
    } else if (a == "--cache-dir") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--cache-dir requires a value\n");
        return false;
      }
      flags.cacheDir = args[++i];
    } else if (a == "--socket") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--socket requires a value\n");
        return false;
      }
      flags.socketPath = args[++i];
    } else if (a == "--cache-limit") {
      if (i + 1 == args.size() ||
          !parseByteSize(args[i + 1], flags.cacheBytesLimit)) {
        std::fprintf(stderr,
                     "--cache-limit requires a byte size (e.g. 64M)\n");
        return false;
      }
      ++i;
    } else if (a == "--out") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--out requires a path\n");
        return false;
      }
      flags.outPath = args[++i];
    } else if (a == "--ext") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--ext requires an extension (e.g. .mc)\n");
        return false;
      }
      flags.extensions.push_back(args[++i]);
    } else if (a == "--manifest") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--manifest requires a path\n");
        return false;
      }
      flags.manifestPaths.push_back(args[++i]);
    } else if (a == "--since") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--since requires a manifest path\n");
        return false;
      }
      flags.sincePath = args[++i];
    } else if (a == "--root") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--root requires a directory\n");
        return false;
      }
      flags.rootOverride = args[++i];
    } else if (a == "--report") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--report requires a path\n");
        return false;
      }
      flags.reportPath = args[++i];
    } else if (a == "--shard") {
      if (i + 1 == args.size() ||
          !driver::parseShardSpec(args[i + 1], flags.shard)) {
        std::fprintf(stderr, "--shard requires I/N with 1 <= I <= N\n");
        return false;
      }
      flags.shardGiven = true;
      ++i;
    } else if (a == "--max-inflight") {
      if (!numericFlag(args, i, integer))
        return false;
      flags.maxInflight = static_cast<std::size_t>(std::max(0LL, integer));
    } else if (a == "--drain-timeout") {
      if (!secondsFlag<std::uint32_t>(args, i, real))
        return false;
      flags.drainTimeoutSeconds = std::max(0.0, real);
    } else if (a == "--metrics-file") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--metrics-file requires a path\n");
        return false;
      }
      flags.metricsFile = args[++i];
    } else if (a == "--listen") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--listen requires HOST:PORT\n");
        return false;
      }
      flags.listenSpec = args[++i];
    } else if (a == "--connect") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--connect requires HOST:PORT\n");
        return false;
      }
      flags.connectSpec = args[++i];
    } else if (a == "--secret") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--secret requires a value\n");
        return false;
      }
      flags.secret = args[++i];
    } else if (a == "--workers") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--workers requires host:port[,host:port...]\n");
        return false;
      }
      // Repeatable; occurrences accumulate into one comma-joined list.
      if (!flags.workersSpec.empty())
        flags.workersSpec += ',';
      flags.workersSpec += args[++i];
    } else if (a == "--shard-count") {
      if (!numericFlag(args, i, integer))
        return false;
      flags.shardCount = static_cast<std::size_t>(std::max(0LL, integer));
    } else if (a == "--lease-timeout") {
      if (!secondsFlag<std::uint32_t>(args, i, real))
        return false;
      flags.leaseTimeoutSeconds = std::max(0.05, real);
    } else if (a == "--connect-timeout") {
      if (!secondsFlag<int>(args, i, real))
        return false;
      flags.connectTimeoutSeconds = std::max(0.05, real);
    } else if (a == "--busy-retries") {
      if (!numericFlag(args, i, integer))
        return false;
      flags.busyRetries = static_cast<std::size_t>(std::max(0LL, integer));
    } else if (a == "--function") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--function requires a name\n");
        return false;
      }
      flags.sim.function = args[++i];
    } else if (a == "--sim-arg") {
      // Positional type: a value spelled with '.', 'e' or 'E' is a
      // double, anything else an integer.
      if (i + 1 < args.size() &&
          args[i + 1].find_first_of(".eE") != std::string::npos) {
        if (!numericFlag(args, i, real))
          return false;
        flags.sim.args.push_back(sim::Value::ofDouble(real));
      } else {
        if (!numericFlag(args, i, integer))
          return false;
        flags.sim.args.push_back(sim::Value::ofInt(integer));
      }
    } else if (a == "--max-instructions") {
      if (!numericFlag(args, i, integer))
        return false;
      flags.sim.options.maxInstructions =
          static_cast<std::uint64_t>(std::max(1LL, integer));
    } else if (a == "--fast-forward") {
      flags.sim.options.fastForward = true;
    } else if (a == "--progress") {
      flags.progress = true;
    } else if (a == "--no-cache") {
      flags.useCache = false;
    } else if (a == "--compare-serial") {
      flags.compareSerial = true;
    } else if (a == "--no-optimize") {
      flags.optimize = false;
    } else if (a == "--no-vectorize") {
      flags.vectorize = false;
    } else if (a == "--emit-python") {
      flags.emitPython = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return false;
    } else {
      positional.push_back(a);
    }
  }
  args = std::move(positional);
  return true;
}

core::MiraOptions optionsFor(const CommonFlags &flags) {
  core::MiraOptions options;
  options.compile.compiler.optimize = flags.optimize;
  options.compile.compiler.vectorize = flags.vectorize;
  return options;
}

driver::BatchOptions batchOptionsFor(const CommonFlags &flags,
                                     std::size_t threads,
                                     bool withDiskCache = true) {
  driver::BatchOptions options;
  options.threads = threads;
  options.useCache = flags.useCache;
  if (withDiskCache)
    options.cacheDir = flags.cacheDir;
  options.cacheBytesLimit = flags.cacheBytesLimit;
  return options;
}

/// The spec for one positional source: pipeline options from the flags,
/// artifacts from the command. False (with a message) when the source
/// cannot be read.
bool sourceSpec(const std::string &arg, const CommonFlags &flags,
                core::ArtifactMask artifacts, core::AnalysisSpec &spec) {
  if (!loadSource(arg, spec))
    return false;
  spec.options = optionsFor(flags);
  spec.artifacts = artifacts;
  return true;
}

// --------------------------------------------------------- manifests

/// Slurp a file's raw bytes (manifest and report files are binary;
/// loadSource is for sources and knows '@' workloads).
bool readFileBytes(const std::string &path, std::string &bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  bytes.assign((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
  return true;
}

/// Counterpart writer, shared by `manifest merge` and `batch --report`.
bool writeFileBytes(const std::string &path, const std::string &bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Print one diff listing — shared verbatim by the local `manifest
/// diff` and the daemon-backed `client manifest-diff` so CI can compare
/// the two outputs line for line. Returns the differing-path count.
std::size_t
printManifestDiff(const std::vector<corpus::ManifestEntry> &added,
                  const std::vector<corpus::ManifestEntry> &changed,
                  const std::vector<std::string> &removed) {
  for (const auto &entry : added)
    std::printf("added     %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &entry : changed)
    std::printf("changed   %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &path : removed)
    std::printf("removed   %s\n", path.c_str());
  std::printf("manifest diff: %zu added, %zu changed, %zu removed\n",
              added.size(), changed.size(), removed.size());
  return added.size() + changed.size() + removed.size();
}

/// Summary block of a (merged) batch report. Timing is absent by
/// design: reports are deterministic (driver::serializeBatchReport).
void printReportSummary(const driver::BatchReport &report) {
  const driver::BatchStats &stats = report.stats;
  std::printf("report: %zu entries, %zu failures, cache %zu hit / "
              "%zu miss\n",
              report.entries.size(), stats.failures, stats.cacheHits,
              stats.cacheMisses);
  if (stats.diskHits + stats.diskMisses + stats.diskStores > 0)
    std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                stats.diskHits, stats.diskMisses, stats.diskStores);
}

/// One `name | status | key` row per report entry, then the summary
/// block: the stdout of a report that came back whole from elsewhere
/// (a daemon's manifest batch, a fleet's merged shards).
void printReportEntries(const driver::BatchReport &report) {
  for (const auto &entry : report.entries)
    std::printf("%-24s | %-6s | %016llx\n", entry.name.c_str(),
                entry.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(entry.key));
  printReportSummary(report);
}

int cmdManifest(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.empty())
    return 2;
  const std::string action = args[0];
  args.erase(args.begin());
  std::string error;

  if (action == "build") {
    if (args.size() != 1)
      return 2;
    if (flags.outPath.empty()) {
      std::fprintf(stderr, "manifest build requires --out FILE\n");
      return 2;
    }
    corpus::Manifest manifest;
    const std::vector<std::string> extensions =
        flags.extensions.empty() ? std::vector<std::string>{".mc"}
                                 : flags.extensions;
    if (!corpus::buildManifest(args[0], manifest, error, extensions)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!corpus::writeManifestFile(flags.outPath, manifest, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::uint64_t totalBytes = 0;
    for (const auto &entry : manifest.entries)
      totalBytes += entry.size;
    std::printf("manifest: %zu entries under '%s' (%llu source bytes) -> "
                "%s\n",
                manifest.entries.size(), manifest.root.c_str(),
                static_cast<unsigned long long>(totalBytes),
                flags.outPath.c_str());
    return 0;
  }

  if (action == "diff") {
    if (args.size() != 2)
      return 2;
    corpus::Manifest oldManifest, newManifest;
    if (!corpus::loadManifestFile(args[0], oldManifest, error) ||
        !corpus::loadManifestFile(args[1], newManifest, error)) {
      // The full diff/cmp convention: 0 = identical, 1 = differences,
      // 2 = trouble — so automation gating on exit 1 can never pass
      // vacuously off an unreadable manifest.
      std::fprintf(stderr, "%s\n", error.c_str());
      return kExitTrouble;
    }
    const corpus::ManifestDiff diff =
        corpus::diffManifests(oldManifest, newManifest);
    return printManifestDiff(diff.added, diff.changed, diff.removed) == 0
               ? 0
               : 1;
  }

  if (action == "merge") {
    if (args.empty())
      return 2;
    if (flags.outPath.empty()) {
      std::fprintf(stderr, "manifest merge requires --out FILE\n");
      return 2;
    }
    std::vector<driver::BatchReport> parts;
    for (const auto &path : args) {
      std::string bytes;
      if (!readFileBytes(path, bytes))
        return 1;
      driver::BatchReport part;
      if (!driver::deserializeBatchReport(bytes, part, error)) {
        std::fprintf(stderr, "'%s': %s\n", path.c_str(), error.c_str());
        return 1;
      }
      parts.push_back(std::move(part));
    }
    const driver::BatchReport merged = driver::mergeBatchReports(parts);
    if (!writeFileBytes(flags.outPath, driver::serializeBatchReport(merged)))
      return 1;
    printReportSummary(merged);
    std::printf("merged %zu shard reports -> %s\n", parts.size(),
                flags.outPath.c_str());
    return merged.stats.failures == 0 ? 0 : 1;
  }

  std::fprintf(stderr, "unknown manifest action '%s'\n", action.c_str());
  return 2;
}

// ----------------------------------------------------------- backends

/// Unified `mira-cli client` failure diagnostic: every daemon
/// conversation that fails prints one `mira-cli client: <reason>` line
/// to stderr, and the exit status tells scripts which class of failure
/// it was without parsing that text: 3 = could not connect (no daemon
/// there), 4 = the connection died or broke protocol mid-conversation,
/// 1 = the daemon (or the analysis itself) refused or failed.
/// tests/server_test.cpp pins both the format and the codes.
int clientFailure(const server::Client &client) {
  std::fprintf(stderr, "mira-cli client: %s\n", client.lastError().c_str());
  switch (client.lastErrorKind()) {
  case server::Client::ErrorKind::connect:
    return 3;
  case server::Client::ErrorKind::transport:
  case server::Client::ErrorKind::protocol:
    return 4;
  default:
    return 1;
  }
}

int requireClientConnection(server::Client &client,
                            const CommonFlags &flags) {
  if (flags.socketPath.empty() && flags.connectSpec.empty()) {
    std::fprintf(stderr,
                 "client requires --socket PATH or --connect HOST:PORT\n");
    return 2;
  }
  if (!flags.socketPath.empty() && !flags.connectSpec.empty()) {
    std::fprintf(stderr, "--socket and --connect are mutually exclusive\n");
    return 2;
  }
  client.setConnectTimeoutMillis(
      static_cast<int>(flags.connectTimeoutSeconds * 1000.0));
  client.setSecret(flags.secret);
  if (!flags.connectSpec.empty()) {
    std::string host, parseError;
    std::uint16_t port = 0;
    if (!net::parseHostPort(flags.connectSpec, host, port, parseError)) {
      std::fprintf(stderr, "--connect: %s\n", parseError.c_str());
      return 2;
    }
    if (!client.connectTcp(host, port))
      return clientFailure(client);
    return 0;
  }
  if (!client.connect(flags.socketPath))
    return clientFailure(client);
  return 0;
}

/// The daemon endpoint the flags name, for messages.
const std::string &endpointOf(const CommonFlags &flags) {
  return flags.socketPath.empty() ? flags.connectSpec : flags.socketPath;
}

/// Where an analysis command's specs are fulfilled: in this process or
/// on a daemon. `X ...` and `client X ...` run the same command function,
/// which validates its arguments, builds its specs and prints; a backend
/// only turns specs into core::Artifacts and prints what only it knows,
/// the totals under a status table. Methods returning int give 0 or the
/// exit status of a failure they already reported.
class Backend {
public:
  /// " via daemon" on the remote backend, empty in-process.
  virtual const char *tag() const = 0;
  /// One spec as one request.
  virtual int one(const core::AnalysisSpec &spec,
                  core::Artifacts &result) = 0;
  /// A table's worth of specs; results come back in spec order.
  virtual int many(const std::vector<core::AnalysisSpec> &specs,
                   std::vector<core::Artifacts> &results) = 0;
  /// `batch --manifest FILE`: plan and run a whole corpus manifest.
  virtual int manifestBatch() = 0;
  /// The totals line(s) under a status table; `artifactRun` marks a
  /// coverage/simulate run.
  virtual void printTotals(const std::vector<core::Artifacts> &results,
                           bool artifactRun) = 0;

protected:
  ~Backend() = default;
};

/// Print the per-source status table, with a recompile column for
/// coverage/simulate runs, then the backend's totals. True when every
/// source succeeded.
bool printOutcomes(const std::vector<core::Artifacts> &results,
                   Backend &backend, bool artifactRun) {
  std::printf("%-24s | %-6s | %-5s | ", "source", "status", "cache");
  if (artifactRun)
    std::printf("%-9s | ", "recompile");
  std::printf("%9s\n", "seconds");
  bool allOk = true;
  for (const core::Artifacts &artifacts : results) {
    allOk = allOk && artifacts.ok;
    std::printf("%-24s | %-6s | %-5s | ", artifacts.name.c_str(),
                artifacts.ok ? "ok" : "FAILED",
                artifacts.cacheHit ? "hit" : "miss");
    if (artifactRun)
      std::printf("%-9s | ", artifacts.recompiled ? "yes" : "no");
    std::printf("%9.4f\n", artifacts.seconds);
    if (!artifacts.ok)
      std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  }
  backend.printTotals(results, artifactRun);
  return allOk;
}

/// In-process: a fresh driver::BatchAnalyzer per run, configured by the
/// flags (--threads, --cache-dir, --cache-limit, ...).
class LocalBackend final : public Backend {
public:
  explicit LocalBackend(const CommonFlags &flags) : flags_(flags) {}

  const char *tag() const override { return ""; }

  int one(const core::AnalysisSpec &spec, core::Artifacts &result) override {
    // One request: the batch pool is a single thread. The cache only
    // matters as the disk level, and --no-cache still wins over
    // --cache-dir.
    driver::BatchOptions options = batchOptionsFor(flags_, 1);
    options.useCache = flags_.useCache && !flags_.cacheDir.empty();
    result = driver::BatchAnalyzer(options).analyzeArtifacts(spec);
    return 0;
  }

  int many(const std::vector<core::AnalysisSpec> &specs,
           std::vector<core::Artifacts> &results) override {
    driver::BatchAnalyzer analyzer(batchOptionsFor(flags_, flags_.threads));
    results = analyzer.runArtifacts(specs);
    stats_ = analyzer.stats();
    if (flags_.compareSerial) {
      // The serial reference run skips the disk cache: it would otherwise
      // be warmed by the parallel run above and win every comparison.
      driver::BatchAnalyzer serial(batchOptionsFor(flags_, 1, false));
      serial.runArtifacts(specs);
      serialSeconds_ = serial.stats().wallSeconds;
    }
    return 0;
  }

  int manifestBatch() override;

  void printTotals(const std::vector<core::Artifacts> &,
                   bool artifactRun) override {
    std::printf("%zu sources, %zu failures, cache %zu hit / %zu miss, "
                "%.4f s on %zu threads\n",
                stats_.requests, stats_.failures, stats_.cacheHits,
                stats_.cacheMisses, stats_.wallSeconds, flags_.threads);
    if (artifactRun)
      std::printf("artifacts: %zu coverage (%zu from cached summaries), "
                  "%zu simulations, %zu recompiles\n",
                  stats_.coverageArtifacts, stats_.coverageFromCache,
                  stats_.simulationArtifacts, stats_.recompiles);
    if (stats_.diskHits + stats_.diskMisses + stats_.diskStores > 0)
      std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                  stats_.diskHits, stats_.diskMisses, stats_.diskStores);
    if (flags_.compareSerial && stats_.failures == 0)
      std::printf("serial %.4f s -> parallel %.4f s on %zu threads: %.2fx "
                  "speedup\n",
                  serialSeconds_, stats_.wallSeconds, flags_.threads,
                  serialSeconds_ / stats_.wallSeconds);
  }

private:
  const CommonFlags &flags_;
  driver::BatchStats stats_;  ///< of the last many()
  double serialSeconds_ = 0;  ///< --compare-serial reference wall time
};

/// The one conversion from a daemon reply into core::Artifacts. An
/// analyze/batch outcome carries the model (aliased into its decoded
/// AnalysisResult) and any coverage summary; Coverage and Simulate
/// replies carry their one artifact and the recompile flag.
template <typename Reply>
core::Artifacts fromReply(const core::AnalysisSpec &spec,
                          const Reply &reply) {
  core::Artifacts artifacts;
  artifacts.name = spec.name;
  artifacts.ok = reply.ok;
  artifacts.cacheHit = reply.cacheHit;
  artifacts.diagnostics = reply.diagnostics;
  artifacts.seconds = static_cast<double>(reply.micros) / 1e6;
  if constexpr (std::is_same_v<Reply, server::ClientOutcome>) {
    if (reply.analysis)
      artifacts.model = std::shared_ptr<const model::PerformanceModel>(
          reply.analysis, &reply.analysis->model);
    artifacts.coverage = reply.coverage;
  } else if constexpr (std::is_same_v<Reply, server::CoverageReply>) {
    artifacts.recompiled = reply.recompiled;
    if (reply.ok)
      artifacts.coverage = reply.coverage;
  } else {
    artifacts.recompiled = reply.recompiled;
    if (reply.ok)
      artifacts.simulation =
          std::make_shared<const sim::SimResult>(reply.result);
  }
  return artifacts;
}

/// A daemon over the wire protocol. It connects on first use through
/// requireClientConnection, so every remote run honors --socket or
/// --connect, --secret, --connect-timeout, --busy-retries and the
/// client exit contract (0/1/3/4). Each spec travels as the request of
/// its kind: Analyze, Coverage or Simulate; a model table as one Batch.
class RemoteBackend final : public Backend {
public:
  explicit RemoteBackend(const CommonFlags &flags) : flags_(flags) {
    client_.setBusyRetries(flags.busyRetries);
  }

  const char *tag() const override { return " via daemon"; }

  int one(const core::AnalysisSpec &spec, core::Artifacts &result) override {
    if (int rc = connect())
      return rc;
    bool answered = false;
    if (spec.artifacts & core::kArtifactSimulation) {
      server::SimulateReply reply;
      answered = client_.simulate(spec.name, spec.source, spec.options,
                                  spec.simulation, reply);
      result = fromReply(spec, reply);
    } else if (spec.artifacts & core::kArtifactCoverage) {
      server::CoverageReply reply;
      answered =
          client_.coverage(spec.name, spec.source, spec.options, reply);
      result = fromReply(spec, reply);
    } else {
      server::ClientOutcome outcome;
      answered =
          client_.analyze(spec.name, spec.source, spec.options, outcome);
      result = fromReply(spec, outcome);
    }
    return answered ? 0 : clientFailure(client_);
  }

  int many(const std::vector<core::AnalysisSpec> &specs,
           std::vector<core::Artifacts> &results) override {
    results.resize(specs.size());
    // The protocol batches only model requests; coverage goes one
    // Coverage request per source.
    if (specs.front().artifacts & core::kArtifactCoverage) {
      for (std::size_t i = 0; i < specs.size(); ++i)
        if (int rc = one(specs[i], results[i]))
          return rc;
      return 0;
    }
    std::vector<server::SourceItem> items;
    items.reserve(specs.size());
    for (const core::AnalysisSpec &spec : specs)
      items.push_back({spec.name, spec.source});
    if (int rc = connect())
      return rc;
    std::vector<server::ClientOutcome> outcomes;
    if (!client_.analyzeBatch(items, specs.front().options, outcomes))
      return clientFailure(client_);
    for (std::size_t i = 0; i < specs.size(); ++i)
      results[i] = fromReply(specs[i], outcomes[i]);
    return 0;
  }

  int manifestBatch() override;

  void printTotals(const std::vector<core::Artifacts> &results,
                   bool) override {
    std::size_t hits = 0, recompiles = 0;
    for (const core::Artifacts &artifacts : results) {
      hits += artifacts.cacheHit ? 1 : 0;
      recompiles += artifacts.recompiled ? 1 : 0;
    }
    std::printf("%zu sources via daemon at %s: %zu cache hits, "
                "%zu recompiles\n",
                results.size(), endpointOf(flags_).c_str(), hits,
                recompiles);
  }

private:
  int connect() {
    return client_.connected() ? 0 : requireClientConnection(client_, flags_);
  }

  const CommonFlags &flags_;
  server::Client client_;
};

/// `batch --manifest`: the request list comes from a corpus manifest —
/// optionally only what changed since an older one, optionally only
/// this process's deterministic shard of the keys.
int LocalBackend::manifestBatch() {
  std::string error;
  corpus::Manifest manifest;
  if (!corpus::loadManifestFile(flags_.manifestPaths[0], manifest, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  corpus::Manifest old;
  const bool haveSince = !flags_.sincePath.empty();
  if (haveSince && !corpus::loadManifestFile(flags_.sincePath, old, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // Diff, merge, and shard via the one selection routine the daemon's
  // manifestBatch handler uses too, so both paths pick the same entries
  // in the same (manifest path) order.
  const core::MiraOptions options = optionsFor(flags_);
  const driver::ManifestSelection selection = driver::selectManifestEntries(
      manifest, haveSince ? &old : nullptr, options, flags_.shard);
  const std::vector<corpus::ManifestEntry> &mine = selection.entries;

  const std::string root =
      flags_.rootOverride.empty() ? manifest.root : flags_.rootOverride;
  std::vector<core::AnalysisSpec> specs;
  specs.reserve(mine.size());
  for (const auto &entry : mine) {
    core::AnalysisSpec spec;
    const std::string path =
        (std::filesystem::path(root) / entry.path).string();
    if (!sourceSpec(path, flags_, core::kArtifactDefault, spec))
      return 1;
    spec.name = entry.path; // table/report identity = manifest path
    specs.push_back(std::move(spec));
  }

  std::vector<core::Artifacts> outcomes;
  many(specs, outcomes);
  const bool allOk = printOutcomes(outcomes, *this, false);
  std::printf("manifest: %zu of %zu entries selected", mine.size(),
              manifest.entries.size());
  if (haveSince)
    std::printf(" (%zu added, %zu changed, %zu removed skipped)",
                selection.added, selection.changed, selection.removed);
  if (flags_.shard.count > 1)
    std::printf(" [shard %zu/%zu]", flags_.shard.index + 1,
                flags_.shard.count);
  std::printf("\n");

  if (!flags_.reportPath.empty()) {
    driver::BatchReport report;
    report.stats = stats_;
    report.entries.reserve(outcomes.size());
    // Report keys come from the manifest hash (already computed for the
    // shard filter), not a second rehash of the source bytes — so they
    // always agree with what planning tools and `cache prune` derive.
    for (std::size_t i = 0; i < outcomes.size(); ++i)
      report.entries.push_back(
          {outcomes[i].name,
           driver::requestKeyFromContentHash(mine[i].contentHash, options),
           outcomes[i].ok});
    if (!writeFileBytes(flags_.reportPath,
                        driver::serializeBatchReport(report)))
      return 1;
  }
  return allOk ? 0 : 1;
}

/// `client batch --manifest`: the daemon executes the whole corpus and
/// answers one deterministic report — byte-identical (report and cache
/// dir) to a local `mira-cli batch --manifest` over the same manifest,
/// options, and cache directory.
int RemoteBackend::manifestBatch() {
  std::string manifestBytes, sinceBytes;
  if (!readFileBytes(flags_.manifestPaths[0], manifestBytes))
    return 1;
  if (!flags_.sincePath.empty() && !readFileBytes(flags_.sincePath, sinceBytes))
    return 1;
  if (int rc = connect())
    return rc;
  server::Client::ProgressFn onProgress;
  if (flags_.progress)
    onProgress = [](const server::BatchProgress &p) {
      // Progress is operator feedback, not results: stderr, so
      // stdout stays byte-comparable with and without --progress.
      std::fprintf(stderr,
                   "progress: %u/%u analyzed, %u failures, "
                   "%u cache hits\n",
                   p.done, p.total, p.failures, p.cacheHits);
    };
  std::string reportBytes;
  if (!client_.manifestBatch(manifestBytes, sinceBytes, flags_.rootOverride,
                             flags_.shard, optionsFor(flags_), onProgress,
                             reportBytes))
    return clientFailure(client_);
  driver::BatchReport report;
  std::string error;
  if (!driver::deserializeBatchReport(reportBytes, report, error)) {
    std::fprintf(stderr, "mira-cli client: malformed report from "
                         "daemon: %s\n",
                 error.c_str());
    return 4;
  }
  std::printf("%-24s | %-6s | %16s\n", "source", "status", "key");
  printReportEntries(report);
  // The daemon's report bytes go to disk untouched: `manifest
  // merge` and byte-comparisons see exactly what a local shard
  // run would have written.
  if (!flags_.reportPath.empty() &&
      !writeFileBytes(flags_.reportPath, reportBytes))
    return 1;
  return report.stats.failures == 0 ? 0 : 1;
}

// -------------------------------------------------- analysis commands
//
// One function per analysis command, shared by `X ...` (LocalBackend)
// and `client X ...` (RemoteBackend): the two spellings parse, validate
// and print identically.

int cmdAnalyze(const CommonFlags &flags, const std::vector<std::string> &args,
               Backend &backend) {
  if (args.size() != 1) {
    std::fprintf(stderr, "analyze takes exactly one source\n");
    return 2;
  }
  core::AnalysisSpec spec;
  if (!sourceSpec(args[0], flags, core::kArtifactDefault, spec))
    return 1;
  core::Artifacts artifacts;
  if (int rc = backend.one(spec, artifacts))
    return rc;
  if (!artifacts.ok) {
    std::fprintf(stderr, "analysis of %s failed:\n%s\n",
                 artifacts.name.c_str(), artifacts.diagnostics.c_str());
    return 1;
  }
  if (!artifacts.diagnostics.empty())
    std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  std::printf("analyzed %s%s in %.4f s (%s)\n", artifacts.name.c_str(),
              backend.tag(), artifacts.seconds,
              artifacts.cacheHit ? "cache hit" : "computed");
  printModelSummary(*artifacts.model);
  if (flags.emitPython) {
    std::puts("");
    std::puts(model::emitPython(*artifacts.model).c_str());
  }
  return 0;
}

int cmdBatch(const CommonFlags &flags, const std::vector<std::string> &args,
             Backend &backend) {
  if (!flags.manifestPaths.empty()) {
    if (!args.empty()) {
      std::fprintf(stderr, "batch --manifest takes no positional sources\n");
      return 2;
    }
    if (flags.manifestPaths.size() > 1) {
      std::fprintf(stderr, "batch takes exactly one --manifest\n");
      return 2;
    }
    return backend.manifestBatch();
  }
  if (!flags.reportPath.empty() || !flags.sincePath.empty() ||
      !flags.rootOverride.empty() || flags.shardGiven) {
    std::fprintf(stderr,
                 "--report/--since/--shard/--root require --manifest FILE\n");
    return 2;
  }
  if (args.empty()) {
    std::fprintf(stderr, "batch needs at least one source\n");
    return 2;
  }
  std::vector<core::AnalysisSpec> specs(args.size());
  for (std::size_t i = 0; i < args.size(); ++i)
    if (!sourceSpec(args[i], flags, core::kArtifactDefault, specs[i]))
      return 1;
  std::vector<core::Artifacts> results;
  if (int rc = backend.many(specs, results))
    return rc;
  return printOutcomes(results, backend, false) ? 0 : 1;
}

constexpr core::ArtifactMask kCoverageArtifacts =
    core::kArtifactCoverage | core::kArtifactDiagnostics;

/// The Table I kernels then the fig-series workloads, as coverage specs.
std::vector<core::AnalysisSpec> coverageSuiteSpecs(const CommonFlags &flags) {
  std::vector<core::AnalysisSpec> specs;
  const auto add = [&](std::string name, std::string source) {
    core::AnalysisSpec spec;
    spec.name = std::move(name);
    spec.source = std::move(source);
    spec.options = optionsFor(flags);
    spec.artifacts = kCoverageArtifacts;
    specs.push_back(std::move(spec));
  };
  for (const auto &kernel : workloads::coverageSuite())
    add(kernel.name, kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    add("@" + workload.name, *workload.source);
  return specs;
}

/// Print the Table I comparison for the first suite.size() results.
void printCoverageTable(const std::vector<core::Artifacts> &results) {
  std::printf("%-10s | %14s | %14s | %14s | %9s\n", "app", "loops p/o",
              "stmts p/o", "in-loop p/o", "pct p/o");
  const auto &suite = workloads::coverageSuite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto &kernel = suite[i];
    if (!results[i].coverage) {
      std::printf("%-10s | analysis FAILED\n", kernel.name.c_str());
      continue;
    }
    const sema::LoopCoverage &coverage = *results[i].coverage;
    std::printf("%-10s | %6zu/%-7zu | %6zu/%-7zu | %6zu/%-7zu | %3d/%-5.0f\n",
                kernel.name.c_str(), kernel.paperLoops, coverage.loops,
                kernel.paperStatements, coverage.statements,
                kernel.paperInLoop, coverage.inLoopStatements,
                kernel.paperPercent, coverage.percent());
  }
  std::printf("\n");
}

/// Per-source coverage rows for `coverage <sources...>`; true when every
/// source produced a summary.
bool printCoverageRows(const std::vector<core::Artifacts> &results) {
  bool allOk = true;
  std::printf("%-24s | %6s | %6s | %8s | %4s | %-5s | %-9s\n", "source",
              "loops", "stmts", "in-loop", "pct", "cache", "recompile");
  for (const core::Artifacts &artifacts : results) {
    if (!artifacts.ok || !artifacts.coverage) {
      allOk = false;
      std::printf("%-24s | analysis FAILED\n", artifacts.name.c_str());
      std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
      continue;
    }
    const sema::LoopCoverage &coverage = *artifacts.coverage;
    std::printf("%-24s | %6zu | %6zu | %8zu | %3.0f%% | %-5s | %-9s\n",
                artifacts.name.c_str(), coverage.loops, coverage.statements,
                coverage.inLoopStatements, coverage.percent(),
                artifacts.cacheHit ? "hit" : "miss",
                artifacts.recompiled ? "yes" : "no");
  }
  return allOk;
}

int cmdCoverage(const CommonFlags &flags,
                const std::vector<std::string> &args, Backend &backend) {
  std::vector<core::AnalysisSpec> specs;
  if (args.empty()) {
    specs = coverageSuiteSpecs(flags);
  } else {
    specs.resize(args.size());
    for (std::size_t i = 0; i < args.size(); ++i)
      if (!sourceSpec(args[i], flags, kCoverageArtifacts, specs[i]))
        return 1;
  }
  // One artifact run serves the table(s) below. With --cache-dir (or a
  // warm daemon) a rerun answers every summary from the schema-v2
  // cache: zero recompiles, zero model generation.
  std::vector<core::Artifacts> results;
  if (int rc = backend.many(specs, results))
    return rc;
  if (args.empty()) {
    printCoverageTable(results);
    return printOutcomes(results, backend, true) ? 0 : 1;
  }
  const bool allOk = printCoverageRows(results);
  backend.printTotals(results, true);
  return allOk ? 0 : 1;
}

/// Counter block of a simulation, printed the same way on both
/// backends so CI can diff the two outputs line for line.
void printSimResult(const sim::SimResult &result) {
  if (!result.ok) {
    std::printf("simulation FAILED: %s\n", result.error.c_str());
    return;
  }
  std::printf("return value        : int %lld, double %g\n",
              static_cast<long long>(result.returnValue.i),
              result.returnValue.f);
  std::printf("total instructions  : %llu\n",
              static_cast<unsigned long long>(result.total.totalInstructions));
  std::printf("fp instructions     : %llu\n",
              static_cast<unsigned long long>(result.total.fpInstructions));
  std::printf("flops               : %llu\n",
              static_cast<unsigned long long>(result.total.flops));
  std::printf("%-24s | %8s | %12s | %10s\n", "function", "calls",
              "instructions", "fp");
  for (const auto &entry : result.functions)
    std::printf("%-24s | %8llu | %12llu | %10llu\n", entry.first.c_str(),
                static_cast<unsigned long long>(entry.second.calls),
                static_cast<unsigned long long>(
                    entry.second.inclusive.totalInstructions),
                static_cast<unsigned long long>(
                    entry.second.inclusive.fpInstructions));
  if (!result.printed.empty()) {
    std::printf("printed             :");
    for (double value : result.printed)
      std::printf(" %g", value);
    std::printf("\n");
  }
}

int cmdSimulate(const CommonFlags &flags,
                const std::vector<std::string> &args, Backend &backend) {
  if (args.size() != 1) {
    std::fprintf(stderr, "simulate takes exactly one source\n");
    return 2;
  }
  if (flags.sim.function.empty()) {
    std::fprintf(stderr, "simulate requires --function NAME\n");
    return 2;
  }
  core::AnalysisSpec spec;
  if (!sourceSpec(args[0], flags,
                  core::kArtifactSimulation | core::kArtifactDiagnostics,
                  spec))
    return 1;
  spec.simulation = flags.sim;
  core::Artifacts artifacts;
  if (int rc = backend.one(spec, artifacts))
    return rc;
  if (!artifacts.ok || !artifacts.simulation) {
    std::fprintf(stderr, "simulate of %s failed:\n%s\n",
                 artifacts.name.c_str(), artifacts.diagnostics.c_str());
    return 1;
  }
  if (!artifacts.diagnostics.empty())
    std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  std::printf("simulated %s:%s%s in %.4f s (%s%s)\n", artifacts.name.c_str(),
              flags.sim.function.c_str(), backend.tag(), artifacts.seconds,
              artifacts.cacheHit ? "cache hit" : "computed",
              artifacts.recompiled ? ", recompiled" : "");
  printSimResult(*artifacts.simulation);
  return artifacts.simulation->ok ? 0 : 1;
}

/// An analysis command: one function serves `X ...` in-process and
/// `client X ...` against a daemon.
using AnalysisCommand = int (*)(const CommonFlags &,
                                const std::vector<std::string> &, Backend &);

AnalysisCommand analysisCommand(const std::string &name) {
  if (name == "analyze")
    return cmdAnalyze;
  if (name == "batch")
    return cmdBatch;
  if (name == "coverage")
    return cmdCoverage;
  if (name == "simulate")
    return cmdSimulate;
  return nullptr;
}

int runLocal(AnalysisCommand command, std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags))
    return 2;
  LocalBackend backend(flags);
  return command(flags, args, backend);
}

int cmdCache(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  if (flags.cacheDir.empty()) {
    std::fprintf(stderr, "cache requires --cache-dir\n");
    return 2;
  }
  // Opening a CacheStore creates the directory; an inspection command
  // must not conjure an empty cache out of a typo'd path and report
  // "0 entries removed" as success.
  std::error_code ec;
  if (!std::filesystem::is_directory(flags.cacheDir, ec)) {
    std::fprintf(stderr, "no cache directory at '%s'\n",
                 flags.cacheDir.c_str());
    return 1;
  }
  CacheStore store(flags.cacheDir, flags.cacheBytesLimit);
  if (!store.usable()) {
    std::fprintf(stderr, "cannot open cache directory '%s'\n",
                 flags.cacheDir.c_str());
    return 1;
  }
  if (args[0] == "stats") {
    // Raw counts stay first on each line (scripts parse them); the
    // human-readable size rides along in parentheses. Field meanings
    // are documented in docs/CACHING.md, "Observability".
    std::printf("cache directory : %s\n", store.directory().c_str());
    std::size_t entries = 0;
    std::uint64_t total = 0;
    store.usage(entries, total);
    std::printf("entries         : %zu\n", entries);
    std::printf("total bytes     : %llu (%s)\n",
                static_cast<unsigned long long>(total),
                formatBytes(total).c_str());
    if (store.bytesLimit() != 0)
      std::printf("byte limit      : %llu (%s)\n",
                  static_cast<unsigned long long>(store.bytesLimit()),
                  formatBytes(store.bytesLimit()).c_str());
    else
      std::printf("byte limit      : unlimited\n");
    std::printf("schema version  : %u\n", kCacheSchemaVersion);

    // Per-artifact byte breakdown: walk every entry (peek: no LRU
    // bump) and split its payload into the sections of the schema-v2
    // layout (docs/CACHING.md, "Entry format"). Programs are never
    // stored — they come back through recompile-on-demand handles —
    // so their column is identically zero by design.
    std::size_t readable = 0, failureEntries = 0;
    std::uint64_t modelBytes = 0, coverageBytes = 0, diagnosticsBytes = 0;
    for (std::uint64_t key : store.keys()) {
      std::uint32_t version = 0;
      auto payload = store.peek(key, version);
      if (!payload)
        continue; // other schema version, or raced with a writer
      ++readable;
      driver::ArtifactPayloadHead head;
      if (!driver::readArtifactPayloadHead(*payload, head))
        continue;
      diagnosticsBytes += head.diagnostics.size();
      if (!head.ok) {
        ++failureEntries;
        continue;
      }
      coverageBytes += head.modelOffset - head.coverageOffset;
      modelBytes += payload->size() - head.modelOffset;
    }
    std::printf("readable entries  : %zu (%zu cached failures)\n", readable,
                failureEntries);
    std::printf("model bytes       : %llu (%s)\n",
                static_cast<unsigned long long>(modelBytes),
                formatBytes(modelBytes).c_str());
    std::printf("coverage bytes    : %llu (%s)\n",
                static_cast<unsigned long long>(coverageBytes),
                formatBytes(coverageBytes).c_str());
    std::printf("program bytes     : 0 (recompile-on-demand; never "
                "stored)\n");
    std::printf("diagnostics bytes : %llu (%s)\n",
                static_cast<unsigned long long>(diagnosticsBytes),
                formatBytes(diagnosticsBytes).c_str());
    return 0;
  }
  if (args[0] == "prune") {
    // Garbage-collect: drop every entry no manifest source still
    // produces. The manifest hash seeds the cache key
    // (driver::requestKeyFromContentHash), so no source bytes are
    // read. The keep-set is deliberately conservative: the union over
    // every given --manifest (repeatable) and every combination of the
    // wire-visible option flags, so a directory serving several
    // configurations of the same corpus survives one prune intact.
    // Entries keyed with a non-default arch (API callers only — the
    // CLI cannot set one) are not protected (docs/MANIFESTS.md).
    if (flags.manifestPaths.empty()) {
      std::fprintf(stderr, "cache prune requires --manifest FILE\n");
      return 2;
    }
    std::size_t sources = 0;
    std::set<std::uint64_t> keep;
    for (const std::string &path : flags.manifestPaths) {
      corpus::Manifest manifest;
      std::string error;
      if (!corpus::loadManifestFile(path, manifest, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      sources += manifest.entries.size();
      for (const auto &entry : manifest.entries)
        for (std::uint8_t bits = 0; bits < 8; ++bits)
          keep.insert(driver::requestKeyFromContentHash(
              entry.contentHash, server::unpackOptions(bits)));
    }
    std::size_t total = 0, removed = 0, failed = 0;
    for (std::uint64_t key : store.keys()) {
      ++total;
      if (keep.count(key))
        continue;
      if (store.remove(key))
        ++removed;
      else
        ++failed;
    }
    std::printf("pruned %zu of %zu entries from %s (%zu manifest sources "
                "kept across all option sets)\n",
                removed, total, store.directory().c_str(), sources);
    if (failed != 0) {
      std::fprintf(stderr, "failed to remove %zu entries\n", failed);
      return 1;
    }
    return 0;
  }
  if (args[0] == "clear") {
    const std::size_t before = store.entryCount();
    store.clear();
    std::printf("removed %zu cache entries from %s\n", before,
                store.directory().c_str());
    return 0;
  }
  return 2;
}

// ------------------------------------------------------------- daemon

// Signal handlers may only touch async-signal-safe state: a single
// write(2) on the server's stop-event pipe is exactly that.
volatile int g_serverStopFd = -1;

extern "C" void onStopSignal(int) {
  const int fd = g_serverStopFd;
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(fd, &byte, 1);
  }
}

int cmdServe(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;
  if (flags.socketPath.empty() && flags.listenSpec.empty()) {
    std::fprintf(stderr,
                 "serve requires --socket PATH and/or --listen HOST:PORT\n");
    return 2;
  }

  server::ServerOptions options;
  options.socketPath = flags.socketPath;
  if (!flags.listenSpec.empty()) {
    std::string parseError;
    if (!net::parseHostPort(flags.listenSpec, options.tcpHost,
                            options.tcpPortRequested, parseError)) {
      std::fprintf(stderr, "--listen: %s\n", parseError.c_str());
      return 2;
    }
    options.tcpListen = true;
  }
  options.secret = flags.secret;
  options.threads = flags.threads;
  options.cacheDir = flags.cacheDir;
  options.cacheBytesLimit = flags.cacheBytesLimit;
  options.maxInflight = flags.maxInflight;
  options.drainTimeoutMillis =
      static_cast<std::uint32_t>(flags.drainTimeoutSeconds * 1000.0);
  options.metricsFile = flags.metricsFile;

  server::AnalysisServer daemon(options);
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "cannot start daemon: %s\n", error.c_str());
    return 1;
  }

  g_serverStopFd = daemon.stopEventFd();
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  // The readiness line names every endpoint; a --listen port of 0 is
  // printed as the kernel-assigned port so supervisors and tests can
  // parse `tcp HOST:PORT` out of it instead of racing for a fixed port.
  std::string endpoints = options.socketPath;
  if (options.tcpListen) {
    if (!endpoints.empty())
      endpoints += " and ";
    endpoints +=
        "tcp " + options.tcpHost + ":" + std::to_string(daemon.tcpPort());
  }
  std::printf("mira daemon listening on %s (%zu session threads%s%s)\n",
              endpoints.c_str(), options.threads,
              options.cacheDir.empty() ? "" : ", disk cache at ",
              options.cacheDir.c_str());
  std::fflush(stdout); // supervisors tail this line to detect readiness

  daemon.serve();

  const server::ServerStats stats = daemon.snapshotStats();
  g_serverStopFd = -1;
  std::printf("daemon stopped: %llu requests over %llu connections, "
              "%llu analyses (%llu cache hits / %llu computed)\n",
              static_cast<unsigned long long>(stats.requestsServed),
              static_cast<unsigned long long>(stats.connectionsAccepted),
              static_cast<unsigned long long>(stats.sourcesAnalyzed),
              static_cast<unsigned long long>(stats.cacheHits),
              static_cast<unsigned long long>(stats.computed));
  return 0;
}

// ------------------------------------------------------------- client

int cmdClient(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.empty())
    return 2;
  const std::string action = args[0];
  args.erase(args.begin());
  if (AnalysisCommand command = analysisCommand(action)) {
    RemoteBackend backend(flags);
    return command(flags, args, backend);
  }

  server::Client client;
  client.setBusyRetries(flags.busyRetries);

  if (action == "ping") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    if (!client.ping())
      return clientFailure(client);
    std::printf("daemon at %s is alive\n", endpointOf(flags).c_str());
    return 0;
  }

  if (action == "shutdown") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    if (!client.shutdownServer())
      return clientFailure(client);
    std::printf("daemon at %s acknowledged shutdown\n",
                endpointOf(flags).c_str());
    return 0;
  }

  if (action == "cache-stats") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    server::ServerStats stats;
    if (!client.cacheStats(stats))
      return clientFailure(client);
    // Field meanings: docs/PROTOCOL.md, CacheStatsReply.
    std::printf("uptime          : %.1f s\n",
                static_cast<double>(stats.uptimeMicros) / 1e6);
    std::printf("connections     : %llu\n",
                static_cast<unsigned long long>(stats.connectionsAccepted));
    std::printf("requests served : %llu\n",
                static_cast<unsigned long long>(stats.requestsServed));
    std::printf("analyze / batch : %llu / %llu\n",
                static_cast<unsigned long long>(stats.analyzeRequests),
                static_cast<unsigned long long>(stats.batchRequests));
    std::printf("coverage / sim  : %llu / %llu (%llu recompiles)\n",
                static_cast<unsigned long long>(stats.coverageRequests),
                static_cast<unsigned long long>(stats.simulateRequests),
                static_cast<unsigned long long>(stats.recompiles));
    std::printf("sources analyzed: %llu (%llu cache hits, %llu computed, "
                "%llu failed)\n",
                static_cast<unsigned long long>(stats.sourcesAnalyzed),
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.computed),
                static_cast<unsigned long long>(stats.failures));
    std::printf("protocol errors : %llu\n",
                static_cast<unsigned long long>(stats.protocolErrors));
    std::printf("memory entries  : %llu\n",
                static_cast<unsigned long long>(stats.memoryEntries));
    std::printf("disk cache      : %llu hit / %llu miss, %llu stored, "
                "%llu entries, %llu bytes (%s)\n",
                static_cast<unsigned long long>(stats.diskHits),
                static_cast<unsigned long long>(stats.diskMisses),
                static_cast<unsigned long long>(stats.diskStores),
                static_cast<unsigned long long>(stats.diskEntries),
                static_cast<unsigned long long>(stats.diskBytes),
                formatBytes(stats.diskBytes).c_str());
    std::printf("session threads : %llu\n",
                static_cast<unsigned long long>(stats.threads));
    return 0;
  }

  if (action == "metrics") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    std::vector<server::MetricSample> samples;
    if (!client.metrics(samples))
      return clientFailure(client);
    // Same names and `mira_` prefix as the --metrics-file dump; the
    // wire reply does not carry the counter/gauge kind, so no # TYPE
    // comment lines here.
    for (const server::MetricSample &sample : samples)
      std::printf("mira_%s %llu\n", sample.name.c_str(),
                  static_cast<unsigned long long>(sample.value));
    return 0;
  }

  if (action == "manifest-diff") {
    if (args.size() != 2) {
      std::fprintf(stderr,
                   "client manifest-diff takes OLD and NEW manifest files\n");
      return 2;
    }
    // Raw bytes travel; the daemon validates both blobs and answers
    // Error on anything malformed. Output matches the local
    // `manifest diff` line for line, and so does the exit-code
    // convention: 0 identical, 1 differences, 2 trouble (unreadable
    // file, no daemon, malformed manifest).
    std::string oldBytes, newBytes;
    if (!readFileBytes(args[0], oldBytes) || !readFileBytes(args[1], newBytes))
      return kExitTrouble;
    if (requireClientConnection(client, flags) != 0)
      return kExitTrouble;
    server::ManifestDiffReply reply;
    if (!client.manifestDiff(oldBytes, newBytes, reply)) {
      // Same one-line diagnostic format as every other client failure,
      // but the diff/cmp exit convention wins over the 3/4 split here.
      std::fprintf(stderr, "mira-cli client: %s\n",
                   client.lastError().c_str());
      return kExitTrouble;
    }
    return printManifestDiff(reply.added, reply.changed, reply.removed) == 0
               ? 0
               : 1;
  }

  std::fprintf(stderr, "unknown client action '%s'\n", action.c_str());
  return 2;
}

// -------------------------------------------------------- coordinator

/// `mira-cli coordinate`: run a corpus manifest across TCP worker
/// daemons with shard leases and failover (src/fleet/coordinator.h,
/// docs/FLEET.md). Exit codes follow the client contract: 0 ok, 1 the
/// work itself failed (daemon rejection or failing entries in the
/// merged report), 3 no worker was ever reachable, 4 the fleet died
/// mid-run.
int cmdCoordinate(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;
  if (flags.manifestPaths.size() != 1) {
    std::fprintf(stderr, "coordinate requires exactly one --manifest FILE\n");
    return 2;
  }
  if (flags.workersSpec.empty()) {
    std::fprintf(stderr,
                 "coordinate requires --workers host:port[,host:port...]\n");
    return 2;
  }

  fleet::CoordinatorOptions options;
  std::string error;
  if (!fleet::parseWorkerList(flags.workersSpec, options.workers, error)) {
    std::fprintf(stderr, "--workers: %s\n", error.c_str());
    return 2;
  }
  if (!readFileBytes(flags.manifestPaths[0], options.manifestBytes))
    return kExitTrouble;
  if (!flags.sincePath.empty() &&
      !readFileBytes(flags.sincePath, options.sinceBytes))
    return kExitTrouble;
  options.root = flags.rootOverride;
  options.options = optionsFor(flags);
  options.shardCount = flags.shardCount;
  options.leaseTimeoutMillis =
      static_cast<std::uint32_t>(flags.leaseTimeoutSeconds * 1000.0);
  options.connectTimeoutMillis =
      static_cast<int>(flags.connectTimeoutSeconds * 1000.0);
  options.secret = flags.secret;
  options.metricsFile = flags.metricsFile;
  if (flags.progress)
    options.onEvent = [](const std::string &line) {
      // Lease traffic is operator feedback, not results: stderr, so
      // stdout stays byte-comparable with and without --progress.
      std::fprintf(stderr, "fleet: %s\n", line.c_str());
    };

  core::MetricsRegistry metrics;
  const fleet::CoordinatorResult result =
      fleet::runCoordinator(options, metrics);
  if (result.status != fleet::CoordinatorStatus::ok) {
    // Same one-line diagnostic discipline as `mira-cli client`.
    std::fprintf(stderr, "mira-cli coordinate: %s\n", result.error.c_str());
    switch (result.status) {
    case fleet::CoordinatorStatus::connectFailed:
      return 3;
    case fleet::CoordinatorStatus::transportFailed:
      return 4;
    default:
      return 1;
    }
  }

  printReportEntries(result.report);
  // The merged bytes go to disk untouched: byte-identical to a local
  // 1-process `batch --manifest --report` run by the fleet contract.
  if (!flags.reportPath.empty() &&
      !writeFileBytes(flags.reportPath, result.reportBytes))
    return 1;
  return result.report.stats.failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  int result = 2;
  if (AnalysisCommand analysis = analysisCommand(command))
    result = runLocal(analysis, std::move(args));
  else if (command == "manifest")
    result = cmdManifest(std::move(args));
  else if (command == "cache")
    result = cmdCache(std::move(args));
  else if (command == "serve")
    result = cmdServe(std::move(args));
  else if (command == "client")
    result = cmdClient(std::move(args));
  else if (command == "coordinate")
    result = cmdCoordinate(std::move(args));
  if (result == kExitTrouble)
    return 2; // specific message already printed; no usage dump
  return result == 2 ? usage(argv[0]) : result;
}
