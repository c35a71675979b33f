// Fault-injection + differential tests for daemon-side manifest batch
// execution (docs/SERVING.md, "Serving whole corpora").
//
// The MIRA_FAULT environment variable (support/fault_injection.h) arms
// deterministic failure points inside forked mira-cli processes:
//
//   cache-write:fail:N[+]   the Nth (and later, with '+') disk-cache
//                           store reports failure, like a full disk;
//   compute:crash:N         the process SIGKILLs itself at the start of
//                           the Nth analysis — power-loss semantics, no
//                           unwinding, no buffered-IO flush;
//   compute:stall:N:MS      the Nth analysis sleeps MS milliseconds
//                           first, opening a deterministic window for
//                           the test to kill a peer mid-conversation.
//
// Scenarios pinned here:
//   - differential runner: one-shot local batch, daemon manifest batch,
//     and merged N-shard local runs agree byte-for-byte (reports and
//     cache directories);
//   - kill -9 the daemon mid-manifest-batch: the partial cache has zero
//     corrupt entries, and a restarted daemon's rerun answers the exact
//     bytes a local run over the same partial cache answers;
//   - client disconnect mid-batch: the daemon cancels the batch (counted
//     in server_manifest_batch_cancelled_total) and stays healthy;
//   - injected cache-write failures degrade to recompute: identical
//     report bytes from the faulted local and faulted daemon runs, and
//     the cache heals on a clean rerun;
//   - crash-at-Nth-compute in a local shard process: partial valid
//     cache, and a rerun converges on the reference cache bytes;
//   - malformed MIRA_FAULT clauses are ignored, never fatal.
//
// MIRA_CLI_PATH is injected by CMake ($<TARGET_FILE:mira-cli>), so the
// tests always drive the binary they were built with.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/batch.h"
#include "support/cache_store.h"
#include "support/fault_injection.h"

namespace mira {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("mira_fault_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void writeFile(const fs::path &path, const std::string &bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string readFile(const fs::path &path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Distinct single-loop kernels; content (and cache key) unique per file.
void writeCorpus(const fs::path &root, int count) {
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "kernel_%02d.mc", i);
    char source[256];
    std::snprintf(source, sizeof(source),
                  "int kernel_%02d(int n) {\n"
                  "  int s = %d;\n"
                  "  for (int i = 0; i < n; i++) {\n"
                  "    s = s + i * %d;\n"
                  "  }\n"
                  "  return s;\n"
                  "}\n",
                  i, i, i + 1);
    writeFile(root / name, source);
  }
}

/// Run one CLI invocation synchronously with an optional MIRA_FAULT
/// spec; returns the exit code (-1 when killed by a signal).
int runCli(const std::vector<std::string> &args, const fs::path &logPath,
           const std::string &fault = std::string()) {
  std::string command;
  if (!fault.empty())
    command += "MIRA_FAULT='" + fault + "' ";
  command += MIRA_CLI_PATH;
  for (const std::string &arg : args)
    command += " '" + arg + "'";
  command += " > '" + logPath.string() + "' 2>&1";
  const int status = std::system(command.c_str());
  if (status == -1)
    return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Fork+exec one CLI invocation (optionally fault-armed); returns the
/// child pid. The caller owns waiting or killing.
pid_t spawnCli(const std::vector<std::string> &args, const fs::path &logPath,
               const std::string &fault = std::string()) {
  const pid_t pid = ::fork();
  if (pid != 0)
    return pid;
  if (!fault.empty())
    ::setenv("MIRA_FAULT", fault.c_str(), 1);
  std::FILE *log = std::freopen(logPath.string().c_str(), "w", stdout);
  (void)log;
  ::dup2(::fileno(stdout), ::fileno(stderr));
  std::vector<char *> argv;
  std::string cli = MIRA_CLI_PATH;
  argv.push_back(cli.data());
  std::vector<std::string> copies = args;
  for (std::string &arg : copies)
    argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  std::_Exit(127); // exec failed
}

/// Exit code, or -1 when the child died on a signal (e.g. SIGKILL).
int waitFor(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid)
    return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Spawn a daemon and block until its socket accepts; empty `fault`
/// arms nothing.
pid_t startDaemon(const fs::path &socket, const fs::path &cacheDir,
                  const fs::path &logPath,
                  const std::string &fault = std::string(),
                  const std::vector<std::string> &extra = {}) {
  std::vector<std::string> args = {"serve",       "--socket",
                                   socket.string(), "--cache-dir",
                                   cacheDir.string(), "--threads",
                                   "1"};
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = spawnCli(args, logPath, fault);
  for (int i = 0; i < 100; ++i) {
    if (fs::exists(socket))
      return pid;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "daemon never bound " << socket;
  return pid;
}

void stopDaemon(pid_t pid, const fs::path &socket, const fs::path &dir) {
  if (runCli({"client", "shutdown", "--socket", socket.string()},
             dir / "shutdown.log") != 0)
    ::kill(pid, SIGTERM);
  waitFor(pid);
}

driver::BatchReport loadReport(const fs::path &path) {
  driver::BatchReport report;
  std::string error;
  EXPECT_TRUE(driver::deserializeBatchReport(readFile(path), report, error))
      << path << ": " << error;
  return report;
}

/// Assert two cache directories hold the same entry files with the
/// same bytes.
void expectCachesIdentical(const fs::path &a, const fs::path &b) {
  std::vector<std::string> aNames, bNames;
  for (const auto &it : fs::directory_iterator(a))
    aNames.push_back(it.path().filename().string());
  for (const auto &it : fs::directory_iterator(b))
    bNames.push_back(it.path().filename().string());
  std::sort(aNames.begin(), aNames.end());
  std::sort(bNames.begin(), bNames.end());
  ASSERT_EQ(aNames, bNames) << a << " vs " << b;
  for (const std::string &name : aNames)
    EXPECT_EQ(readFile(a / name), readFile(b / name))
        << "cache entry " << name << " differs";
}

/// Every entry loads and validates; the store saw no corruption.
void expectCacheClean(const fs::path &dir) {
  CacheStore store(dir.string());
  for (std::uint64_t key : store.keys())
    EXPECT_TRUE(store.load(key).has_value()) << key;
  EXPECT_EQ(store.stats().corrupt, 0u) << dir;
}

// ------------------------------------------------------------- tests

TEST(FaultInjection, UnarmedProcessReportsNoFaults) {
  // This test binary never sets MIRA_FAULT: the hooks must be inert.
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::hit("cache-write"), fault::Action::none);
  EXPECT_FALSE(fault::shouldFail("compute"));
}

TEST(FaultInjection, DifferentialLocalDaemonAndShardsAgreeByteForByte) {
  constexpr int kSources = 6;
  constexpr int kShards = 2;
  TempDir dir("differential");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);

  // Arm 1: one-shot local run, cold cache.
  const fs::path localCache = dir.path / "cache_local";
  const fs::path localReport = dir.path / "local.report";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    localCache.string(), "--report", localReport.string()},
                   dir.path / "local.log"),
            0)
      << readFile(dir.path / "local.log");

  // Arm 2: the same manifest through a cold daemon.
  const fs::path daemonCache = dir.path / "cache_daemon";
  const fs::path daemonReport = dir.path / "daemon.report";
  const fs::path socket = dir.path / "daemon.sock";
  const pid_t daemon =
      startDaemon(socket, daemonCache, dir.path / "daemon.log");
  ASSERT_EQ(runCli({"client", "batch", "--manifest", manifest.string(),
                    "--socket", socket.string(), "--report",
                    daemonReport.string(), "--progress"},
                   dir.path / "client.log"),
            0)
      << readFile(dir.path / "client.log");
  stopDaemon(daemon, socket, dir.path);

  // Arm 3: N concurrent local shard processes over one shared cache,
  // merged through the CLI.
  const fs::path shardCache = dir.path / "cache_shards";
  std::vector<pid_t> children;
  std::vector<fs::path> shardReports;
  for (int i = 1; i <= kShards; ++i) {
    const fs::path report =
        dir.path / ("shard_" + std::to_string(i) + ".report");
    shardReports.push_back(report);
    children.push_back(spawnCli(
        {"batch", "--manifest", manifest.string(), "--shard",
         std::to_string(i) + "/" + std::to_string(kShards), "--cache-dir",
         shardCache.string(), "--report", report.string()},
        dir.path / ("shard_" + std::to_string(i) + ".log")));
  }
  for (pid_t child : children)
    EXPECT_EQ(waitFor(child), 0);
  const fs::path merged = dir.path / "merged.report";
  std::vector<std::string> mergeArgs = {"manifest", "merge", "--out",
                                        merged.string()};
  for (const fs::path &report : shardReports)
    mergeArgs.push_back(report.string());
  ASSERT_EQ(runCli(mergeArgs, dir.path / "merge.log"), 0);

  // All three arms agree byte-for-byte: reports and cache directories.
  const std::string reference = readFile(localReport);
  EXPECT_EQ(readFile(daemonReport), reference)
      << "daemon manifest-batch report differs from the local run";
  EXPECT_EQ(readFile(merged), reference)
      << "merged shard report differs from the local run";
  expectCachesIdentical(localCache, daemonCache);
  expectCachesIdentical(localCache, shardCache);
  expectCacheClean(daemonCache);

  // The client printed streamed progress and the report summary.
  const std::string clientLog = readFile(dir.path / "client.log");
  EXPECT_NE(clientLog.find("progress: "), std::string::npos) << clientLog;
  EXPECT_NE(clientLog.find("report: 6 entries"), std::string::npos)
      << clientLog;
}

TEST(FaultInjection, DaemonKilledMidBatchLeavesCleanCacheAndRerunsExactly) {
  constexpr int kSources = 6;
  TempDir dir("kill9");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);

  // The daemon SIGKILLs itself at the start of its 3rd analysis —
  // power-loss mid-batch with the single compute thread having fully
  // persisted the first two results.
  const fs::path cache = dir.path / "cache";
  const fs::path socket = dir.path / "daemon.sock";
  const pid_t daemon = startDaemon(socket, cache, dir.path / "daemon.log",
                                   "compute:crash:3");
  const int clientExit =
      runCli({"client", "batch", "--manifest", manifest.string(), "--socket",
              socket.string()},
             dir.path / "client_crash.log");
  waitFor(daemon);
  // The connection died mid-conversation: unified diagnostic, exit 4.
  EXPECT_EQ(clientExit, 4) << readFile(dir.path / "client_crash.log");
  EXPECT_NE(readFile(dir.path / "client_crash.log").find("mira-cli client: "),
            std::string::npos);

  // The partial cache: some but not all entries, every one valid.
  {
    CacheStore store(cache.string());
    const std::size_t partial = store.entryCount();
    EXPECT_GT(partial, 0u);
    EXPECT_LT(partial, static_cast<std::size_t>(kSources));
  }
  expectCacheClean(cache);

  // Reference for the rerun: a local run over a copy of the partial
  // cache — the warm/cold mix the restarted daemon must reproduce.
  const fs::path referenceCache = dir.path / "cache_reference";
  fs::copy(cache, referenceCache, fs::copy_options::recursive);
  const fs::path referenceReport = dir.path / "reference.report";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    referenceCache.string(), "--report",
                    referenceReport.string()},
                   dir.path / "reference.log"),
            0);

  // Restart (fresh socket; the SIGKILLed daemon never unlinked its old
  // one) and rerun: byte-identical report, converged identical caches.
  const fs::path socket2 = dir.path / "daemon2.sock";
  const pid_t daemon2 =
      startDaemon(socket2, cache, dir.path / "daemon2.log");
  const fs::path rerunReport = dir.path / "rerun.report";
  ASSERT_EQ(runCli({"client", "batch", "--manifest", manifest.string(),
                    "--socket", socket2.string(), "--report",
                    rerunReport.string()},
                   dir.path / "client_rerun.log"),
            0)
      << readFile(dir.path / "client_rerun.log");
  stopDaemon(daemon2, socket2, dir.path);

  EXPECT_EQ(readFile(rerunReport), readFile(referenceReport))
      << "restarted daemon's rerun differs from the local reference";
  const driver::BatchReport rerun = loadReport(rerunReport);
  EXPECT_EQ(rerun.stats.requests, static_cast<std::size_t>(kSources));
  EXPECT_EQ(rerun.stats.failures, 0u);
  EXPECT_GT(rerun.stats.cacheHits, 0u); // the pre-crash survivors
  expectCachesIdentical(cache, referenceCache);
  expectCacheClean(cache);
}

TEST(FaultInjection, ClientDisconnectMidBatchCancelsAndDaemonStaysHealthy) {
  constexpr int kSources = 4;
  TempDir dir("disconnect");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);

  // The daemon's first analysis stalls 3 seconds: a deterministic
  // window to SIGKILL the client while its batch is mid-flight.
  const fs::path cache = dir.path / "cache";
  const fs::path socket = dir.path / "daemon.sock";
  const pid_t daemon = startDaemon(socket, cache, dir.path / "daemon.log",
                                   "compute:stall:1:3000");
  const pid_t client =
      spawnCli({"client", "batch", "--manifest", manifest.string(),
                "--socket", socket.string()},
               dir.path / "client_killed.log");
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  ::kill(client, SIGKILL);
  EXPECT_EQ(waitFor(client), -1); // died on the signal, not an exit

  // The daemon notices the disconnect at the next chunk boundary,
  // abandons the batch, and counts the cancellation.
  bool cancelled = false;
  for (int i = 0; i < 100 && !cancelled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (runCli({"client", "metrics", "--socket", socket.string()},
               dir.path / "metrics.log") != 0)
      continue;
    cancelled =
        readFile(dir.path / "metrics.log")
            .find("mira_server_manifest_batch_cancelled_total 1") !=
        std::string::npos;
  }
  EXPECT_TRUE(cancelled) << readFile(dir.path / "metrics.log");

  // Still healthy: the same manifest completes for the next client.
  const fs::path report = dir.path / "after.report";
  ASSERT_EQ(runCli({"client", "batch", "--manifest", manifest.string(),
                    "--socket", socket.string(), "--report",
                    report.string()},
                   dir.path / "client_after.log"),
            0)
      << readFile(dir.path / "client_after.log");
  const driver::BatchReport after = loadReport(report);
  EXPECT_EQ(after.stats.requests, static_cast<std::size_t>(kSources));
  EXPECT_EQ(after.stats.failures, 0u);
  stopDaemon(daemon, socket, dir.path);
  expectCacheClean(cache);
}

TEST(FaultInjection, CacheWriteFailuresDegradeToRecomputeIdentically) {
  constexpr int kSources = 5;
  TempDir dir("storefail");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);
  const std::string fault = "cache-write:fail:2+"; // 1st store lands,
                                                   // every later one fails

  // Faulted local run: analysis still succeeds everywhere.
  const fs::path localCache = dir.path / "cache_local";
  const fs::path localReport = dir.path / "local.report";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    localCache.string(), "--report", localReport.string()},
                   dir.path / "local.log", fault),
            0)
      << readFile(dir.path / "local.log");

  // Same fault inside the daemon: the degraded runs agree byte-for-byte
  // (same stores attempted, same single success, same report counters).
  const fs::path daemonCache = dir.path / "cache_daemon";
  const fs::path daemonReport = dir.path / "daemon.report";
  const fs::path socket = dir.path / "daemon.sock";
  const pid_t daemon = startDaemon(socket, daemonCache,
                                   dir.path / "daemon.log", fault);
  ASSERT_EQ(runCli({"client", "batch", "--manifest", manifest.string(),
                    "--socket", socket.string(), "--report",
                    daemonReport.string()},
                   dir.path / "client.log"),
            0)
      << readFile(dir.path / "client.log");
  stopDaemon(daemon, socket, dir.path);
  EXPECT_EQ(readFile(daemonReport), readFile(localReport))
      << "faulted daemon and faulted local reports differ";

  const driver::BatchReport report = loadReport(localReport);
  EXPECT_EQ(report.stats.requests, static_cast<std::size_t>(kSources));
  EXPECT_EQ(report.stats.failures, 0u); // degraded, not failed
  EXPECT_EQ(report.stats.diskStores, 1u);
  EXPECT_EQ(CacheStore(localCache.string()).entryCount(), 1u);
  expectCacheClean(localCache);

  // A clean rerun heals the cache to full occupancy.
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    localCache.string()},
                   dir.path / "heal.log"),
            0);
  EXPECT_EQ(CacheStore(localCache.string()).entryCount(),
            static_cast<std::size_t>(kSources));
  expectCacheClean(localCache);
}

TEST(FaultInjection, ShardProcessCrashLeavesPartialCacheRerunConverges) {
  constexpr int kSources = 5;
  TempDir dir("crashshard");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);

  // Clean reference cache for the convergence check.
  const fs::path referenceCache = dir.path / "cache_reference";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    referenceCache.string()},
                   dir.path / "reference.log"),
            0);

  // A local batch that SIGKILLs itself at its 3rd compute (single
  // thread: exactly two entries persisted, then power loss).
  const fs::path cache = dir.path / "cache";
  const pid_t crashing =
      spawnCli({"batch", "--manifest", manifest.string(), "--threads", "1",
                "--cache-dir", cache.string()},
               dir.path / "crash.log", "compute:crash:3");
  EXPECT_EQ(waitFor(crashing), -1); // killed, not exited
  {
    CacheStore store(cache.string());
    EXPECT_EQ(store.entryCount(), 2u);
  }
  expectCacheClean(cache);

  // The rerun completes the corpus and converges on the reference
  // cache byte-for-byte.
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    cache.string()},
                   dir.path / "rerun.log"),
            0);
  expectCachesIdentical(cache, referenceCache);
  expectCacheClean(cache);
}

// INT64_MIN / -1 traps in IDIV, so neither the compiler's constant
// folder nor the simulator may evaluate it natively: the CLI analyzes
// the source, the simulation fails with a diagnostic, and a daemon that
// analyzes it keeps serving.
TEST(FaultInjection, Int64MinDividedByMinusOneNeverKillsAProcess) {
  TempDir dir("int64min");
  const fs::path source = dir.path / "overflow.mc";
  writeFile(source, "int f(int n) { int a = -9223372036854775807 - 1; "
                    "int b = -1; int c = a / b; return c + n; }\n");
  EXPECT_EQ(runCli({"analyze", source.string()}, dir.path / "analyze.log"),
            0)
      << readFile(dir.path / "analyze.log");
  EXPECT_EQ(runCli({"simulate", source.string(), "--function", "f",
                    "--no-optimize", "--sim-arg", "1"},
                   dir.path / "simulate.log"),
            1);
  EXPECT_NE(readFile(dir.path / "simulate.log")
                .find("integer division overflow at line 1"),
            std::string::npos)
      << readFile(dir.path / "simulate.log");

  const fs::path socket = dir.path / "d.sock";
  const pid_t daemon = startDaemon(socket, dir.path / "cache",
                                   dir.path / "daemon.log");
  EXPECT_EQ(runCli({"client", "analyze", source.string(), "--socket",
                    socket.string()},
                   dir.path / "client.log"),
            0)
      << readFile(dir.path / "client.log");
  EXPECT_EQ(runCli({"client", "ping", "--socket", socket.string()},
                   dir.path / "ping.log"),
            0)
      << readFile(dir.path / "ping.log");
  stopDaemon(daemon, socket, dir.path);
}

TEST(FaultInjection, MalformedFaultSpecsAreIgnored) {
  TempDir dir("badspec");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, 2);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);
  // Junk clauses, unknown actions, and a zero ordinal must all be
  // skipped; the run behaves exactly as if unarmed.
  const fs::path cache = dir.path / "cache";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    cache.string()},
                   dir.path / "run.log",
                   "bogus,,cache-write:nope:1,cache-write:fail:0,:fail:1"),
            0)
      << readFile(dir.path / "run.log");
  EXPECT_EQ(CacheStore(cache.string()).entryCount(), 2u);
  expectCacheClean(cache);
}

} // namespace
} // namespace mira
