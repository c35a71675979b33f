// mira_perfbench: the repository benchmark.
//
//   mira_perfbench --workload cold-corpus|warm-daemon|incremental-disk
//                  --seed N --seconds S --trace 0|1
//                  [--run-dir DIR] [--trace-out FILE]
//
// Prints every metric by name with its unit, a correctness verdict, and
// as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Workload {
  const char *name;
  void (*run)(const Args &, Report &);
  void (*trace)(const Args &, double, Report &, TraceLog &);
};

const Workload kWorkloads[] = {
    {"cold-corpus", runColdCorpus, traceColdCorpus},
    {"warm-daemon", runWarmDaemon, traceWarmDaemon},
    {"incremental-disk", runIncrementalDisk, traceIncrementalDisk},
};

int usage(const char *why) {
  std::fprintf(stderr,
               "error: %s\nusage: mira_perfbench --workload "
               "cold-corpus|warm-daemon|incremental-disk --seed N "
               "--seconds S --trace 0|1 [--run-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Args args;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char *end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!end || *end != '\0' || !(args.seconds > 0 && args.seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        return usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.runDir = value;
    } else if (flag == "--trace-out") {
      args.traceOut = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload *selected = nullptr;
  for (const Workload &w : kWorkloads)
    if (args.workload == w.name)
      selected = &w;
  if (!selected)
    return usage("unknown or missing --workload");
  if (!haveSeed || args.seconds <= 0)
    return usage("--seed and --seconds are required");

  if (args.runDir.empty())
    args.runDir = ".bench_build/run-" + std::to_string(::getpid());
  if (args.traceOut.empty())
    args.traceOut = ".bench_build/trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json";
  std::error_code ec;
  fs::remove_all(args.runDir, ec);
  fs::create_directories(args.runDir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", args.runDir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  Report report;
  std::printf("workload %s, seed %llu, %.3g s, %u CPUs, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              cpuCount(), args.trace ? 1 : 0);
  if (!args.trace) {
    selected->run(args, report);
  } else {
    // Every traced run maps every layer: the named workload's phase
    // gets half the time, the other two a quarter each.
    TraceLog log;
    int pid = 1;
    for (const Workload *w : {selected, &kWorkloads[0], &kWorkloads[1],
                              &kWorkloads[2]}) {
      if (pid > 1 && w == selected)
        continue;
      log.nameProcess(pid, w->name);
      Args phase = args;
      phase.workload = w->name;
      phase.tracePid = pid;
      w->trace(phase, args.seconds * (w == selected ? 0.5 : 0.25), report,
               log);
      ++pid;
    }
    log.printSelfTimeTable();
    report.check(log.writeChromeJson(args.traceOut),
                 "cannot write trace file " + args.traceOut);
    report.note("trace written to " + args.traceOut);
  }
  fs::remove_all(args.runDir, ec);
  report.print();
  return 0;
}
