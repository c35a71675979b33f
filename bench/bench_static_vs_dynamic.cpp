// Sec. IV-D1 tradeoff — "our model only needs to be generated once, and
// then can be evaluated (at low computational cost) for different user
// inputs", versus dynamic approaches that re-run the application for
// every input. This bench quantifies that claim: one-time model
// generation cost, per-input model evaluation cost, and per-input
// simulation (measurement) cost across a parameter sweep.
#include "bench_util.h"

#include <chrono>

namespace {

using namespace mira;
using sim::Value;

void printTradeoff() {
  using clock = std::chrono::steady_clock;
  auto ms = [](clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  bench::printHeader(
      "Sec. IV-D1: static-once vs dynamic-per-input cost (STREAM sweep)");

  // One-time static analysis.
  DiagnosticEngine diags;
  core::AnalysisSpec spec;
  spec.name = "stream.mc";
  spec.source = workloads::streamSource();
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactProgram;
  auto t0 = clock::now();
  core::Artifacts artifacts = core::analyze(spec, diags);
  auto t1 = clock::now();
  const bench::AnalyzedWorkload analysis{{*artifacts.model},
                                         artifacts.program->get()};
  double generationMs = ms(t1 - t0);

  const std::vector<std::int64_t> sweep = {100'000,   500'000,  1'000'000,
                                           2'000'000, 5'000'000, 10'000'000,
                                           20'000'000};
  double evalTotalMs = 0;
  double simTotalMs = 0;
  std::printf("%-12s | %16s | %16s\n", "N", "model eval (ms)",
              "simulation (ms)");
  for (std::int64_t n : sweep) {
    auto e0 = clock::now();
    auto staticFPI =
        analysis.staticFPI("stream_main", {{"n", n}, {"ntimes", 10}});
    auto e1 = clock::now();
    auto r = bench::simulateFF(analysis, "stream_main",
                               {Value::ofInt(n), Value::ofInt(10)});
    auto e2 = clock::now();
    benchmark::DoNotOptimize(staticFPI);
    benchmark::DoNotOptimize(r.total.fpInstructions);
    evalTotalMs += ms(e1 - e0);
    simTotalMs += ms(e2 - e1);
    std::printf("%-12lld | %16.3f | %16.3f\n", static_cast<long long>(n),
                ms(e1 - e0), ms(e2 - e1));
  }
  bench::printRule();
  std::printf("model generation (once)      : %10.2f ms\n", generationMs);
  std::printf("model evaluation (%zu inputs) : %10.2f ms total\n",
              sweep.size(), evalTotalMs);
  std::printf("simulation      (%zu inputs) : %10.2f ms total\n",
              sweep.size(), simTotalMs);
  std::printf("NOTE: the simulator fast-forwards counted loops; measuring "
              "on real hardware would add the full execution time per "
              "input, widening the gap the paper describes.\n");
  bench::printRule();
}

void BM_ModelEvalPerInput(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::streamSource(), "stream.mc");
  std::int64_t n = 1;
  for (auto _ : state) {
    n = (n % 20'000'000) + 1'000'003; // vary the input each time
    auto s = a.staticFPI("stream_main", {{"n", n}, {"ntimes", 10}});
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ModelEvalPerInput);

void BM_SimulationPerInput(benchmark::State &state) {
  auto &a = bench::analyzeCached(workloads::streamSource(), "stream.mc");
  for (auto _ : state) {
    auto r = bench::simulateFF(a, "stream_main",
                               {Value::ofInt(1'000'000), Value::ofInt(10)});
    benchmark::DoNotOptimize(r.total.fpInstructions);
  }
}
BENCHMARK(BM_SimulationPerInput)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTradeoff();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
