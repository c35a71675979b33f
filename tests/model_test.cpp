// Model / arch / baseline / bridge unit tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "arch/arch.h"
#include "baseline/pbound.h"
#include "core/artifacts.h"
#include "core/mira.h"
#include "model/model.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "support/binary_io.h"

namespace mira {
namespace {

/// Full static pipeline: the model plus a live program handle.
core::Artifacts analyzeFull(const std::string &src, DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = "t.mc";
  spec.source = src;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactProgram;
  return core::analyze(spec, diags);
}

} // namespace
} // namespace mira

namespace mira::model {
namespace {

using symbolic::Expr;

// ---------------------------------------------------------------- model

PerformanceModel twoFunctionModel() {
  PerformanceModel m;
  FunctionModel leaf;
  leaf.sourceName = "leaf";
  leaf.modelName = "leaf_1";
  CountStep s;
  s.multiplier = Expr::param("n");
  s.opcodes[isa::Opcode::ADDSD] = 2;
  s.opcodes[isa::Opcode::MOVSD_RM] = 3;
  leaf.counts.push_back(s);
  m.functions.push_back(leaf);

  FunctionModel root;
  root.sourceName = "root";
  root.modelName = "root_1";
  CallStep call;
  call.multiplier = Expr::param("reps");
  call.callee = "leaf";
  call.argBindings["n"] = Expr::param("m") * Expr::intConst(2);
  call.line = 5;
  root.calls.push_back(call);
  m.functions.push_back(root);
  return m;
}

TEST(Model, EvaluatesCountSteps) {
  PerformanceModel m = twoFunctionModel();
  auto counts = m.evaluate("leaf", {{"n", 10}});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 20.0);
  EXPECT_DOUBLE_EQ(counts->totalInstructions, 50.0);
  EXPECT_DOUBLE_EQ(counts->opcodes.at(isa::Opcode::MOVSD_RM), 30.0);
}

TEST(Model, CallStepsBindArgumentsAndMultiply) {
  PerformanceModel m = twoFunctionModel();
  // root(reps=3, m=5): leaf evaluated at n = 10, times 3.
  auto counts = m.evaluate("root", {{"reps", 3}, {"m", 5}});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 3 * 2 * 10.0);
}

TEST(Model, MissingParameterReportsName) {
  PerformanceModel m = twoFunctionModel();
  std::string error;
  auto counts = m.evaluate("leaf", {}, &error);
  EXPECT_FALSE(counts.has_value());
  EXPECT_NE(error.find("n"), std::string::npos);
}

TEST(Model, RequiredParametersCrossCallBoundaries) {
  PerformanceModel m = twoFunctionModel();
  auto params = m.requiredParameters("root");
  EXPECT_TRUE(params.count("reps"));
  EXPECT_TRUE(params.count("m"));
  EXPECT_FALSE(params.count("n")) << "bound by the call step";
}

// ------------------------------------------------------ opcode histogram

using OpcodeList = std::vector<std::pair<isa::Opcode, std::int64_t>>;

template <typename Histogram> OpcodeList listOf(const Histogram &histogram) {
  return OpcodeList(histogram.begin(), histogram.end());
}

TEST(OpcodeHistogram, InsertsInAnyOrderIterateLikeAStdMap) {
  OpcodeHistogram fixed;
  fixed[isa::Opcode::MULSD] = 1;
  fixed[isa::Opcode::ADDSD] = 2;
  fixed[isa::Opcode::MULSD] += 3;
  std::map<isa::Opcode, std::int64_t> fixedReference{
      {isa::Opcode::MULSD, 4}, {isa::Opcode::ADDSD, 2}};
  EXPECT_EQ(listOf(fixed), listOf(fixedReference));

  std::mt19937 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    OpcodeHistogram flat;
    std::map<isa::Opcode, std::int64_t> reference;
    const int inserts = static_cast<int>(rng() % 24);
    for (int i = 0; i < inserts; ++i) {
      // A narrow opcode range forces repeats and out-of-order keys.
      const auto op = static_cast<isa::Opcode>(rng() % 10);
      const std::int64_t n = static_cast<std::int64_t>(rng() % 100) - 50;
      if (rng() % 2) {
        flat[op] += n;
        reference[op] += n;
      } else {
        flat[op] = n;
        reference[op] = n;
      }
    }
    EXPECT_EQ(flat.size(), reference.size());
    EXPECT_EQ(flat.empty(), reference.empty());
    EXPECT_EQ(listOf(flat), listOf(reference));
  }
}

/// One function with one count step `n * {entries}`, encoded by hand so
/// the opcode entries can be out of order or repeated.
std::string oneStepPayload(const OpcodeList &entries) {
  std::string out;
  bio::putString(out, "hand.mc");
  bio::putU32(out, 1); // functions
  bio::putString(out, "f");
  bio::putString(out, "f_1");
  bio::putU32(out, 0); // parameter names
  bio::putU8(out, 1);  // exact
  bio::putU32(out, 0); // notes
  bio::putU32(out, 1); // count steps
  bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Param));
  bio::putString(out, "n");
  bio::putString(out, "body");
  bio::putU32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto &[op, n] : entries) {
    bio::putU32(out, static_cast<std::uint32_t>(op));
    bio::putI64(out, n);
  }
  bio::putU32(out, 0); // call steps
  return out;
}

TEST(Serialize, UnsortedOrRepeatedOpcodeEntriesDecodeLikeAMap) {
  const OpcodeList entries = {{isa::Opcode::MULSD, 4},
                              {isa::Opcode::ADDSD, 1},
                              {isa::Opcode::MOVSD_RM, 2},
                              {isa::Opcode::ADDSD, 7},
                              {isa::Opcode::MULSD, 5}};
  // What a std::map decoder gives: the last count for an opcode wins and
  // the entries come back sorted.
  std::map<isa::Opcode, std::int64_t> reference;
  for (const auto &[op, n] : entries)
    reference[op] = n;

  const std::string bytes = oneStepPayload(entries);
  PerformanceModel decoded;
  std::size_t offset = 0;
  ASSERT_TRUE(deserializeModel(bytes, offset, decoded));
  EXPECT_EQ(offset, bytes.size());
  ASSERT_EQ(decoded.functions.size(), 1u);
  ASSERT_EQ(decoded.functions[0].counts.size(), 1u);
  EXPECT_EQ(listOf(decoded.functions[0].counts[0].opcodes),
            listOf(reference));

  std::string again;
  serializeModel(decoded, again);
  EXPECT_EQ(again, oneStepPayload(listOf(reference)));
}

/// Address space the calling process has mapped, from /proc/self/status.
std::uint64_t mappedBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.compare(0, 7, "VmSize:") == 0)
      return std::stoull(line.substr(7)) * 1024;
  return 0;
}

TEST(Serialize, HostileCountsCannotOutgrowTheInput) {
  // Each payload is a valid prefix, one count of 16 Mi, then 16 MiB of
  // zero bytes, so every count passes the "no more elements than bytes
  // left" check. Reserving by the count alone would ask for gigabytes
  // (16 Mi FunctionModels); the decoder must instead fail cleanly when
  // the bytes run out, inside 1 GiB of address space.
  constexpr std::uint32_t kCount = 16u << 20;
  auto functionHeader = [](std::string &out) {
    bio::putString(out, "");
    bio::putU32(out, 1);
    bio::putString(out, "f");
    bio::putString(out, "f_1");
  };
  auto beforeCounts = [&](std::string &out) {
    functionHeader(out);
    bio::putU32(out, 0); // parameter names
    bio::putU8(out, 1);  // exact
    bio::putU32(out, 0); // notes
  };
  const std::vector<std::function<void(std::string &)>> prefixes = {
      [](std::string &out) { bio::putString(out, ""); }, // functions
      functionHeader,                                    // parameter names
      beforeCounts, // count steps
      [&](std::string &out) { // opcode entries
        beforeCounts(out);
        bio::putU32(out, 1);
        bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Param));
        bio::putString(out, "n");
        bio::putString(out, "");
      },
      [&](std::string &out) { // call steps
        beforeCounts(out);
        bio::putU32(out, 0);
      },
      [&](std::string &out) { // expression operands
        beforeCounts(out);
        bio::putU32(out, 1);
        bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Add));
      },
  };

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // noexcept: a std::bad_alloc out of the decoder aborts the child
    // instead of unwinding into the test framework's copy of itself.
    [&]() noexcept {
      // 1 GiB on top of what the process already maps (a sanitizer
      // runtime maps terabytes of shadow up front).
      const rlim_t cap = mappedBytes() + (rlim_t{1} << 30);
      const rlimit limit{cap, cap};
      if (::setrlimit(RLIMIT_AS, &limit) != 0)
        std::_Exit(100);
      for (std::size_t i = 0; i < prefixes.size(); ++i) {
        std::string bytes;
        prefixes[i](bytes);
        bio::putU32(bytes, kCount);
        bytes.resize(bytes.size() + kCount, '\0');
        PerformanceModel out;
        std::size_t offset = 0;
        if (deserializeModel(bytes, offset, out))
          std::_Exit(static_cast<int>(1 + i));
      }
    }();
    std::_Exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "decoder child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "100: setrlimit failed; otherwise 1 + the index of the payload "
         "that decoded";
}

TEST(Model, CategoriesAggregation) {
  PerformanceModel m = twoFunctionModel();
  auto counts = m.evaluate("leaf", {{"n", 1}});
  auto categories = counts->categories(arch::haswellDescription());
  EXPECT_DOUBLE_EQ(
      categories[static_cast<std::size_t>(
          isa::InstrCategory::SSE2PackedArith)],
      2.0);
  EXPECT_DOUBLE_EQ(
      categories[static_cast<std::size_t>(
          isa::InstrCategory::SSE2DataMovement)],
      3.0);
}

TEST(PythonEmitter, ModuleContainsHelpersAndFunctions) {
  PerformanceModel m = twoFunctionModel();
  std::string py = emitPython(m);
  EXPECT_NE(py.find("def _bump("), std::string::npos);
  EXPECT_NE(py.find("def handle_function_call("), std::string::npos);
  EXPECT_NE(py.find("def leaf_1("), std::string::npos);
  EXPECT_NE(py.find("def root_1("), std::string::npos);
  EXPECT_NE(py.find("__main__"), std::string::npos);
}

TEST(PythonEmitter, OpcodeKeysWhenRequested) {
  PerformanceModel m = twoFunctionModel();
  PythonEmitOptions options;
  options.categoryKeys = false;
  std::string py = emitPython(m, options);
  EXPECT_NE(py.find("'addsd'"), std::string::npos);
}

} // namespace
} // namespace mira::model

namespace mira::arch {
namespace {

TEST(Arch, ParseRoundTrip) {
  const ArchDescription &ref = haswellDescription();
  DiagnosticEngine diags;
  auto parsed = ArchDescription::parse(ref.str(), diags);
  ASSERT_TRUE(parsed.has_value()) << diags.str();
  EXPECT_EQ(parsed->name, ref.name);
  EXPECT_EQ(parsed->cores, ref.cores);
  EXPECT_DOUBLE_EQ(parsed->clockGHz, ref.clockGHz);
}

TEST(Arch, CategoryOverride) {
  DiagnosticEngine diags;
  auto desc = ArchDescription::parse(
      "name = custom\n"
      "[categories]\n"
      "lea = Integer arithmetic instruction\n",
      diags);
  ASSERT_TRUE(desc.has_value()) << diags.str();
  EXPECT_EQ(desc->categoryOf(isa::Opcode::LEA),
            isa::InstrCategory::IntArith);
  // Unoverridden opcodes keep Mira's defaults.
  EXPECT_EQ(desc->categoryOf(isa::Opcode::ADDPD),
            isa::InstrCategory::SSE2PackedArith);
}

TEST(Arch, MalformedInputsDiagnosed) {
  DiagnosticEngine diags;
  EXPECT_FALSE(
      ArchDescription::parse("cores: not-a-kv-pair\n", diags).has_value());
  diags.clear();
  EXPECT_FALSE(ArchDescription::parse("[categories]\nnotanop = Misc "
                                      "Instruction\n",
                                      diags)
                   .has_value());
  EXPECT_TRUE(diags.containsMessage("unknown opcode"));
  diags.clear();
  EXPECT_FALSE(ArchDescription::parse("[categories]\nlea = Not A "
                                      "Category\n",
                                      diags)
                   .has_value());
}

TEST(Arch, ArithmeticIntensityAndRoofline) {
  isa::CategoryArray<double> counts{};
  counts[static_cast<std::size_t>(isa::InstrCategory::SSE2PackedArith)] =
      193;
  counts[static_cast<std::size_t>(isa::InstrCategory::SSE2DataMovement)] =
      367;
  // The paper's Sec. IV-D2 example: 1.93E8/3.67E8 = 0.53.
  EXPECT_NEAR(ArchDescription::arithmeticIntensity(counts), 0.526, 0.001);

  const ArchDescription &d = haswellDescription();
  EXPECT_DOUBLE_EQ(d.rooflineAttainable(1000.0), d.peakGFlops());
  EXPECT_LT(d.rooflineAttainable(0.1), d.peakGFlops());
}

TEST(Arch, PaperMachines) {
  EXPECT_EQ(haswellDescription().cores, 36);   // 2 x 18-core E5-2699v3
  EXPECT_EQ(nehalemDescription().cores, 8);    // 2 x 4-core E5620
  EXPECT_DOUBLE_EQ(haswellDescription().clockGHz, 2.3);
  EXPECT_DOUBLE_EQ(nehalemDescription().clockGHz, 2.4);
}

} // namespace
} // namespace mira::arch

namespace mira::baseline {
namespace {

TEST(Baseline, OverestimatesVectorizedFPI) {
  const char *src = "void axpy(double* x, double* y, int n) {\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    y[i] = y[i] + 2.0 * x[i];\n"
                    "  }\n"
                    "}\n"
                    "double driver(int n) {\n"
                    "  double x[n];\n"
                    "  double y[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    x[i] = 1.0;\n"
                    "    y[i] = 1.0;\n"
                    "  }\n"
                    "  axpy(x, y, n);\n"
                    "  return y[0];\n"
                    "}";
  DiagnosticEngine diags;
  core::Artifacts analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok) << diags.str();
  auto program = analysis.program->get();
  auto srcOnly = generateSourceOnlyModel(*program->unit,
                                         program->sema.callGraph, diags);

  std::int64_t n = 1000;
  auto r = core::simulate(*program, "driver", {sim::Value::ofInt(n)});
  ASSERT_TRUE(r.ok);
  double dyn = r.fpiOf("driver");
  auto mira = analysis.model->evaluate("driver", {{"n", n}});
  auto pb = srcOnly.evaluate("driver", {{"n", n}});
  ASSERT_TRUE(mira && pb);
  // Mira tracks the vectorized binary; the source-only baseline counts
  // one scalar instruction per source FLOP and lands ~2x high.
  EXPECT_LT(core::relativeError(mira->fpInstructions, dyn), 0.01);
  EXPECT_GT(pb->fpInstructions, 1.8 * dyn);
}

TEST(Baseline, MatchesSourceOpCountsOnScalarCode) {
  const char *src = "double f(double a, double b) {\n"
                    "  return a * b + a / b;\n"
                    "}";
  DiagnosticEngine diags;
  core::Artifacts analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok);
  auto program = analysis.program->get();
  auto srcOnly = generateSourceOnlyModel(*program->unit,
                                         program->sema.callGraph, diags);
  auto counts = srcOnly.evaluate("f", {});
  ASSERT_TRUE(counts.has_value());
  EXPECT_DOUBLE_EQ(counts->fpInstructions, 3.0); // mul + div + add
}

} // namespace
} // namespace mira::baseline

namespace mira::bridge {
namespace {

TEST(Bridge, LineQueriesAreConsistent) {
  const char *src = "double f(double* v, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    s = s + v[i] * 2.0;\n"
                    "  }\n"
                    "  return s;\n"
                    "}";
  DiagnosticEngine diags;
  core::Artifacts analysis = analyzeFull(src, diags);
  ASSERT_TRUE(analysis.ok) << diags.str();
  const FunctionBridge *fb = analysis.program->get()->bridge->of("f");
  ASSERT_NE(fb, nullptr);

  // The sum over {outside-loops + per-loop bodies + headers} of all lines
  // must equal the function's instruction count.
  const auto &bin = fb->binary();
  std::size_t total = bin.instructions.size();
  std::size_t accounted = 0;
  for (std::uint32_t line : fb->coveredLines()) {
    auto outside = fb->opcodesAtLine(line, nullptr);
    for (const auto &[op, n] : outside)
      accounted += n;
    for (const auto &loop : bin.loops) {
      auto inLoop = fb->opcodesAtLine(line, &loop);
      for (const auto &[op, n] : inLoop)
        accounted += n;
    }
  }
  for (const auto &loop : bin.loops)
    accounted += loop.headerInstrCount;
  EXPECT_EQ(accounted, total);
}

} // namespace
} // namespace mira::bridge
