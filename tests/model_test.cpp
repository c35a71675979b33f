// Model / arch / baseline / bridge unit tests.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "baseline/pbound.h"
#include "core/artifacts.h"
#include "core/mira.h"
#include "model/model.h"
#include "model/python_emitter.h"

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
