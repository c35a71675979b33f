// End-to-end pipeline tests: source -> binary -> bridge -> model, checked
// against the simulator (the paper's validation methodology at unit
// scale). The headline invariant throughout: the statically evaluated
// model's FPI count matches the dynamically retired FPI count.
#include <gtest/gtest.h>

#include "core/artifacts.h"
#include "core/mira.h"
#include "workloads/workloads.h"

namespace mira::core {
namespace {

std::string workloadFig5() { return workloads::fig5Source(); }

using sim::Value;

/// Full static pipeline: the model plus a live program handle.
Artifacts analyzeFull(const std::string &src, const std::string &name,
                      const MiraOptions &options, DiagnosticEngine &diags) {
  AnalysisSpec spec;
  spec.name = name;
  spec.source = src;
  spec.options = options;
  spec.artifacts = kArtifactModel | kArtifactDiagnostics | kArtifactProgram;
  return analyze(spec, diags);
}

Artifacts analyzeOk(const std::string &src) {
  DiagnosticEngine diags;
  MiraOptions options;
  Artifacts result = analyzeFull(src, "pipeline_test.mc", options, diags);
  EXPECT_TRUE(result.ok) << diags.str();
  return result;
}

double simFPI(const Artifacts &analysis, const std::string &fn,
              const std::vector<Value> &args) {
  auto r = simulate(*analysis.program->get(), fn, args);
  EXPECT_TRUE(r.ok) << r.error;
  return r.fpiOf(fn);
}

TEST(Pipeline, BinaryAstHasFunctionsAndLines) {
  auto a = analyzeOk("double f(double x) {\n"
                     "  double y = x * 2.0;\n"
                     "  return y + 1.0;\n"
                     "}");
  const auto *fn = a.program->get()->binaryAst.find("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->instructions.empty());
  // Lines 2 and 3 must be represented in the disassembly.
  auto lines = fn->lineCounts();
  EXPECT_TRUE(lines.count(2));
  EXPECT_TRUE(lines.count(3));
}

TEST(Pipeline, BinaryLoopDiscovery) {
  auto a = analyzeOk("void f(double* v, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i] = v[i] * 0.5;\n"
                     "  }\n"
                     "}");
  const auto *fn = a.program->get()->binaryAst.find("f");
  ASSERT_NE(fn, nullptr);
  // Vectorization produces a main loop (step 2) and a remainder (step 1).
  ASSERT_GE(fn->loops.size(), 2u);
  const auto *bridge = a.program->get()->bridge->of("f");
  ASSERT_NE(bridge, nullptr);
  auto binding = bridge->loopsAtLine(2);
  ASSERT_TRUE(binding.isVectorized());
  EXPECT_EQ(binding.mainLoop()->step, 2);
  EXPECT_EQ(binding.remainderLoop()->step, 1);
}

TEST(Pipeline, ScalarLoopStaysScalar) {
  // Integer address arithmetic in the body blocks vectorization (like
  // DGEMM's strided access).
  auto a = analyzeOk("void f(double* v, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i * 2] = v[i * 2] + 1.0;\n"
                     "  }\n"
                     "}");
  const auto *bridge = a.program->get()->bridge->of("f");
  auto binding = bridge->loopsAtLine(2);
  ASSERT_FALSE(binding.loops.empty());
  EXPECT_FALSE(binding.isVectorized());
}

// The core validation pattern: static model FPI == simulator FPI.
struct FpiCase {
  const char *name;
  const char *source;
  const char *function;
  std::vector<std::pair<const char *, std::int64_t>> params;
  std::vector<Value> args;
};

class StaticVsDynamic : public ::testing::TestWithParam<int> {};

TEST(Pipeline, SimpleVectorLoopFPIExact) {
  auto a = analyzeOk("void axpy(double* x, double* y, double alpha, int n) {\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    y[i] = y[i] + alpha * x[i];\n"
                     "  }\n"
                     "}\n"
                     "double driver(int n) {\n"
                     "  double x[n];\n"
                     "  double y[n];\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    x[i] = 1.0;\n"
                     "    y[i] = 2.0;\n"
                     "  }\n"
                     "  axpy(x, y, 3.0, n);\n"
                     "  return y[0];\n"
                     "}");
  for (std::int64_t n : {1, 2, 7, 64, 129}) {
    auto staticFPI = a.staticFPI("driver", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "driver", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, TriangularNestFPIExact) {
  auto a = analyzeOk("double tri(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    for (int j = i; j < n; j++) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {1, 3, 10, 31}) {
    auto staticFPI = a.staticFPI("tri", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "tri", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, BranchInLoopUsesGuardedPolyhedron) {
  // Paper Fig. 4(b): affine guard shrinks the count; the model must be
  // exact, not approximate.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    if (i >= 4) {\n"
                     "      acc = acc + 2.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {2, 4, 5, 20}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, ModuloGuardComplementRule) {
  // Paper Fig. 4(c) / Listing 5: j % 4 != 0 handled by complement.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int j = 1; j <= n; j++) {\n"
                     "    if (j % 4 != 0) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {3, 4, 8, 17}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, ElseBranchCountsComplement) {
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int j = 0; j < n; j++) {\n"
                     "    if (j % 2 == 0) {\n"
                     "      acc = acc + 1.0;\n"
                     "    } else {\n"
                     "      acc = acc + 1.0 + 1.0 * j;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  for (std::int64_t n : {1, 2, 9, 16}) {
    auto staticFPI = a.staticFPI("f", {{"n", n}});
    ASSERT_TRUE(staticFPI.has_value());
    double dynamicFPI = simFPI(a, "f", {Value::ofInt(n)});
    EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI) << "n=" << n;
  }
}

TEST(Pipeline, FunctionCallsCombineLikeHandleFunctionCall) {
  // Calls inside loops multiply callee metrics by iteration count
  // (paper Sec. III-B5).
  auto a = analyzeOk("double work(double* v, int n) {\n"
                     "  double s = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    s = s + v[i] * v[i];\n"
                     "  }\n"
                     "  return s;\n"
                     "}\n"
                     "double driver(int n, int reps) {\n"
                     "  double v[n];\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    v[i] = 0.5;\n"
                     "  }\n"
                     "  double acc = 0.0;\n"
                     "  for (int r = 0; r < reps; r++) {\n"
                     "    acc = acc + work(v, n);\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto staticFPI = a.staticFPI("driver", {{"n", 20}, {"reps", 7}});
  ASSERT_TRUE(staticFPI.has_value());
  double dynamicFPI =
      simFPI(a, "driver", {Value::ofInt(20), Value::ofInt(7)});
  EXPECT_DOUBLE_EQ(*staticFPI, dynamicFPI);
}

TEST(Pipeline, MethodCallWithAnnotatedInnerLoop) {
  // The Fig. 5 pattern: annotation parameter surfaces in the model.
  auto a = analyzeOk(workloadFig5());
  const auto *fooModel = a.model->find("A::foo");
  ASSERT_NE(fooModel, nullptr);
  EXPECT_EQ(fooModel->modelName, "A_foo_2");
  auto params = a.model->requiredParameters("A::foo");
  EXPECT_TRUE(params.count("y")) << "annotated bound must be a parameter";
}

TEST(Pipeline, AnnotatedRatioBranch) {
  auto a = analyzeOk("double f(double* v, int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    #pragma @Annotation {ratio:25}\n"
                     "    if (v[i] > 0.5) {\n"
                     "      acc = acc + 1.0;\n"
                     "    }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  const auto *fn = a.model->find("f");
  ASSERT_NE(fn, nullptr);
  // 25% of n iterations contribute the branch body.
  auto counts = a.model->evaluate("f", {{"n", 100}});
  ASSERT_TRUE(counts.has_value());
  // FPI: condition compare is not FPI; body add -> about 25 adds. Loads
  // contribute SSE2 data movement, not FPI. The acc init is folded.
  EXPECT_NEAR(counts->fpInstructions, 25.0, 1.0);
}

TEST(Pipeline, SkipAnnotationRemovesScope) {
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    #pragma @Annotation {skip:yes}\n"
                     "    acc = acc + 1.0;\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto counts = a.model->evaluate("f", {{"n", 1000}});
  ASSERT_TRUE(counts.has_value());
  // The skipped statement's FP add is absent from the model.
  EXPECT_LT(counts->fpInstructions, 10.0);
}

TEST(Pipeline, GeneratedPythonModelHasPaperShape) {
  auto a = analyzeOk(workloadFig5());
  std::string py = model::emitPython(*a.model);
  EXPECT_NE(py.find("def A_foo_2("), std::string::npos);
  EXPECT_NE(py.find("def handle_function_call("), std::string::npos);
  EXPECT_NE(py.find("SSE2"), std::string::npos);
  // The annotated parameter appears in the signature.
  EXPECT_NE(py.find("y"), std::string::npos);
}

TEST(Pipeline, OptimizationChangesBinaryNotSemantics) {
  const char *src = "double f(int n) {\n"
                    "  double a[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = 2.0 * 3.0;\n" // constant-folded
                    "  }\n"
                    "  return a[0];\n"
                    "}";
  DiagnosticEngine d1, d2;
  MiraOptions opt;
  opt.compile.compiler.optimize = true;
  auto optimized = analyzeFull(src, "t.mc", opt, d1);
  opt.compile.compiler.optimize = false;
  opt.compile.compiler.vectorize = false;
  auto plain = analyzeFull(src, "t.mc", opt, d2);
  ASSERT_TRUE(optimized.ok && plain.ok);
  auto r1 = simulate(*optimized.program->get(), "f", {Value::ofInt(8)});
  auto r2 = simulate(*plain.program->get(), "f", {Value::ofInt(8)});
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_DOUBLE_EQ(r1.returnValue.f, 6.0);
  EXPECT_DOUBLE_EQ(r2.returnValue.f, 6.0);
  // The optimized binary retires fewer instructions.
  EXPECT_LT(r1.total.totalInstructions, r2.total.totalInstructions);
}

TEST(Pipeline, ExternCallsAreTheResidualError) {
  // Static model cannot see into mc_print; the simulator charges it.
  auto a = analyzeOk("double f(int n) {\n"
                     "  double acc = 0.0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    acc = acc + 1.0;\n"
                     "  }\n"
                     "  mc_print(acc);\n"
                     "  return acc;\n"
                     "}");
  auto staticFPI = a.staticFPI("f", {{"n", 1000}});
  ASSERT_TRUE(staticFPI.has_value());
  auto r = simulate(*a.program->get(), "f", {Value::ofInt(1000)});
  ASSERT_TRUE(r.ok);
  double dynamicFPI = r.fpiOf("f");
  EXPECT_LT(*staticFPI, dynamicFPI); // missing library FPI
  EXPECT_LT(relativeError(*staticFPI, dynamicFPI), 0.02); // but small
  const auto *fn = a.model->find("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->exact);
}

} // namespace
} // namespace mira::core
