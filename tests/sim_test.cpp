#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "core/compiler.h"
#include "core/mira.h"

namespace mira::sim {
namespace {

using core::CompiledProgram;
using core::CompileOptions;

std::unique_ptr<CompiledProgram> compile(const std::string &src,
                                         bool vectorize = true) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.compiler.vectorize = vectorize;
  auto program = core::compileProgram(src, "sim_test.mc", options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  return program;
}

SimResult runFn(const CompiledProgram &program, const std::string &fn,
                const std::vector<Value> &args, bool ff = false) {
  SimOptions options;
  options.fastForward = ff;
  return core::simulate(program, fn, args, options);
}

// ------------------------------------------------------------- semantics

TEST(Simulator, ArithmeticAndReturn) {
  auto p = compile("int f(int a, int b) { return a * b + 7; }");
  auto r = runFn(*p, "f", {Value::ofInt(6), Value::ofInt(9)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.returnValue.i, 61);
}

TEST(Simulator, FloatingPoint) {
  auto p = compile("double f(double x) { return sqrt(x) * 2.0; }");
  auto r = runFn(*p, "f", {Value::ofDouble(16.0)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.returnValue.f, 8.0);
}

TEST(Simulator, LoopsAndArrays) {
  auto p = compile("double f(int n) {\n"
                   "  double a[n];\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    a[i] = i * 1.5;\n"
                   "  }\n"
                   "  double s = 0.0;\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    s = s + a[i];\n"
                   "  }\n"
                   "  return s;\n"
                   "}");
  auto r = runFn(*p, "f", {Value::ofInt(10)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.returnValue.f, 1.5 * 45);
}

TEST(Simulator, VectorizedLoopComputesSameResult) {
  const char *src = "double f(int n) {\n"
                    "  double a[n];\n"
                    "  double b[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = i + 1.0;\n"
                    "    b[i] = 2.0;\n"
                    "  }\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    s = s + a[i] * b[i];\n"
                    "  }\n"
                    "  return s;\n"
                    "}";
  auto vec = compile(src, true);
  auto scalar = compile(src, false);
  for (int n : {0, 1, 2, 3, 7, 16, 33}) {
    auto rv = runFn(*vec, "f", {Value::ofInt(n)});
    auto rs = runFn(*scalar, "f", {Value::ofInt(n)});
    ASSERT_TRUE(rv.ok) << rv.error;
    ASSERT_TRUE(rs.ok) << rs.error;
    EXPECT_DOUBLE_EQ(rv.returnValue.f, rs.returnValue.f) << "n=" << n;
  }
}

TEST(Simulator, VectorizationReducesFPInstructionCount) {
  const char *src = "void f(double* a, double* b, int n) {\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = a[i] + b[i];\n"
                    "  }\n"
                    "}\n"
                    "double g(int n) {\n"
                    "  double a[n];\n"
                    "  double b[n];\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = 1.0;\n"
                    "    b[i] = 2.0;\n"
                    "  }\n"
                    "  f(a, b, n);\n"
                    "  return a[0];\n"
                    "}";
  auto vec = compile(src, true);
  auto scalar = compile(src, false);
  auto rv = runFn(*vec, "g", {Value::ofInt(1000)});
  auto rs = runFn(*scalar, "g", {Value::ofInt(1000)});
  ASSERT_TRUE(rv.ok && rs.ok);
  // Packed ADDPD retires one instruction per two adds: FPI roughly halves
  // in f (init loop is vectorized in both counts too, so compare g).
  EXPECT_LT(rv.fpiOf("f"), 0.6 * rs.fpiOf("f"));
  // FLOPs are identical work regardless of packing.
  EXPECT_EQ(rv.functions.at("f").inclusive.flops,
            rs.functions.at("f").inclusive.flops);
}

TEST(Simulator, ClassesAndMethodCalls) {
  auto p = compile("class Acc {\n"
                   "public:\n"
                   "  double total;\n"
                   "  void add(double v) { total = total + v; }\n"
                   "  double get() { return total; }\n"
                   "};\n"
                   "double f() {\n"
                   "  Acc acc;\n"
                   "  acc.total = 0.0;\n"
                   "  acc.add(2.5);\n"
                   "  acc.add(4.0);\n"
                   "  return acc.get();\n"
                   "}");
  auto r = runFn(*p, "f", {});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.returnValue.f, 6.5);
}

TEST(Simulator, OperatorCallMethod) {
  auto p = compile("class Scaler {\n"
                   "public:\n"
                   "  double factor;\n"
                   "  double operator()(double x) { return x * factor; }\n"
                   "};\n"
                   "double f() {\n"
                   "  Scaler s;\n"
                   "  s.factor = 3.0;\n"
                   "  return s(7.0);\n"
                   "}");
  auto r = runFn(*p, "f", {});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.returnValue.f, 21.0);
}

TEST(Simulator, BranchesAndModulo) {
  auto p = compile("int f(int n) {\n"
                   "  int count = 0;\n"
                   "  for (int i = 1; i <= n; i++) {\n"
                   "    if (i % 3 == 0) {\n"
                   "      count = count + 1;\n"
                   "    } else {\n"
                   "      count = count + 10;\n"
                   "    }\n"
                   "  }\n"
                   "  return count;\n"
                   "}");
  auto r = runFn(*p, "f", {Value::ofInt(9)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.returnValue.i, 3 + 6 * 10);
}

TEST(Simulator, WhileLoop) {
  auto p = compile("int f(int n) {\n"
                   "  int i = 0;\n"
                   "  while (n > 1) {\n"
                   "    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  return i;\n"
                   "}");
  auto r = runFn(*p, "f", {Value::ofInt(6)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.returnValue.i, 8); // 6 3 10 5 16 8 4 2 1
}

TEST(Simulator, ShortCircuitEvaluation) {
  auto p = compile("int f(int a, int b) {\n"
                   "  int r = 0;\n"
                   "  if (a > 0 && b > 0) { r = 1; }\n"
                   "  if (a > 0 || b > 0) { r = r + 2; }\n"
                   "  return r;\n"
                   "}");
  auto r1 = runFn(*p, "f", {Value::ofInt(1), Value::ofInt(1)});
  EXPECT_EQ(r1.returnValue.i, 3);
  auto r2 = runFn(*p, "f", {Value::ofInt(1), Value::ofInt(-1)});
  EXPECT_EQ(r2.returnValue.i, 2);
  auto r3 = runFn(*p, "f", {Value::ofInt(-1), Value::ofInt(-1)});
  EXPECT_EQ(r3.returnValue.i, 0);
}

TEST(Simulator, ExternCallsChargeHiddenCost) {
  auto p = compile("void f(double x) { mc_print(x); }");
  auto r = runFn(*p, "f", {Value::ofDouble(1.5)});
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.printed.size(), 1u);
  EXPECT_DOUBLE_EQ(r.printed[0], 1.5);
  // The library call retires FP instructions the static model cannot see.
  EXPECT_GT(r.total.fpInstructions, 0u);
  EXPECT_GT(r.total.totalInstructions, 50u);
}

TEST(Simulator, DivisionByZeroIsAnError) {
  auto p = compile("int f(int a) { return 10 / a; }");
  auto r = runFn(*p, "f", {Value::ofInt(0)});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("division by zero"), std::string::npos);
}

TEST(Simulator, Int64MinByMinusOneIsAnOverflowError) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  auto p = compile("int f(int a, int b) {\n"
                   "  int q = a / b;\n"
                   "  return q;\n"
                   "}\n"
                   "int g(int a, int b) {\n"
                   "  return a % b;\n"
                   "}");
  auto q = runFn(*p, "f", {Value::ofInt(min), Value::ofInt(-1)});
  EXPECT_FALSE(q.ok);
  EXPECT_EQ(q.error, "integer division overflow at line 2");
  auto r = runFn(*p, "g", {Value::ofInt(min), Value::ofInt(-1)});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "integer division overflow at line 6");
  auto fine = runFn(*p, "f", {Value::ofInt(min), Value::ofInt(1)});
  ASSERT_TRUE(fine.ok) << fine.error;
  EXPECT_EQ(fine.returnValue.i, min);
}

TEST(Simulator, IntegerArithmeticWrapsInTwosComplement) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  auto p = compile("int add(int a, int b) { return a + b; }\n"
                   "int sub(int a, int b) { return a - b; }\n"
                   "int mul(int a, int b) { return a * b; }\n"
                   "int neg(int a) { return -a; }");
  const std::pair<SimResult, std::int64_t> cases[] = {
      {runFn(*p, "add", {Value::ofInt(max), Value::ofInt(1)}), min},
      {runFn(*p, "sub", {Value::ofInt(min), Value::ofInt(1)}), max},
      {runFn(*p, "mul", {Value::ofInt(max), Value::ofInt(2)}), -2},
      {runFn(*p, "neg", {Value::ofInt(min)}), min},
  };
  for (const auto &[r, expected] : cases) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.returnValue.i, expected);
  }
}

TEST(Simulator, FloatToIntConvertsLikeCvttsd2si) {
  // Truncation toward zero; NaN and values outside [-2^63, 2^63) give
  // INT64_MIN, the value the emitted CVTTSD2SI produces.
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  auto p = compile("int conv(double x) {\n"
                   "  int r = x;\n"
                   "  return r;\n"
                   "}\n"
                   "int grow(double x) {\n"
                   "  for (int i = 0; i < 20; i++) {\n"
                   "    x = x * 1e30;\n"
                   "  }\n"
                   "  int r = x;\n"
                   "  return r;\n"
                   "}");
  const double two63 = 9223372036854775808.0;
  const std::pair<double, std::int64_t> cases[] = {
      {-3.7, -3},
      {1e18, 1000000000000000000},
      {-two63, min},
      {two63, min},
      {1e300, min},
      {-1e300, min},
      {std::numeric_limits<double>::infinity(), min},
      {std::numeric_limits<double>::quiet_NaN(), min},
  };
  for (const auto &[input, expected] : cases) {
    auto r = runFn(*p, "conv", {Value::ofDouble(input)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.returnValue.i, expected) << "input " << input;
  }
  auto grown = runFn(*p, "grow", {Value::ofDouble(2.0)});
  ASSERT_TRUE(grown.ok) << grown.error;
  EXPECT_EQ(grown.returnValue.i, min);
}

TEST(Simulator, InstructionBudgetStopsRunaways) {
  auto p = compile("int f() {\n"
                   "  int i = 0;\n"
                   "  while (i < 1000000000) { i = i + 1; }\n"
                   "  return i;\n"
                   "}");
  SimOptions options;
  options.maxInstructions = 10000;
  auto r = core::simulate(*p, "f", {}, options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(Simulator, InclusiveCountsContainCallees) {
  auto p = compile("double leaf(double x) { return x * x; }\n"
                   "double root(double x) { return leaf(x) + leaf(x); }");
  auto r = runFn(*p, "root", {Value::ofDouble(2.0)});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.functions.at("leaf").calls, 2u);
  EXPECT_GE(r.functions.at("root").inclusive.totalInstructions,
            r.functions.at("leaf").inclusive.totalInstructions);
  EXPECT_DOUBLE_EQ(r.returnValue.f, 8.0);
}

// ---------------------------------------------------------- fast-forward

TEST(FastForward, MatchesExactCountsOnAnnotatedLoops) {
  const char *src = "double f(int n) {\n"
                    "  double a[n];\n"
                    "  #pragma @Simulate {ff:yes}\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i] = 1.0 * i;\n"
                    "  }\n"
                    "  double s = 0.0;\n"
                    "  #pragma @Simulate {ff:yes}\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    s = s + a[i];\n"
                    "  }\n"
                    "  return s;\n"
                    "}";
  auto p = compile(src);
  for (int n : {0, 1, 2, 5, 17, 64}) {
    auto exact = runFn(*p, "f", {Value::ofInt(n)}, false);
    auto ff = runFn(*p, "f", {Value::ofInt(n)}, true);
    ASSERT_TRUE(exact.ok && ff.ok) << exact.error << ff.error;
    EXPECT_EQ(exact.total.totalInstructions, ff.total.totalInstructions)
        << "n=" << n;
    EXPECT_EQ(exact.total.fpInstructions, ff.total.fpInstructions)
        << "n=" << n;
    for (std::size_t c = 0; c < isa::kNumCategories; ++c)
      EXPECT_EQ(exact.total.categories[c], ff.total.categories[c])
          << "n=" << n << " category " << c;
  }
}

TEST(FastForward, UnannotatedLoopsRunExactly) {
  // Without the annotation, fast-forward mode must not change anything.
  auto p = compile("double f(int n) {\n"
                   "  double s = 0.0;\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    s = s + 1.0;\n"
                   "  }\n"
                   "  return s;\n"
                   "}");
  auto exact = runFn(*p, "f", {Value::ofInt(23)}, false);
  auto ff = runFn(*p, "f", {Value::ofInt(23)}, true);
  ASSERT_TRUE(exact.ok && ff.ok);
  EXPECT_DOUBLE_EQ(ff.returnValue.f, 23.0); // executed for real
  EXPECT_EQ(exact.total.totalInstructions, ff.total.totalInstructions);
}

} // namespace
} // namespace mira::sim
