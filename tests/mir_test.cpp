// MIR-level tests: lowering structure, optimization passes, the
// vectorizer's transformations, register allocation and code generation
// invariants.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/regalloc.h"
#include "frontend/parser.h"
#include "mir/lowering.h"
#include "mir/passes.h"
#include "sema/sema.h"

namespace mira::mir {
namespace {

struct Lowered {
  std::unique_ptr<frontend::TranslationUnit> unit;
  MirModule module;
  DiagnosticEngine diags;
};

Lowered lower(const std::string &src, bool optimize = true,
              bool vectorize = true) {
  Lowered out;
  out.unit = frontend::Parser::parse(src, "t.mc", out.diags);
  EXPECT_FALSE(out.diags.hasErrors()) << out.diags.str();
  sema::SemanticAnalyzer analyzer(out.diags);
  auto sr = analyzer.analyze(*out.unit);
  EXPECT_TRUE(sr.success) << out.diags.str();
  CompilerOptions options;
  options.optimize = optimize;
  options.vectorize = vectorize;
  out.module = lowerToMir(*out.unit, options, out.diags);
  EXPECT_FALSE(out.diags.hasErrors()) << out.diags.str();
  return out;
}

std::size_t countOps(const MirFunction &fn, MirOp op) {
  std::size_t n = 0;
  for (const MirBlock &b : fn.blocks)
    for (const MirInst &inst : b.insts)
      if (inst.op == op)
        ++n;
  return n;
}

TEST(MirInst, ForEachUseVisitsReadsInOperandOrder) {
  auto usesOf = [](const MirInst &inst) {
    std::vector<VReg> out;
    inst.forEachUse([&out](VReg r) { out.push_back(r); });
    EXPECT_EQ(out, inst.uses());
    return out;
  };
  MirInst store;
  store.op = MirOp::Store;
  store.a = 1;
  store.base = 2;
  store.index = 3;
  store.b = 9; // not an operand of a store
  EXPECT_EQ(usesOf(store), (std::vector<VReg>{1, 2, 3}));
  MirInst load;
  load.op = MirOp::Load;
  load.dst = 4;
  load.a = 9; // not an operand of a load
  load.base = 2;
  EXPECT_EQ(usesOf(load), (std::vector<VReg>{2}));
  MirInst call;
  call.op = MirOp::Call;
  call.args = {5, 6, 5};
  EXPECT_EQ(usesOf(call), (std::vector<VReg>{5, 6, 5}));
  MirInst alloca;
  alloca.op = MirOp::Alloca;
  alloca.a = 7;
  alloca.b = 9; // not an operand of an alloca
  EXPECT_EQ(usesOf(alloca), (std::vector<VReg>{7}));
  MirInst add;
  add.op = MirOp::Add;
  add.a = 8;
  add.b = 8;
  EXPECT_EQ(usesOf(add), (std::vector<VReg>{8, 8}));

  // On a mutable instruction the visitor may rewrite each use.
  store.forEachUse([](VReg &r) { r += 10; });
  EXPECT_EQ(store.a, 11u);
  EXPECT_EQ(store.base, 12u);
  EXPECT_EQ(store.index, 13u);
  EXPECT_EQ(store.b, 9u);
}

TEST(Lowering, CountedLoopHasCanonicalShape) {
  auto l = lower("void f(double* v, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    v[i] = 1.0;\n"
                 "  }\n"
                 "}",
                 /*optimize=*/false, /*vectorize=*/false);
  const MirFunction *fn = l.module.find("f");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->loops.size(), 1u);
  const LoopDescriptor &loop = fn->loops[0];
  EXPECT_EQ(loop.step, 1);
  EXPECT_EQ(loop.rel, MirCmp::Lt);
  // Header: ICmp + Branch only.
  const MirBlock &header = fn->blocks[loop.header];
  ASSERT_EQ(header.insts.size(), 2u);
  EXPECT_EQ(header.insts[0].op, MirOp::ICmp);
  EXPECT_EQ(header.insts[1].op, MirOp::Branch);
  // Latch increments the induction register and jumps back.
  const MirBlock &latch = fn->blocks[loop.latch];
  EXPECT_EQ(latch.insts.back().op, MirOp::Jump);
  EXPECT_EQ(latch.insts.back().target, loop.header);
}

TEST(Lowering, LeAndReversedConditionsNormalizeToLt) {
  auto l = lower("void f(int n) { for (int i = 1; i <= n; i++) { } }",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  ASSERT_EQ(fn->loops.size(), 1u);
  EXPECT_EQ(fn->loops[0].rel, MirCmp::Lt); // limit was bumped by one
}

TEST(Lowering, MethodGetsImplicitThis) {
  auto l = lower("class A { public: int n;\n"
                 "  int get() { return n; } };");
  const MirFunction *fn = l.module.find("A::get");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->paramRegs.size(), 1u); // this
  EXPECT_EQ(fn->paramTypes[0], MirType::Ptr);
  // Field access is a load through 'this'.
  EXPECT_GE(countOps(*fn, MirOp::Load), 1u);
}

TEST(Lowering, MultiDimArrayLinearizes) {
  auto l = lower("double f(int n, int m) {\n"
                 "  double a[n][m];\n"
                 "  a[1][2] = 5.0;\n"
                 "  return a[1][2];\n"
                 "}",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  // linearization multiplies by the row size: at least one Mul.
  EXPECT_GE(countOps(*fn, MirOp::Mul), 2u);
  EXPECT_EQ(countOps(*fn, MirOp::Alloca), 1u);
}

TEST(Passes, ConstantFoldingFoldsLiteralArithmetic) {
  auto l = lower("int f() { return 2 * 3 + 4; }", false, false);
  MirFunction *fn = l.module.find("f");
  std::size_t rewritten = foldConstants(*fn);
  EXPECT_GE(rewritten, 1u);
  eliminateDeadCode(*fn);
  // After folding+DCE there is no Mul left.
  EXPECT_EQ(countOps(*fn, MirOp::Mul), 0u);
}

/// `dst = a OP b` over two constants (b unused for unary ops), after
/// foldConstants: the instruction that computes dst.
MirInst foldOnConstants(MirOp op, std::int64_t a, std::int64_t b = 0) {
  MirFunction fn;
  fn.newBlock();
  auto constant = [&](std::int64_t value) {
    MirInst inst;
    inst.op = MirOp::ConstI;
    inst.dst = fn.newVReg(MirType::I64);
    inst.imm = value;
    fn.blocks[0].insts.push_back(inst);
    return inst.dst;
  };
  MirInst inst;
  inst.op = op;
  inst.a = constant(a);
  if (op != MirOp::Neg)
    inst.b = constant(b);
  inst.dst = fn.newVReg(MirType::I64);
  fn.blocks[0].insts.push_back(inst);
  foldConstants(fn);
  return fn.blocks[0].insts.back();
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(Passes, FoldingWrapsLikeTheEmittedInstructions) {
  const std::pair<MirInst, std::int64_t> cases[] = {
      {foldOnConstants(MirOp::Add, kMax, 1), kMin},
      {foldOnConstants(MirOp::Sub, kMin, 1), kMax},
      {foldOnConstants(MirOp::Mul, kMax, 2), -2},
      {foldOnConstants(MirOp::Mul, kMin, -1), kMin},
      {foldOnConstants(MirOp::Neg, kMin), kMin},
      {foldOnConstants(MirOp::Div, 7, -1), -7},
      {foldOnConstants(MirOp::Rem, -7, 2), -1},
      {foldOnConstants(MirOp::Shl, 1, 63), kMin},
      {foldOnConstants(MirOp::Shr, -8, 1), -4},
  };
  for (const auto &[inst, expected] : cases) {
    EXPECT_EQ(inst.op, MirOp::ConstI) << inst.str();
    EXPECT_EQ(inst.imm, expected) << inst.str();
  }
}

TEST(Passes, FoldingLeavesFaultingAndOutOfRangeOpsToRun) {
  const std::pair<MirInst, MirOp> cases[] = {
      {foldOnConstants(MirOp::Div, kMin, -1), MirOp::Div},
      {foldOnConstants(MirOp::Rem, kMin, -1), MirOp::Rem},
      {foldOnConstants(MirOp::Div, 1, 0), MirOp::Div},
      {foldOnConstants(MirOp::Rem, 1, 0), MirOp::Rem},
      {foldOnConstants(MirOp::Shl, 1, 64), MirOp::Shl},
      {foldOnConstants(MirOp::Shl, 1, -1), MirOp::Shl},
      {foldOnConstants(MirOp::Shr, 1, 64), MirOp::Shr},
  };
  for (const auto &[inst, op] : cases)
    EXPECT_EQ(inst.op, op) << inst.str();
}

TEST(Passes, Int64MinDividedByMinusOneCompiles) {
  auto l = lower("int f(int n) { int a = -9223372036854775807 - 1; "
                 "int b = -1; int c = a / b; return c + n; }");
  const MirFunction *fn = l.module.find("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(countOps(*fn, MirOp::Div), 1u);
}

TEST(Passes, DeadCodeEliminationRemovesUnusedValues) {
  auto l = lower("int f(int a) {\n"
                 "  int unused = a * 17;\n"
                 "  return a;\n"
                 "}",
                 false, false);
  MirFunction *fn = l.module.find("f");
  std::size_t before = countOps(*fn, MirOp::Mul);
  EXPECT_EQ(before, 1u);
  propagateCopies(*fn);
  std::size_t removed = eliminateDeadCode(*fn);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(countOps(*fn, MirOp::Mul), 0u);
}

TEST(Passes, DceKeepsSideEffects) {
  auto l = lower("void f(double* p) { p[0] = 1.0; mc_print(p[0]); }",
                 false, false);
  MirFunction *fn = l.module.find("f");
  eliminateDeadCode(*fn);
  EXPECT_EQ(countOps(*fn, MirOp::Store), 1u);
  EXPECT_EQ(countOps(*fn, MirOp::Call), 1u);
}

TEST(Passes, UnreachableBlocksCleared) {
  auto l = lower("int f() { return 1; }", false, false);
  MirFunction *fn = l.module.find("f");
  // Lowering creates an unreachable continuation after 'return'.
  std::size_t removed = removeUnreachableBlocks(*fn);
  (void)removed;
  for (const MirBlock &b : fn->blocks) {
    bool reachableFromEntry = b.id == 0;
    for (const MirBlock &p : fn->blocks)
      for (std::uint32_t s : p.successors())
        if (s == b.id)
          reachableFromEntry = true;
    if (!reachableFromEntry && b.id != 0)
      EXPECT_TRUE(b.insts.empty()) << "block " << b.id;
  }
}

TEST(Vectorizer, EligibleLoopBecomesPackedPlusRemainder) {
  auto l = lower("void f(double* a, double* b, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    a[i] = a[i] + b[i];\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  ASSERT_EQ(fn->loops.size(), 2u);
  const LoopDescriptor &main = fn->loops[0];
  const LoopDescriptor &rem = fn->loops[1];
  EXPECT_TRUE(main.vectorized);
  EXPECT_EQ(main.step, 2);
  EXPECT_EQ(main.remainderLoop, 1);
  EXPECT_FALSE(rem.vectorized);
  EXPECT_EQ(rem.step, 1);
  // Packed instructions exist in the main body only.
  bool sawPacked = false;
  for (std::uint32_t b : main.bodyBlocks)
    for (const MirInst &inst : fn->blocks[b].insts)
      if (inst.packed)
        sawPacked = true;
  EXPECT_TRUE(sawPacked);
  for (std::uint32_t b : rem.bodyBlocks)
    for (const MirInst &inst : fn->blocks[b].insts)
      EXPECT_FALSE(inst.packed);
}

TEST(Vectorizer, ReductionGetsHorizontalAddEpilogue) {
  auto l = lower("double f(double* a, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + a[i];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  EXPECT_EQ(countOps(*fn, MirOp::FHAdd), 1u);
}

TEST(Vectorizer, GatherAccessRejected) {
  auto l = lower("double f(double* a, int* idx, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + a[idx[i]];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

TEST(Vectorizer, CallInBodyRejected) {
  auto l = lower("double g(double x) { return x; }\n"
                 "void f(double* a, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    a[i] = g(a[i]);\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

TEST(Vectorizer, BranchInBodyRejected) {
  auto l = lower("void f(double* a, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    if (i % 2 == 0) { a[i] = 0.0; }\n"
                 "  }\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  for (const LoopDescriptor &loop : fn->loops)
    EXPECT_FALSE(loop.vectorized);
}

// ----------------------------------------------------------------- codegen

TEST(RegAlloc, AssignsDistinctRegistersToOverlappingIntervals) {
  auto l = lower("int f(int a, int b, int c) { return a + b * c; }", false,
                 false);
  const MirFunction *fn = l.module.find("f");
  auto alloc = codegen::allocateRegisters(*fn);
  // Parameters are live simultaneously: if all in registers, they must
  // be distinct.
  std::set<isa::Reg> used;
  for (VReg p : fn->paramRegs) {
    const auto &a = alloc.of(p);
    if (a.inRegister)
      EXPECT_TRUE(used.insert(a.reg).second) << "register reused";
  }
}

TEST(RegAlloc, ValuesLiveAcrossCallsAreStackHomed) {
  auto l = lower("double g(double x) { return x; }\n"
                 "double f(double a) {\n"
                 "  double keep = a * 2.0;\n"
                 "  double r = g(a);\n"
                 "  return keep + r;\n"
                 "}",
                 false, false);
  const MirFunction *fn = l.module.find("f");
  auto alloc = codegen::allocateRegisters(*fn);
  // Find the vreg of 'keep': the Copy receiving the FMul's result.
  VReg keep = kNoVReg;
  VReg mulTemp = kNoVReg;
  for (const MirBlock &b : fn->blocks)
    for (const MirInst &inst : b.insts) {
      if (inst.op == MirOp::FMul)
        mulTemp = inst.dst;
      if (inst.op == MirOp::Copy && inst.a == mulTemp &&
          mulTemp != kNoVReg)
        keep = inst.dst;
    }
  ASSERT_NE(keep, kNoVReg);
  // 'keep' lives across the call: must be spilled (caller-clobbers-all).
  EXPECT_FALSE(alloc.of(keep).inRegister);
}

TEST(RegAlloc, UnassignedVRegsThrowOutOfRange) {
  auto l = lower("int f(int a) { return a + 1; }", false, false);
  MirFunction fn = *l.module.find("f");
  const VReg untouched = fn.newVReg(MirType::I64);
  auto alloc = codegen::allocateRegisters(fn);
  EXPECT_NO_THROW(alloc.of(fn.paramRegs[0]));
  EXPECT_THROW(alloc.of(untouched), std::out_of_range);
  EXPECT_THROW(alloc.of(untouched + 1), std::out_of_range);
}

TEST(Codegen, ExpansionCoversEveryInstruction) {
  auto l = lower("double f(double* v, int n) {\n"
                 "  double s = 0.0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    s = s + v[i];\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"f", 0}};
  auto result = codegen::generateCode(*fn, ids);
  // Every machine instruction is either prologue or owned by exactly one
  // MIR instruction.
  std::vector<int> owners(result.machine.instructions.size(), 0);
  for (std::uint32_t mi : result.map.prologue)
    ++owners[mi];
  for (const auto &block : result.map.expansion)
    for (const auto &instList : block)
      for (std::uint32_t mi : instList)
        ++owners[mi];
  for (std::size_t i = 0; i < owners.size(); ++i)
    EXPECT_EQ(owners[i], 1) << "machine instr " << i << " "
                            << result.machine.instructions[i].str();
}

TEST(Codegen, BranchesResolveToValidOffsets) {
  auto l = lower("int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }\n"
                 "  }\n"
                 "  return s;\n"
                 "}");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"f", 0}};
  auto result = codegen::generateCode(*fn, ids);
  std::set<std::uint64_t> starts;
  for (const auto &inst : result.machine.instructions)
    starts.insert(inst.address);
  std::uint64_t end = result.machine.instructions.empty()
                          ? 0
                          : result.machine.instructions.back().address +
                                result.machine.instructions.back()
                                    .encodedSize();
  for (const auto &inst : result.machine.instructions) {
    if (isa::isConditionalJump(inst.opcode) ||
        isa::isUnconditionalJump(inst.opcode)) {
      ASSERT_FALSE(inst.operands.empty());
      ASSERT_EQ(inst.operands[0].kind, isa::OperandKind::Imm);
      std::uint64_t target =
          static_cast<std::uint64_t>(inst.operands[0].imm);
      EXPECT_TRUE(starts.count(target) || target == end)
          << inst.str() << " jumps outside the function";
    }
  }
}

TEST(Codegen, CallsCarryFunctionIds) {
  auto l = lower("int g(int x) { return x; }\n"
                 "int f() { return g(1); }");
  const MirFunction *fn = l.module.find("f");
  std::map<std::string, int> ids{{"g", 0}, {"f", 1}};
  auto result = codegen::generateCode(*fn, ids);
  bool sawCall = false;
  for (const auto &inst : result.machine.instructions) {
    if (isa::isCall(inst.opcode)) {
      sawCall = true;
      ASSERT_EQ(inst.operands[0].kind, isa::OperandKind::Label);
      EXPECT_EQ(inst.operands[0].imm, 0); // id of g
    }
  }
  EXPECT_TRUE(sawCall);
}

TEST(Codegen, ExternCallsGetNegativeIds) {
  EXPECT_LT(codegen::externCallId("mc_print"), 0);
  EXPECT_NE(codegen::externCallId("mc_print"),
            codegen::externCallId("mc_clock"));
}

} // namespace
} // namespace mira::mir
