// Binary AST: CFG and natural-loop recovery on hand-encoded objects,
// line-table lookup, and the reachability invariant that keeps the
// dominator rule for unreachable blocks out of every model.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "binast/binast.h"
#include "core/compiler.h"
#include "isa/instruction.h"
#include "objfile/objfile.h"
#include "workloads/coverage_suite.h"
#include "workloads/random_kernels.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

using binast::AsmFunction;
using binast::BinaryLoop;
using isa::Opcode;
using isa::Operand;
using isa::Reg;

/// Hand assembler: jump targets are instruction indices, patched to
/// function-relative byte addresses once the function is laid out.
class Assembler {
public:
  void op(Opcode opcode, std::vector<Operand> operands, std::uint32_t line) {
    fn_.instructions.emplace_back(opcode, std::move(operands), line);
  }
  void jump(Opcode opcode, std::size_t target, std::uint32_t line) {
    fixups_.push_back({fn_.instructions.size(), target});
    op(opcode, {Operand::makeImm(0)}, line);
  }

  /// Encode into an object, serialize and re-parse it (the same bytes
  /// round trip the pipeline makes), then disassemble.
  AsmFunction disassemble() {
    fn_.name = "f";
    fn_.layout(0);
    for (auto [at, target] : fixups_)
      fn_.instructions[at].operands[0].imm =
          static_cast<std::int64_t>(fn_.instructions[target].address);
    DiagnosticEngine diags;
    auto parsed = objfile::MiraObject::parse(
        objfile::buildObject({fn_}, {}).serialize(), diags);
    EXPECT_TRUE(parsed.has_value()) << diags.str();
    auto ast = binast::buildBinaryAst(*parsed, diags);
    EXPECT_TRUE(ast.has_value()) << diags.str();
    return ast->functions.at(0);
  }

private:
  isa::MachineFunction fn_;
  std::vector<std::pair<std::size_t, std::size_t>> fixups_;
};

Operand reg(Reg r) { return Operand::makeReg(r); }
Operand imm(std::int64_t v) { return Operand::makeImm(v); }

std::vector<std::vector<std::uint32_t>> blockInstrs(const AsmFunction &fn) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const binast::AsmBlock &b : fn.blocks)
    out.push_back(b.instrIndices);
  return out;
}

using LineCounts = std::map<std::uint32_t, std::size_t>;

TEST(BinaryLoops, SelfLoopIsHeaderAndLatch) {
  Assembler a;
  a.op(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1); // 0
  a.op(Opcode::ADD, {reg(Reg::RCX), imm(1)}, 2); // 1  B1
  a.op(Opcode::CMP, {reg(Reg::RCX), reg(Reg::RDX)}, 2);
  a.jump(Opcode::JL, 1, 2);
  a.op(Opcode::RET, {}, 3); // 4  B2
  AsmFunction fn = a.disassemble();

  EXPECT_EQ(blockInstrs(fn),
            (std::vector<std::vector<std::uint32_t>>{{0}, {1, 2, 3}, {4}}));
  ASSERT_EQ(fn.loops.size(), 1u);
  const BinaryLoop &loop = fn.loops[0];
  EXPECT_EQ(loop.headerBlock, 1u);
  EXPECT_EQ(loop.latchBlock, 1u);
  EXPECT_EQ(loop.blocks, (std::set<std::uint32_t>{1}));
  EXPECT_EQ(loop.step, 1);
  EXPECT_EQ(loop.inductionReg, Reg::RCX);
  EXPECT_EQ(loop.sourceLine, 2u);
  EXPECT_EQ(loop.headerInstrCount, 3u);
  EXPECT_EQ(loop.bodyInstrCount, 0u); // the latch is the header
  EXPECT_TRUE(loop.bodyLineCounts.empty());
  EXPECT_EQ(fn.innermostLoopOf(1), 0);
  EXPECT_EQ(fn.innermostLoopOf(2), -1);
}

TEST(BinaryLoops, NestedLoopsInnerFirst) {
  Assembler a;
  a.op(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1);    // 0  B0
  a.op(Opcode::CMP, {reg(Reg::RCX), reg(Reg::RDX)}, 2); // 1  B1 outer header
  a.jump(Opcode::JGE, 12, 2);                        // 2
  a.op(Opcode::MOV, {reg(Reg::RSI), imm(0)}, 3);    // 3  B2
  a.op(Opcode::CMP, {reg(Reg::RSI), reg(Reg::RDX)}, 4); // 4  B3 inner header
  a.jump(Opcode::JGE, 10, 4);                        // 5
  a.op(Opcode::ADDSD, {reg(Reg::XMM0), reg(Reg::XMM1)}, 5); // 6  B4 latch
  a.op(Opcode::MOV, {reg(Reg::R8), imm(2)}, 4);     // 7  step via a register
  a.op(Opcode::ADD, {reg(Reg::RSI), reg(Reg::R8)}, 4); // 8
  a.jump(Opcode::JMP, 4, 4);                         // 9
  a.op(Opcode::ADD, {reg(Reg::RCX), imm(1)}, 2);    // 10 B5 outer latch
  a.jump(Opcode::JMP, 1, 2);                         // 11
  a.op(Opcode::RET, {}, 6);                          // 12 B6
  AsmFunction fn = a.disassemble();

  EXPECT_EQ(blockInstrs(fn), (std::vector<std::vector<std::uint32_t>>{
                                 {0}, {1, 2}, {3}, {4, 5}, {6, 7, 8, 9},
                                 {10, 11}, {12}}));
  // Back edges are found in block order: B4 -> B3, then B5 -> B1.
  ASSERT_EQ(fn.loops.size(), 2u);
  const BinaryLoop &inner = fn.loops[0];
  EXPECT_EQ(inner.headerBlock, 3u);
  EXPECT_EQ(inner.latchBlock, 4u);
  EXPECT_EQ(inner.blocks, (std::set<std::uint32_t>{3, 4}));
  EXPECT_EQ(inner.step, 2);
  EXPECT_EQ(inner.inductionReg, Reg::RSI);
  EXPECT_EQ(inner.sourceLine, 4u);
  EXPECT_EQ(inner.headerInstrCount, 2u);
  EXPECT_EQ(inner.bodyInstrCount, 4u);
  EXPECT_EQ(inner.bodyLineCounts, (LineCounts{{4, 3}, {5, 1}}));

  const BinaryLoop &outer = fn.loops[1];
  EXPECT_EQ(outer.headerBlock, 1u);
  EXPECT_EQ(outer.latchBlock, 5u);
  EXPECT_EQ(outer.blocks, (std::set<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(outer.step, 1);
  EXPECT_EQ(outer.inductionReg, Reg::RCX);
  EXPECT_EQ(outer.sourceLine, 2u);
  EXPECT_EQ(outer.headerInstrCount, 2u);
  EXPECT_EQ(outer.bodyInstrCount, 9u);
  EXPECT_EQ(outer.bodyLineCounts,
            (LineCounts{{2, 2}, {3, 1}, {4, 5}, {5, 1}}));

  EXPECT_EQ(fn.innermostLoopOf(4), 0);
  EXPECT_EQ(fn.innermostLoopOf(2), 1);
  EXPECT_EQ(fn.innermostLoopOf(6), -1);
}

TEST(BinaryLoops, DiamondHasNoBackEdge) {
  Assembler a;
  a.op(Opcode::CMP, {reg(Reg::RCX), reg(Reg::RDX)}, 1); // 0  B0
  a.jump(Opcode::JL, 4, 1);                          // 1
  a.op(Opcode::MOV, {reg(Reg::RAX), imm(1)}, 2);    // 2  B1
  a.jump(Opcode::JMP, 5, 2);                         // 3
  a.op(Opcode::MOV, {reg(Reg::RAX), imm(2)}, 3);    // 4  B2
  a.op(Opcode::RET, {}, 4);                          // 5  B3 (join)
  AsmFunction fn = a.disassemble();

  EXPECT_EQ(blockInstrs(fn), (std::vector<std::vector<std::uint32_t>>{
                                 {0, 1}, {2, 3}, {4}, {5}}));
  EXPECT_EQ(fn.blocks[0].successors, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(fn.blocks[1].successors, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(fn.blocks[2].successors, (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(fn.loops.empty());
}

TEST(BinaryLoops, UnreachableBlocksAreInNoLoop) {
  // A dead block after `ret` that jumps to itself: a cycle, but not a
  // loop, since nothing reachable leads into it.
  {
    Assembler a;
    a.op(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1); // 0  B0
    a.op(Opcode::RET, {}, 1);                      // 1
    a.op(Opcode::ADD, {reg(Reg::RCX), imm(1)}, 2); // 2  B1 (dead)
    a.jump(Opcode::JMP, 2, 2);                     // 3
    AsmFunction fn = a.disassemble();
    EXPECT_EQ(blockInstrs(fn),
              (std::vector<std::vector<std::uint32_t>>{{0, 1}, {2, 3}}));
    EXPECT_TRUE(fn.loops.empty());
  }
  // A dead block after `ret` that jumps into a live loop's latch: the
  // loop is still found, and the dead block is not part of it.
  {
    Assembler a;
    a.op(Opcode::MOV, {reg(Reg::RCX), imm(0)}, 1);     // 0  B0
    a.op(Opcode::CMP, {reg(Reg::RCX), reg(Reg::RDX)}, 2); // 1  B1 header
    a.jump(Opcode::JGE, 5, 2);                         // 2
    a.op(Opcode::ADD, {reg(Reg::RCX), imm(1)}, 3);     // 3  B2 latch
    a.jump(Opcode::JMP, 1, 3);                         // 4
    a.op(Opcode::RET, {}, 4);                          // 5  B3
    a.op(Opcode::MOV, {reg(Reg::RAX), imm(7)}, 5);     // 6  B4 (dead)
    a.jump(Opcode::JMP, 3, 5);                         // 7
    AsmFunction fn = a.disassemble();
    EXPECT_EQ(blockInstrs(fn), (std::vector<std::vector<std::uint32_t>>{
                                   {0}, {1, 2}, {3, 4}, {5}, {6, 7}}));
    ASSERT_EQ(fn.loops.size(), 1u);
    const BinaryLoop &loop = fn.loops[0];
    EXPECT_EQ(loop.headerBlock, 1u);
    EXPECT_EQ(loop.latchBlock, 2u);
    EXPECT_EQ(loop.blocks, (std::set<std::uint32_t>{1, 2}));
    EXPECT_EQ(loop.step, 1);
    EXPECT_EQ(loop.inductionReg, Reg::RCX);
    EXPECT_EQ(loop.bodyInstrCount, 2u);
    EXPECT_EQ(loop.bodyLineCounts, (LineCounts{{3, 2}}));
    EXPECT_EQ(fn.innermostLoopOf(4), -1);
  }
}

// ------------------------------------------------------------ line table

TEST(LineTable, LookupTakesTheLastEntryAtOrBeforeTheAddress) {
  objfile::MiraObject obj;
  EXPECT_EQ(obj.lineForAddress(0), 0u); // empty table
  obj.lineTable = {{4, 10}, {8, 11}, {8, 12}, {20, 13}};
  EXPECT_EQ(obj.lineForAddress(0), 0u); // before the first entry
  EXPECT_EQ(obj.lineForAddress(3), 0u);
  EXPECT_EQ(obj.lineForAddress(4), 10u);
  EXPECT_EQ(obj.lineForAddress(7), 10u);
  EXPECT_EQ(obj.lineForAddress(8), 12u); // duplicates: the later one wins
  EXPECT_EQ(obj.lineForAddress(19), 12u);
  EXPECT_EQ(obj.lineForAddress(20), 13u);
  EXPECT_EQ(obj.lineForAddress(1000), 13u); // past the last entry
  EXPECT_EQ(obj.lineForAddress(std::numeric_limits<std::uint64_t>::max()),
            13u);
}

TEST(LineTable, DuplicateAddressesSurviveTheRoundTrip) {
  objfile::MiraObject obj;
  obj.lineTable = {{4, 10}, {8, 11}, {8, 12}, {20, 13}};
  DiagnosticEngine diags;
  auto parsed = objfile::MiraObject::parse(obj.serialize(), diags);
  ASSERT_TRUE(parsed.has_value()) << diags.str();
  ASSERT_EQ(parsed->lineTable.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed->lineTable[i].address, obj.lineTable[i].address);
    EXPECT_EQ(parsed->lineTable[i].line, obj.lineTable[i].line);
  }
  EXPECT_EQ(parsed->lineForAddress(8), 12u);
}

TEST(LineTable, WrappingLineProgramIsRejected) {
  // The serializer encodes each advance as an unsigned difference, so an
  // unsorted table yields a program whose address wraps past 2^64.
  objfile::MiraObject obj;
  obj.lineTable = {{std::numeric_limits<std::uint64_t>::max() - 1, 1},
                   {1, 2}};
  DiagnosticEngine diags;
  EXPECT_FALSE(objfile::MiraObject::parse(obj.serialize(), diags).has_value());
  EXPECT_TRUE(diags.containsMessage("overflows")) << diags.str();
}

// ------------------------------------------------- reachability invariant

/// Blocks reachable from block 0, by a plain BFS over successors.
std::vector<bool> reachable(const AsmFunction &fn) {
  std::vector<bool> seen(fn.blocks.size(), false);
  if (fn.blocks.empty())
    return seen;
  std::vector<std::uint32_t> work{0};
  seen[0] = true;
  while (!work.empty()) {
    const std::uint32_t b = work.back();
    work.pop_back();
    for (std::uint32_t s : fn.blocks[b].successors)
      if (!seen[s]) {
        seen[s] = true;
        work.push_back(s);
      }
  }
  return seen;
}

/// The dominator rule for unreachable blocks (binast.h) matters only
/// for an unreachable block with a successor: only such a block can
/// close a cycle or feed a loop body. Optimized code has no unreachable
/// block at all. Unoptimized code keeps one kind, the fallback epilogue
/// after an explicit `return` (DCE removes it when optimizing), which
/// ends in `ret`. So no compiled program can tell the rules apart, and
/// the rule cannot reach a model.
void expectNoLiveUnreachableBlocks(const std::string &name,
                                   const std::string &source) {
  for (bool optimize : {true, false}) {
    core::CompileOptions options;
    options.compiler.optimize = optimize;
    options.compiler.vectorize = optimize;
    DiagnosticEngine diags;
    auto program = core::compileProgram(source, name, options, diags);
    ASSERT_NE(program, nullptr) << name << "\n" << diags.str();
    for (const AsmFunction &fn : program->binaryAst.functions) {
      const std::vector<bool> seen = reachable(fn);
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        if (seen[b])
          continue;
        const std::string where = name + " (optimize=" +
                                  std::to_string(optimize) + "): " + fn.name +
                                  " block " + std::to_string(b);
        EXPECT_FALSE(optimize) << where << " is unreachable";
        EXPECT_TRUE(fn.blocks[b].successors.empty())
            << where << " is unreachable and has successors";
        EXPECT_EQ(fn.innermostLoopOf(static_cast<std::uint32_t>(b)), -1)
            << where;
      }
    }
  }
}

TEST(Reachability, EmbeddedSourcesHaveNoLiveUnreachableBlock) {
  for (const auto &kernel : workloads::coverageSuite())
    expectNoLiveUnreachableBlocks(kernel.name, kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    expectNoLiveUnreachableBlocks(workload.name, *workload.source);
}

TEST(Reachability, SeededKernelsHaveNoLiveUnreachableBlock) {
  std::mt19937 rng(20011);
  for (int i = 0; i < 60; ++i)
    expectNoLiveUnreachableBlocks("kernel.mc", workloads::makeKernel(rng));
  for (int i = 0; i < 40; ++i)
    expectNoLiveUnreachableBlocks("array.mc", workloads::makeArrayKernel(rng));
}

} // namespace
} // namespace mira
