#include "binast/binast.h"

#include <algorithm>
#include <utility>

#include "isa/encoding.h"

namespace mira::binast {

using isa::Instruction;
using isa::Opcode;
using isa::OperandKind;

std::map<std::uint32_t, std::size_t> AsmFunction::lineCounts() const {
  std::map<std::uint32_t, std::size_t> out;
  for (const AsmInstruction &ai : instructions)
    ++out[ai.line];
  return out;
}

int AsmFunction::innermostLoopOf(std::uint32_t blockId) const {
  int best = -1;
  std::size_t bestSize = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (!loops[i].blocks.count(blockId))
      continue;
    if (best < 0 || loops[i].blocks.size() < bestSize) {
      best = static_cast<int>(i);
      bestSize = loops[i].blocks.size();
    }
  }
  return best;
}

const AsmFunction *BinaryAst::find(const std::string &name) const {
  for (const AsmFunction &fn : functions)
    if (fn.name == name)
      return &fn;
  return nullptr;
}

namespace {

/// Build basic blocks from a decoded instruction stream. Leaders: offset
/// 0, jump targets, instructions following control transfers.
void buildBlocks(AsmFunction &fn) {
  std::set<std::uint64_t> leaders;
  if (!fn.instructions.empty())
    leaders.insert(fn.instructions.front().inst.address);
  for (const AsmInstruction &ai : fn.instructions) {
    const Instruction &inst = ai.inst;
    if (isa::isConditionalJump(inst.opcode) ||
        isa::isUnconditionalJump(inst.opcode)) {
      if (!inst.operands.empty() &&
          inst.operands[0].kind == OperandKind::Imm)
        leaders.insert(static_cast<std::uint64_t>(inst.operands[0].imm));
    }
    if (isa::isControlTransfer(inst.opcode) && !isa::isCall(inst.opcode)) {
      std::uint64_t next = inst.address + inst.encodedSize();
      leaders.insert(next);
    }
  }

  std::map<std::uint64_t, std::uint32_t> blockAt; // startAddress -> id
  AsmBlock current;
  bool open = false;
  for (std::uint32_t i = 0; i < fn.instructions.size(); ++i) {
    const AsmInstruction &ai = fn.instructions[i];
    if (leaders.count(ai.inst.address)) {
      if (open)
        fn.blocks.push_back(std::move(current));
      current = AsmBlock{};
      current.id = static_cast<std::uint32_t>(fn.blocks.size());
      current.startAddress = ai.inst.address;
      open = true;
    }
    current.instrIndices.push_back(i);
  }
  if (open)
    fn.blocks.push_back(std::move(current));
  for (const AsmBlock &b : fn.blocks)
    blockAt[b.startAddress] = b.id;

  // Successors.
  for (AsmBlock &b : fn.blocks) {
    if (b.instrIndices.empty())
      continue;
    const Instruction &last =
        fn.instructions[b.instrIndices.back()].inst;
    auto addSucc = [&](std::uint64_t addr) {
      auto it = blockAt.find(addr);
      if (it != blockAt.end())
        b.successors.push_back(it->second);
    };
    std::uint64_t fallthrough = last.address + last.encodedSize();
    if (isa::isUnconditionalJump(last.opcode)) {
      if (!last.operands.empty() &&
          last.operands[0].kind == OperandKind::Imm)
        addSucc(static_cast<std::uint64_t>(last.operands[0].imm));
    } else if (isa::isConditionalJump(last.opcode)) {
      if (!last.operands.empty() &&
          last.operands[0].kind == OperandKind::Imm)
        addSucc(static_cast<std::uint64_t>(last.operands[0].imm));
      addSucc(fallthrough);
    } else if (isa::isReturn(last.opcode)) {
      // no successors
    } else {
      addSucc(fallthrough);
    }
  }
}

/// Predecessor lists indexed by block id, built once per function and
/// shared by the dominator pass and loop-body collection.
using PredecessorLists = std::vector<std::vector<std::uint32_t>>;

PredecessorLists predecessorsOf(const AsmFunction &fn) {
  PredecessorLists preds(fn.blocks.size());
  for (const AsmBlock &b : fn.blocks)
    for (std::uint32_t s : b.successors)
      preds[s].push_back(b.id);
  return preds;
}

constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

/// Immediate dominators by Cooper, Harvey and Kennedy ("A Simple, Fast
/// Dominance Algorithm", 2001): iterate over reverse postorder from the
/// entry (block 0), intersecting the idom chains of the already-processed
/// predecessors, until nothing changes. The entry is its own idom; a
/// block unreachable from the entry keeps kNoBlock, and its edges are
/// ignored, so it neither dominates nor is dominated by anything.
std::vector<std::uint32_t> immediateDominators(const AsmFunction &fn,
                                               const PredecessorLists &preds) {
  const std::size_t n = fn.blocks.size();
  std::vector<std::uint32_t> idom(n, kNoBlock);
  if (n == 0)
    return idom;

  // Iterative DFS postorder over the blocks reachable from the entry.
  std::vector<std::uint32_t> postIndex(n, kNoBlock);
  std::vector<std::uint32_t> postorder;
  postorder.reserve(n);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  std::vector<bool> seen(n, false);
  stack.push_back({0, 0});
  seen[0] = true;
  while (!stack.empty()) {
    auto &[block, next] = stack.back();
    const std::vector<std::uint32_t> &succs = fn.blocks[block].successors;
    if (next < succs.size()) {
      const std::uint32_t s = succs[next++];
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back({s, 0});
      }
      continue;
    }
    postIndex[block] = static_cast<std::uint32_t>(postorder.size());
    postorder.push_back(block);
    stack.pop_back();
  }

  auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (postIndex[a] < postIndex[b])
        a = idom[a];
      while (postIndex[b] < postIndex[a])
        b = idom[b];
    }
    return a;
  };

  idom[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
      const std::uint32_t b = *it;
      if (b == 0)
        continue;
      std::uint32_t newIdom = kNoBlock;
      for (std::uint32_t p : preds[b]) {
        if (idom[p] == kNoBlock)
          continue; // unreachable, or not processed yet this pass
        newIdom = newIdom == kNoBlock ? p : intersect(p, newIdom);
      }
      if (newIdom != idom[b]) {
        idom[b] = newIdom;
        changed = true;
      }
    }
  }
  return idom;
}

/// True when `header` dominates `block`: walk the idom chain up from
/// `block` to the entry. Unreachable blocks are dominated by nothing.
bool dominates(const std::vector<std::uint32_t> &idom, std::uint32_t header,
               std::uint32_t block) {
  if (idom[block] == kNoBlock)
    return false;
  while (block != header) {
    if (block == 0)
      return false;
    block = idom[block];
  }
  return true;
}

/// Natural-loop discovery: a back edge is u -> h where h dominates u;
/// the loop body is collected by walking predecessors from the latch
/// until the header. Unreachable blocks are in no loop.
void findLoops(AsmFunction &fn) {
  const PredecessorLists preds = predecessorsOf(fn);
  const std::vector<std::uint32_t> idom = immediateDominators(fn, preds);

  for (const AsmBlock &b : fn.blocks) {
    for (std::uint32_t succ : b.successors) {
      if (!dominates(idom, succ, b.id))
        continue; // not a back edge (header must dominate the latch)
      // back edge b -> succ
      BinaryLoop loop;
      loop.headerBlock = succ;
      loop.latchBlock = b.id;
      loop.blocks.insert(succ);
      std::vector<std::uint32_t> work{b.id};
      while (!work.empty()) {
        std::uint32_t n = work.back();
        work.pop_back();
        if (loop.blocks.count(n))
          continue;
        loop.blocks.insert(n);
        for (std::uint32_t p : preds[n])
          if (idom[p] != kNoBlock)
            work.push_back(p);
      }

      // Induction step: the latch's 'add reg, imm' closest to the jump.
      const AsmBlock &latch = fn.blocks[b.id];
      for (auto it = latch.instrIndices.rbegin();
           it != latch.instrIndices.rend(); ++it) {
        const Instruction &inst = fn.instructions[*it].inst;
        if (inst.opcode == Opcode::ADD && inst.operands.size() == 2 &&
            inst.operands[0].kind == OperandKind::Reg &&
            inst.operands[1].kind == OperandKind::Reg) {
          // add dst, stepReg — the step constant was loaded by a MOV just
          // before; find it.
          isa::Reg stepReg = inst.operands[1].reg;
          for (auto it2 = it; it2 != latch.instrIndices.rend(); ++it2) {
            const Instruction &prev = fn.instructions[*it2].inst;
            if (prev.opcode == Opcode::MOV && prev.operands.size() == 2 &&
                prev.operands[0].kind == OperandKind::Reg &&
                prev.operands[0].reg == stepReg &&
                prev.operands[1].kind == OperandKind::Imm) {
              loop.step = prev.operands[1].imm;
              loop.inductionReg = inst.operands[0].reg;
              break;
            }
          }
          if (loop.step)
            break;
        }
        if (inst.opcode == Opcode::ADD && inst.operands.size() == 2 &&
            inst.operands[0].kind == OperandKind::Reg &&
            inst.operands[1].kind == OperandKind::Imm) {
          loop.step = inst.operands[1].imm;
          loop.inductionReg = inst.operands[0].reg;
          break;
        }
      }

      // Instruction accounting and source line.
      const AsmBlock &header = fn.blocks[loop.headerBlock];
      loop.headerInstrCount = header.instrIndices.size();
      for (std::uint32_t idx : header.instrIndices)
        if (!loop.sourceLine && fn.instructions[idx].line)
          loop.sourceLine = fn.instructions[idx].line;
      for (std::uint32_t blk : loop.blocks) {
        if (blk == loop.headerBlock)
          continue;
        for (std::uint32_t idx : fn.blocks[blk].instrIndices) {
          ++loop.bodyInstrCount;
          ++loop.bodyLineCounts[fn.instructions[idx].line];
        }
      }
      fn.loops.push_back(std::move(loop));
    }
  }
}

} // namespace

std::optional<BinaryAst> buildBinaryAst(const objfile::MiraObject &object,
                                        DiagnosticEngine &diags) {
  BinaryAst ast;
  for (const objfile::FunctionSymbol &sym : object.symbols) {
    AsmFunction fn;
    fn.name = sym.name;
    fn.id = sym.id;
    fn.objectOffset = sym.offset;

    std::vector<std::uint8_t> bytes(
        object.text.begin() + static_cast<std::ptrdiff_t>(sym.offset),
        object.text.begin() + static_cast<std::ptrdiff_t>(sym.offset +
                                                          sym.size));
    auto decoded = isa::decodeFunction(bytes, 0, diags);
    if (!decoded) {
      diags.error({}, "failed to disassemble function '" + sym.name + "'");
      return std::nullopt;
    }
    fn.instructions.reserve(decoded->size());
    for (Instruction &inst : *decoded) {
      AsmInstruction ai;
      ai.line = object.lineForAddress(sym.offset + inst.address);
      ai.inst = std::move(inst);
      fn.instructions.push_back(std::move(ai));
    }
    buildBlocks(fn);
    findLoops(fn);
    ast.functions.push_back(std::move(fn));
  }
  return ast;
}

} // namespace mira::binast
