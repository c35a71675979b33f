#include "codegen/codegen.h"

#include <cassert>

namespace mira::codegen {

using isa::Instruction;
using isa::MemRef;
using isa::Opcode;
using isa::Operand;
using isa::Reg;
using mir::kNoVReg;
using mir::MirBlock;
using mir::MirCmp;
using mir::MirFunction;
using mir::MirInst;
using mir::MirOp;
using mir::MirType;
using mir::VReg;

const std::vector<std::string> &externFunctionTable() {
  static const std::vector<std::string> table = {
      "mc_clock", "mc_print", "mc_print_int", "mc_rand"};
  return table;
}

int externCallId(const std::string &name) {
  const auto &table = externFunctionTable();
  for (std::size_t i = 0; i < table.size(); ++i)
    if (table[i] == name)
      return -static_cast<int>(i) - 1;
  return -static_cast<int>(table.size()) - 1; // unknown extern bucket
}

namespace {

bool isFPType(MirType t) { return t == MirType::F64 || t == MirType::F32; }

Opcode jccFor(MirCmp cmp) {
  switch (cmp) {
  case MirCmp::Lt:
    return Opcode::JL;
  case MirCmp::Le:
    return Opcode::JLE;
  case MirCmp::Gt:
    return Opcode::JG;
  case MirCmp::Ge:
    return Opcode::JGE;
  case MirCmp::Eq:
    return Opcode::JE;
  case MirCmp::Ne:
    return Opcode::JNE;
  }
  return Opcode::JE;
}

class CodeGenerator {
public:
  CodeGenerator(const MirFunction &fn,
                const std::map<std::string, int> &functionIds)
      : fn_(fn), functionIds_(functionIds), alloc_(allocateRegisters(fn)),
        useCount_(fn.vregTypes.size(), 0), blockStart_(fn.blocks.size(), 0) {
    for (const MirBlock &block : fn.blocks)
      for (const MirInst &inst : block.insts)
        inst.forEachUse([this](VReg u) { ++useCount_[u]; });
  }

  CodegenResult run() {
    result_.machine.name = fn_.name;
    result_.map.expansion.resize(fn_.blocks.size());

    emitPrologue();

    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      const MirBlock &block = fn_.blocks[b];
      blockStart_[b] =
          static_cast<std::uint32_t>(result_.machine.instructions.size());
      result_.map.expansion[b].resize(block.insts.size());
      pendingCmp_ = false;
      for (std::size_t i = 0; i < block.insts.size(); ++i) {
        current_ = &result_.map.expansion[b][i];
        emitInst(block, block.insts[i], i,
                 static_cast<std::uint32_t>(b));
      }
    }

    // Layout and patch intra-function jump labels to byte offsets.
    result_.machine.layout(0);
    for (Instruction &inst : result_.machine.instructions) {
      if (isa::isCall(inst.opcode))
        continue; // call labels stay as function ids
      for (Operand &op : inst.operands) {
        if (op.kind == isa::OperandKind::Label) {
          assert(op.imm >= 0 &&
                 static_cast<std::size_t>(op.imm) < blockStart_.size());
          std::uint32_t idx = blockStart_[static_cast<std::size_t>(op.imm)];
          std::uint64_t addr =
              idx < result_.machine.instructions.size()
                  ? result_.machine.instructions[idx].address
                  : (result_.machine.instructions.empty()
                         ? 0
                         : result_.machine.instructions.back().address +
                               result_.machine.instructions.back()
                                   .encodedSize());
          op = Operand::makeImm(static_cast<std::int64_t>(addr));
        }
      }
    }
    return std::move(result_);
  }

private:
  std::uint32_t emit(Opcode op, std::vector<Operand> ops,
                     std::uint32_t line) {
    std::uint32_t idx =
        static_cast<std::uint32_t>(result_.machine.instructions.size());
    result_.machine.instructions.emplace_back(op, std::move(ops), line);
    if (current_)
      current_->push_back(idx);
    else
      result_.map.prologue.push_back(idx);
    return idx;
  }

  MemRef slotRef(std::int32_t slot) const {
    MemRef m;
    m.base = Reg::RBP;
    m.disp = -8 * (slot + 1);
    return m;
  }

  bool fpVReg(VReg v) const { return isFPType(fn_.typeOf(v)); }

  /// Physical register currently holding `v`, reloading spilled values
  /// into a scratch register (scratchIdx selects between the two).
  Reg read(VReg v, int scratchIdx, std::uint32_t line) {
    const Assignment &a = alloc_.of(v);
    if (a.inRegister)
      return a.reg;
    if (fpVReg(v)) {
      Reg s = scratchIdx ? Reg::XMM15 : Reg::XMM14;
      emit(fn_.typeOf(v) == MirType::F32 ? Opcode::MOVSS_RM
                                         : Opcode::MOVSD_RM,
           {Operand::makeReg(s), Operand::makeMem(slotRef(a.stackSlot))},
           line);
      return s;
    }
    Reg s = scratchIdx ? Reg::R11 : Reg::R10;
    emit(Opcode::MOV,
         {Operand::makeReg(s), Operand::makeMem(slotRef(a.stackSlot))},
         line);
    return s;
  }

  /// Register to compute the def of `v` into.
  Reg defTarget(VReg v) {
    const Assignment &a = alloc_.of(v);
    if (a.inRegister)
      return a.reg;
    return fpVReg(v) ? Reg::XMM14 : Reg::R10;
  }

  /// Store the computed def back to its home if spilled.
  void finishDef(VReg v, Reg computed, std::uint32_t line) {
    const Assignment &a = alloc_.of(v);
    if (a.inRegister)
      return;
    if (fpVReg(v))
      emit(fn_.typeOf(v) == MirType::F32 ? Opcode::MOVSS_MR
                                         : Opcode::MOVSD_MR,
           {Operand::makeMem(slotRef(a.stackSlot)), Operand::makeReg(computed)},
           line);
    else
      emit(Opcode::MOV,
           {Operand::makeMem(slotRef(a.stackSlot)),
            Operand::makeReg(computed)},
           line);
  }

  MemRef addrOf(const MirInst &inst, std::uint32_t line) {
    MemRef m;
    m.base = read(inst.base, 0, line);
    if (inst.index != kNoVReg) {
      m.index = read(inst.index, 1, line);
      m.scale = static_cast<std::uint8_t>(inst.scale);
    }
    m.disp = inst.disp;
    return m;
  }

  void emitPrologue() {
    current_ = nullptr;
    emit(Opcode::PUSH, {Operand::makeReg(Reg::RBP)}, 0);
    emit(Opcode::MOV, {Operand::makeReg(Reg::RBP), Operand::makeReg(Reg::RSP)},
         0);
    frameSize_ = 8 * alloc_.numStackSlots;
    if (frameSize_ % 16)
      frameSize_ += 8;
    if (frameSize_)
      emit(Opcode::SUB,
           {Operand::makeReg(Reg::RSP), Operand::makeImm(frameSize_)}, 0);

    // Home incoming arguments (System-V-like: int/ptr in RDI,RSI,RDX,RCX,
    // R8,R9; fp in XMM0..XMM7; the rest on the caller's stack frame).
    static const Reg intArg[] = {Reg::RDI, Reg::RSI, Reg::RDX,
                                 Reg::RCX, Reg::R8,  Reg::R9};
    int usedInt = 0, usedFP = 0, stackArgs = 0;
    for (std::size_t i = 0; i < fn_.paramRegs.size(); ++i) {
      VReg p = fn_.paramRegs[i];
      bool fp = fpVReg(p);
      const Assignment &a = alloc_.of(p);
      Operand home = a.inRegister
                         ? Operand::makeReg(a.reg)
                         : Operand::makeMem(slotRef(a.stackSlot));
      if (fp && usedFP < 8) {
        Reg src = isa::xmm(usedFP++);
        emit(a.inRegister ? Opcode::MOVSD_RR : Opcode::MOVSD_MR,
             {home, Operand::makeReg(src)}, 0);
      } else if (!fp && usedInt < 6) {
        Reg src = intArg[usedInt++];
        emit(Opcode::MOV, {home, Operand::makeReg(src)}, 0);
      } else {
        // Stack argument: load from the caller frame.
        MemRef m;
        m.base = Reg::RBP;
        m.disp = 16 + 8 * stackArgs++;
        if (fp) {
          if (a.inRegister) {
            emit(Opcode::MOVSD_RM, {home, Operand::makeMem(m)}, 0);
          } else {
            emit(Opcode::MOVSD_RM,
                 {Operand::makeReg(Reg::XMM14), Operand::makeMem(m)}, 0);
            emit(Opcode::MOVSD_MR, {home, Operand::makeReg(Reg::XMM14)}, 0);
          }
        } else if (a.inRegister) {
          emit(Opcode::MOV, {home, Operand::makeMem(m)}, 0);
        } else {
          emit(Opcode::MOV,
               {Operand::makeReg(Reg::R10), Operand::makeMem(m)}, 0);
          emit(Opcode::MOV, {home, Operand::makeReg(Reg::R10)}, 0);
        }
      }
    }
  }

  void emitEpilogue(std::uint32_t line) {
    if (frameSize_)
      emit(Opcode::ADD,
           {Operand::makeReg(Reg::RSP), Operand::makeImm(frameSize_)}, line);
    emit(Opcode::POP, {Operand::makeReg(Reg::RBP)}, line);
    emit(Opcode::RET, {}, line);
  }

  /// True if the ICmp/FCmp at index i can fuse with a Branch at i+1.
  bool fusesWithNextBranch(const MirBlock &block, std::size_t i) const {
    const MirInst &cmpInst = block.insts[i];
    if (i + 1 >= block.insts.size())
      return false;
    const MirInst &next = block.insts[i + 1];
    if (next.op != MirOp::Branch || next.a != cmpInst.dst ||
        cmpInst.dst == kNoVReg)
      return false;
    // The flag consumer must be the only use.
    std::uint32_t usesInBranch = 0;
    next.forEachUse([&](VReg u) { usesInBranch += u == cmpInst.dst; });
    return useCount_[cmpInst.dst] == usesInBranch;
  }

  void emitInst(const MirBlock &block, const MirInst &inst, std::size_t idx,
                std::uint32_t blockId) {
    std::uint32_t line = inst.line;
    switch (inst.op) {
    case MirOp::Nop:
      break;
    case MirOp::ConstI: {
      Reg d = defTarget(inst.dst);
      emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeImm(inst.imm)},
           line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::ConstF: {
      Reg d = defTarget(inst.dst);
      if (inst.fimm == 0) {
        emit(Opcode::XORPD, {Operand::makeReg(d), Operand::makeReg(d)}, line);
      } else {
        std::int64_t bits;
        static_assert(sizeof(double) == sizeof(std::int64_t));
        __builtin_memcpy(&bits, &inst.fimm, sizeof bits);
        emit(Opcode::MOV,
             {Operand::makeReg(Reg::R10), Operand::makeImm(bits)}, line);
        emit(Opcode::MOVQ_XR,
             {Operand::makeReg(d), Operand::makeReg(Reg::R10)}, line);
      }
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Copy: {
      Reg s = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != s) {
        if (fpVReg(inst.dst))
          emit(inst.packed ? Opcode::MOVAPD_RR : Opcode::MOVSD_RR,
               {Operand::makeReg(d), Operand::makeReg(s)}, line);
        else
          emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(s)}, line);
      }
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Add:
    case MirOp::Sub:
    case MirOp::Mul:
    case MirOp::And:
    case MirOp::Or:
    case MirOp::Xor:
    case MirOp::Shl:
    case MirOp::Shr: {
      Reg a = read(inst.a, 0, line);
      Reg b = read(inst.b, 1, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(a)}, line);
      Opcode op;
      switch (inst.op) {
      case MirOp::Add:
        op = Opcode::ADD;
        break;
      case MirOp::Sub:
        op = Opcode::SUB;
        break;
      case MirOp::Mul:
        op = Opcode::IMUL;
        break;
      case MirOp::And:
        op = Opcode::AND;
        break;
      case MirOp::Or:
        op = Opcode::OR;
        break;
      case MirOp::Xor:
        op = Opcode::XOR;
        break;
      case MirOp::Shl:
        op = Opcode::SHL;
        break;
      default:
        op = Opcode::SHR;
        break;
      }
      emit(op, {Operand::makeReg(d), Operand::makeReg(b)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Div:
    case MirOp::Rem: {
      Reg a = read(inst.a, 0, line);
      Reg b = read(inst.b, 1, line);
      emit(Opcode::MOV, {Operand::makeReg(Reg::RAX), Operand::makeReg(a)},
           line);
      emit(Opcode::CQO, {}, line);
      emit(Opcode::IDIV, {Operand::makeReg(b)}, line);
      Reg d = defTarget(inst.dst);
      emit(Opcode::MOV,
           {Operand::makeReg(d),
            Operand::makeReg(inst.op == MirOp::Div ? Reg::RAX : Reg::RDX)},
           line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Neg: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(a)}, line);
      emit(Opcode::NEG, {Operand::makeReg(d)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Not: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(a)}, line);
      emit(Opcode::NOT, {Operand::makeReg(d)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::IMin:
    case MirOp::IMax: {
      // CMP + MOV + conditional-move stand-in.
      Reg a = read(inst.a, 0, line);
      Reg b = read(inst.b, 1, line);
      Reg d = defTarget(inst.dst);
      emit(Opcode::CMP, {Operand::makeReg(a), Operand::makeReg(b)}, line);
      if (d != a)
        emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(a)}, line);
      emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(b)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::ICmp:
    case MirOp::FCmp: {
      bool fp = inst.op == MirOp::FCmp;
      Reg a = read(inst.a, 0, line);
      Reg b = read(inst.b, 1, line);
      emit(fp ? Opcode::UCOMISD : Opcode::CMP,
           {Operand::makeReg(a), Operand::makeReg(b)}, line);
      if (fusesWithNextBranch(block, idx)) {
        pendingCmp_ = true;
        pendingRel_ = inst.cmp;
      } else {
        Reg d = defTarget(inst.dst);
        emit(Opcode::SETcc, {Operand::makeReg(d)}, line);
        finishDef(inst.dst, d, line);
      }
      break;
    }
    case MirOp::FAdd:
    case MirOp::FSub:
    case MirOp::FMul:
    case MirOp::FDiv:
    case MirOp::FMin:
    case MirOp::FMax: {
      Reg a = read(inst.a, 0, line);
      Reg b = read(inst.b, 1, line);
      Reg d = defTarget(inst.dst);
      bool f32 = inst.type == MirType::F32;
      if (d != a)
        emit(inst.packed ? Opcode::MOVAPD_RR
                         : (f32 ? Opcode::MOVSS_RR : Opcode::MOVSD_RR),
             {Operand::makeReg(d), Operand::makeReg(a)}, line);
      Opcode op;
      switch (inst.op) {
      case MirOp::FAdd:
        op = inst.packed ? Opcode::ADDPD : (f32 ? Opcode::ADDSS : Opcode::ADDSD);
        break;
      case MirOp::FSub:
        op = inst.packed ? Opcode::SUBPD : (f32 ? Opcode::SUBSS : Opcode::SUBSD);
        break;
      case MirOp::FMul:
        op = inst.packed ? Opcode::MULPD : (f32 ? Opcode::MULSS : Opcode::MULSD);
        break;
      case MirOp::FDiv:
        op = inst.packed ? Opcode::DIVPD : (f32 ? Opcode::DIVSS : Opcode::DIVSD);
        break;
      case MirOp::FMin:
        op = inst.packed ? Opcode::MINPD : Opcode::MINSD;
        break;
      default:
        op = inst.packed ? Opcode::MAXPD : Opcode::MAXSD;
        break;
      }
      emit(op, {Operand::makeReg(d), Operand::makeReg(b)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::FNeg: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOVSD_RR, {Operand::makeReg(d), Operand::makeReg(a)},
             line);
      emit(Opcode::XORPD, {Operand::makeReg(d), Operand::makeReg(d)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::FSqrt: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      emit(inst.packed ? Opcode::SQRTPD : Opcode::SQRTSD,
           {Operand::makeReg(d), Operand::makeReg(a)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::FAbs: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOVSD_RR, {Operand::makeReg(d), Operand::makeReg(a)},
             line);
      emit(Opcode::ANDPD, {Operand::makeReg(d), Operand::makeReg(d)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::FHAdd: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOVAPD_RR, {Operand::makeReg(d), Operand::makeReg(a)},
             line);
      emit(Opcode::HADDPD, {Operand::makeReg(d), Operand::makeReg(d)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::FSplat: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      if (d != a)
        emit(Opcode::MOVSD_RR, {Operand::makeReg(d), Operand::makeReg(a)},
             line);
      emit(Opcode::UNPCKLPD, {Operand::makeReg(d), Operand::makeReg(d)},
           line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Load: {
      MemRef m = addrOf(inst, line);
      Reg d = defTarget(inst.dst);
      Opcode op;
      if (inst.packed)
        op = Opcode::MOVAPD_RM;
      else if (inst.type == MirType::F64)
        op = Opcode::MOVSD_RM;
      else if (inst.type == MirType::F32)
        op = Opcode::MOVSS_RM;
      else
        op = Opcode::MOV;
      emit(op, {Operand::makeReg(d), Operand::makeMem(m)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Store: {
      MemRef m = addrOf(inst, line);
      // Use scratch index 0 is taken by base; the value uses the other
      // scratch bank (FP vs GPR do not collide anyway).
      Reg v = read(inst.a, 1, line);
      Opcode op;
      if (inst.packed)
        op = Opcode::MOVAPD_MR;
      else if (inst.type == MirType::F64)
        op = Opcode::MOVSD_MR;
      else if (inst.type == MirType::F32)
        op = Opcode::MOVSS_MR;
      else
        op = Opcode::MOV;
      emit(op, {Operand::makeMem(m), Operand::makeReg(v)}, line);
      break;
    }
    case MirOp::Lea: {
      MemRef m = addrOf(inst, line);
      Reg d = defTarget(inst.dst);
      emit(Opcode::LEA, {Operand::makeReg(d), Operand::makeMem(m)}, line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Alloca: {
      Reg count = read(inst.a, 0, line);
      emit(Opcode::MOV, {Operand::makeReg(Reg::R11), Operand::makeReg(count)},
           line);
      emit(Opcode::IMUL,
           {Operand::makeReg(Reg::R11), Operand::makeImm(inst.imm)}, line);
      emit(Opcode::SUB, {Operand::makeReg(Reg::RSP), Operand::makeReg(Reg::R11)},
           line);
      Reg d = defTarget(inst.dst);
      emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(Reg::RSP)},
           line);
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Cast: {
      Reg a = read(inst.a, 0, line);
      Reg d = defTarget(inst.dst);
      bool fromFP = isFPType(inst.fromType);
      bool toFP = isFPType(inst.type);
      if (!fromFP && toFP) {
        emit(inst.type == MirType::F32 ? Opcode::CVTSI2SS : Opcode::CVTSI2SD,
             {Operand::makeReg(d), Operand::makeReg(a)}, line);
      } else if (fromFP && !toFP) {
        emit(inst.fromType == MirType::F32 ? Opcode::CVTTSS2SI
                                           : Opcode::CVTTSD2SI,
             {Operand::makeReg(d), Operand::makeReg(a)}, line);
      } else if (fromFP && toFP) {
        emit(inst.type == MirType::F32 ? Opcode::CVTSD2SS : Opcode::CVTSS2SD,
             {Operand::makeReg(d), Operand::makeReg(a)}, line);
      } else {
        emit(Opcode::MOVSXD, {Operand::makeReg(d), Operand::makeReg(a)},
             line);
      }
      finishDef(inst.dst, d, line);
      break;
    }
    case MirOp::Jump: {
      // Fallthrough elision: no JMP when the target is the next block.
      if (inst.target != blockId + 1)
        emit(Opcode::JMP, {Operand::makeLabel(inst.target)}, line);
      break;
    }
    case MirOp::Branch: {
      if (pendingCmp_) {
        pendingCmp_ = false;
        emit(jccFor(pendingRel_), {Operand::makeLabel(inst.target)}, line);
      } else {
        Reg c = read(inst.a, 0, line);
        emit(Opcode::TEST, {Operand::makeReg(c), Operand::makeReg(c)}, line);
        emit(Opcode::JNE, {Operand::makeLabel(inst.target)}, line);
      }
      if (inst.targetFalse != blockId + 1)
        emit(Opcode::JMP, {Operand::makeLabel(inst.targetFalse)}, line);
      break;
    }
    case MirOp::Ret: {
      if (inst.a != kNoVReg) {
        Reg v = read(inst.a, 0, line);
        if (fpVReg(inst.a)) {
          if (v != Reg::XMM0)
            emit(Opcode::MOVSD_RR,
                 {Operand::makeReg(Reg::XMM0), Operand::makeReg(v)}, line);
        } else if (v != Reg::RAX) {
          emit(Opcode::MOV, {Operand::makeReg(Reg::RAX), Operand::makeReg(v)},
               line);
        }
      }
      emitEpilogue(line);
      break;
    }
    case MirOp::Call: {
      static const Reg intArg[] = {Reg::RDI, Reg::RSI, Reg::RDX,
                                   Reg::RCX, Reg::R8,  Reg::R9};
      int usedInt = 0, usedFP = 0;
      for (VReg arg : inst.args) {
        Reg src = read(arg, 0, line);
        if (fpVReg(arg)) {
          if (usedFP < 8)
            emit(Opcode::MOVSD_RR,
                 {Operand::makeReg(isa::xmm(usedFP)), Operand::makeReg(src)},
                 line);
          else
            emit(Opcode::PUSH, {Operand::makeReg(Reg::R10)}, line);
          ++usedFP;
        } else {
          if (usedInt < 6)
            emit(Opcode::MOV,
                 {Operand::makeReg(intArg[usedInt]), Operand::makeReg(src)},
                 line);
          else
            emit(Opcode::PUSH, {Operand::makeReg(src)}, line);
          ++usedInt;
        }
      }
      int target;
      if (inst.externCall) {
        target = externCallId(inst.callee);
      } else {
        auto it = functionIds_.find(inst.callee);
        target = it != functionIds_.end() ? it->second : -999;
      }
      emit(Opcode::CALL, {Operand::makeLabel(target)}, line);
      if (inst.dst != kNoVReg) {
        Reg d = defTarget(inst.dst);
        if (fpVReg(inst.dst)) {
          if (d != Reg::XMM0)
            emit(Opcode::MOVSD_RR,
                 {Operand::makeReg(d), Operand::makeReg(Reg::XMM0)}, line);
        } else if (d != Reg::RAX) {
          emit(Opcode::MOV, {Operand::makeReg(d), Operand::makeReg(Reg::RAX)},
               line);
        }
        finishDef(inst.dst, d, line);
      }
      break;
    }
    }
  }

  const MirFunction &fn_;
  const std::map<std::string, int> &functionIds_;
  AllocationResult alloc_;
  /// Reads of each vreg across the whole function.
  std::vector<std::uint32_t> useCount_;
  CodegenResult result_;
  std::vector<std::uint32_t> *current_ = nullptr;
  /// First machine instruction index of each MIR block (a block that
  /// emits nothing maps to the next emitted instruction).
  std::vector<std::uint32_t> blockStart_;
  bool pendingCmp_ = false;
  MirCmp pendingRel_ = MirCmp::Lt;
  std::int64_t frameSize_ = 0;
};

} // namespace

CodegenResult generateCode(const MirFunction &fn,
                           const std::map<std::string, int> &functionIds) {
  CodeGenerator gen(fn, functionIds);
  return gen.run();
}

} // namespace mira::codegen
