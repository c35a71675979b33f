#include "mir/passes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mira::mir {

namespace {

struct ConstValue {
  bool known = false;
  bool isFloat = false;
  std::int64_t i = 0;
  double f = 0;
};

bool evalICmp(MirCmp cmp, std::int64_t a, std::int64_t b) {
  switch (cmp) {
  case MirCmp::Lt:
    return a < b;
  case MirCmp::Le:
    return a <= b;
  case MirCmp::Gt:
    return a > b;
  case MirCmp::Ge:
    return a >= b;
  case MirCmp::Eq:
    return a == b;
  case MirCmp::Ne:
    return a != b;
  }
  return false;
}

// Integer folds compute what the emitted instruction computes:
// ADD/SUB/IMUL/NEG wrap in two's complement, so they are done on
// uint64_t (signed overflow would be undefined here).
std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

/// IDIV faults on a zero divisor and on INT64_MIN / -1; such a division
/// is left to run (and fail) rather than folded.
bool divisionFolds(std::int64_t a, std::int64_t b) {
  return b != 0 && !(a == std::numeric_limits<std::int64_t>::min() && b == -1);
}

bool evalFCmp(MirCmp cmp, double a, double b) {
  switch (cmp) {
  case MirCmp::Lt:
    return a < b;
  case MirCmp::Le:
    return a <= b;
  case MirCmp::Gt:
    return a > b;
  case MirCmp::Ge:
    return a >= b;
  case MirCmp::Eq:
    return a == b;
  case MirCmp::Ne:
    return a != b;
  }
  return false;
}

} // namespace

std::size_t foldConstants(MirFunction &fn) {
  std::size_t rewritten = 0;
  // known[r]: r's constant value in the current block; `set` lists the
  // registers given one, so a block end resets only those entries.
  std::vector<ConstValue> known(fn.vregTypes.size());
  std::vector<VReg> set;
  auto constantOf = [&](VReg r) -> const ConstValue * {
    return r != kNoVReg && known[r].known ? &known[r] : nullptr;
  };
  for (MirBlock &block : fn.blocks) {
    for (MirInst &inst : block.insts) {
      auto lookupI = [&](VReg r, std::int64_t &out) {
        const ConstValue *cv = constantOf(r);
        if (!cv || cv->isFloat)
          return false;
        out = cv->i;
        return true;
      };
      auto lookupF = [&](VReg r, double &out) {
        const ConstValue *cv = constantOf(r);
        if (!cv || !cv->isFloat)
          return false;
        out = cv->f;
        return true;
      };

      std::int64_t ia = 0, ib = 0;
      double fa = 0, fb = 0;
      bool replaced = false;

      switch (inst.op) {
      case MirOp::Add:
      case MirOp::Sub:
      case MirOp::Mul:
      case MirOp::Div:
      case MirOp::Rem:
      case MirOp::And:
      case MirOp::Or:
      case MirOp::Xor:
      case MirOp::Shl:
      case MirOp::Shr:
      case MirOp::IMin:
      case MirOp::IMax:
        if (lookupI(inst.a, ia) && lookupI(inst.b, ib)) {
          std::int64_t v = 0;
          bool ok = true;
          switch (inst.op) {
          case MirOp::Add:
            v = wrapAdd(ia, ib);
            break;
          case MirOp::Sub:
            v = wrapSub(ia, ib);
            break;
          case MirOp::Mul:
            v = wrapMul(ia, ib);
            break;
          case MirOp::Div:
            ok = divisionFolds(ia, ib);
            if (ok)
              v = ia / ib;
            break;
          case MirOp::Rem:
            ok = divisionFolds(ia, ib);
            if (ok)
              v = ia % ib;
            break;
          case MirOp::And:
            v = ia & ib;
            break;
          case MirOp::Or:
            v = ia | ib;
            break;
          case MirOp::Xor:
            v = ia ^ ib;
            break;
          case MirOp::Shl:
            // Counts outside [0, 63] are left to run: the hardware
            // (and the simulator) masks them to 6 bits.
            ok = ib >= 0 && ib <= 63;
            if (ok)
              v = static_cast<std::int64_t>(static_cast<std::uint64_t>(ia)
                                            << ib);
            break;
          case MirOp::Shr:
            ok = ib >= 0 && ib <= 63;
            if (ok)
              v = ia >> ib;
            break;
          case MirOp::IMin:
            v = std::min(ia, ib);
            break;
          case MirOp::IMax:
            v = std::max(ia, ib);
            break;
          default:
            ok = false;
          }
          if (ok) {
            VReg dst = inst.dst;
            std::uint32_t line = inst.line;
            inst = MirInst{};
            inst.op = MirOp::ConstI;
            inst.type = MirType::I64;
            inst.dst = dst;
            inst.imm = v;
            inst.line = line;
            replaced = true;
            ++rewritten;
          }
        }
        break;
      case MirOp::Neg:
        if (lookupI(inst.a, ia)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = wrapSub(0, ia);
          inst.line = line;
          replaced = true;
          ++rewritten;
        }
        break;
      case MirOp::FAdd:
      case MirOp::FSub:
      case MirOp::FMul:
      case MirOp::FDiv:
        if (!inst.packed && lookupF(inst.a, fa) && lookupF(inst.b, fb)) {
          double v = 0;
          switch (inst.op) {
          case MirOp::FAdd:
            v = fa + fb;
            break;
          case MirOp::FSub:
            v = fa - fb;
            break;
          case MirOp::FMul:
            v = fa * fb;
            break;
          case MirOp::FDiv:
            v = fa / fb;
            break;
          default:
            break;
          }
          MirType t = inst.type;
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = MirOp::ConstF;
          inst.type = t;
          inst.dst = dst;
          inst.fimm = v;
          inst.line = line;
          replaced = true;
          ++rewritten;
        }
        break;
      case MirOp::ICmp:
        if (lookupI(inst.a, ia) && lookupI(inst.b, ib)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          bool v = evalICmp(inst.cmp, ia, ib);
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = v ? 1 : 0;
          inst.line = line;
          replaced = true;
          ++rewritten;
        }
        break;
      case MirOp::FCmp:
        if (lookupF(inst.a, fa) && lookupF(inst.b, fb)) {
          VReg dst = inst.dst;
          std::uint32_t line = inst.line;
          bool v = evalFCmp(inst.cmp, fa, fb);
          inst = MirInst{};
          inst.op = MirOp::ConstI;
          inst.type = MirType::I64;
          inst.dst = dst;
          inst.imm = v ? 1 : 0;
          inst.line = line;
          replaced = true;
          ++rewritten;
        }
        break;
      case MirOp::Copy: {
        if (const ConstValue *source = constantOf(inst.a)) {
          ConstValue cv = *source;
          VReg dst = inst.dst;
          MirType t = inst.type;
          std::uint32_t line = inst.line;
          inst = MirInst{};
          inst.op = cv.isFloat ? MirOp::ConstF : MirOp::ConstI;
          inst.type = t;
          inst.dst = dst;
          inst.imm = cv.i;
          inst.fimm = cv.f;
          inst.line = line;
          replaced = true;
          ++rewritten;
        }
        break;
      }
      default:
        break;
      }

      // Update the known constants.
      VReg def = inst.def();
      if (def != kNoVReg) {
        ConstValue &cv = known[def];
        const bool constant = (inst.op == MirOp::ConstI ||
                               inst.op == MirOp::ConstF) &&
                              !inst.packed;
        if (constant && !cv.known)
          set.push_back(def);
        if (inst.op == MirOp::ConstI && constant)
          cv = ConstValue{true, false, inst.imm, 0};
        else if (constant)
          cv = ConstValue{true, true, 0, inst.fimm};
        else
          cv.known = false;
      }
      (void)replaced;
    }
    for (VReg r : set)
      known[r].known = false;
    set.clear();
  }
  return rewritten;
}

std::size_t propagateCopies(MirFunction &fn) {
  std::size_t rewritten = 0;
  // alias[dst] = src for the copies live in the current block
  // (kNoVReg: none); `live` lists the dsts set, so a block end resets
  // only those entries.
  std::vector<VReg> alias(fn.vregTypes.size(), kNoVReg);
  std::vector<VReg> live;
  for (MirBlock &block : fn.blocks) {
    for (MirInst &inst : block.insts) {
      inst.forEachUse([&](VReg &r) {
        if (alias[r] != kNoVReg) {
          r = alias[r];
          ++rewritten;
        }
      });

      VReg def = inst.def();
      if (def != kNoVReg) {
        // Any alias pointing at the redefined register is invalid now, as
        // is an alias FOR the redefined register.
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](VReg dst) {
                                    if (dst != def && alias[dst] != def)
                                      return false;
                                    alias[dst] = kNoVReg;
                                    return true;
                                  }),
                   live.end());
        if (inst.op == MirOp::Copy && !inst.packed && inst.a != def) {
          alias[def] = inst.a;
          live.push_back(def);
        }
      }
    }
    for (VReg dst : live)
      alias[dst] = kNoVReg;
    live.clear();
  }
  return rewritten;
}

std::size_t removeUnreachableBlocks(MirFunction &fn) {
  if (fn.blocks.empty())
    return 0;
  std::vector<char> reachable(fn.blocks.size(), 0);
  std::vector<std::uint32_t> work{0};
  while (!work.empty()) {
    std::uint32_t b = work.back();
    work.pop_back();
    if (reachable[b])
      continue;
    reachable[b] = 1;
    fn.blocks[b].forEachSuccessor(
        [&work](std::uint32_t s) { work.push_back(s); });
  }
  std::size_t removed = 0;
  for (MirBlock &block : fn.blocks) {
    if (!reachable[block.id] && !block.insts.empty()) {
      removed += block.insts.size();
      block.insts.clear();
    }
  }
  return removed;
}

std::size_t eliminateDeadCode(MirFunction &fn) {
  std::size_t removedTotal = 0;
  // Registers that must be preserved regardless of use counts: loop
  // descriptor anchors (induction/limit feed the canonical loop shape).
  // Flags are char, not bool, so _GLIBCXX_ASSERTIONS bounds-checks them.
  const std::size_t numVRegs = fn.vregTypes.size();
  std::vector<char> pinned(numVRegs, 0);
  auto pin = [&](VReg r) {
    if (r != kNoVReg)
      pinned[r] = 1;
  };
  for (const LoopDescriptor &loop : fn.loops) {
    pin(loop.induction);
    pin(loop.limit);
  }
  for (VReg p : fn.paramRegs)
    pin(p);

  std::vector<char> used;
  while (true) {
    used.assign(numVRegs, 0);
    for (const MirBlock &block : fn.blocks)
      for (const MirInst &inst : block.insts)
        inst.forEachUse([&](VReg r) { used[r] = 1; });

    std::size_t removed = 0;
    for (MirBlock &block : fn.blocks) {
      auto dead = [&](const MirInst &inst) {
        VReg def = inst.def();
        return !inst.hasSideEffects() && def != kNoVReg && !used[def] &&
               !pinned[def];
      };
      auto end = std::remove_if(block.insts.begin(), block.insts.end(), dead);
      removed += static_cast<std::size_t>(block.insts.end() - end);
      block.insts.erase(end, block.insts.end());
    }
    removedTotal += removed;
    if (removed == 0)
      break;
  }
  return removedTotal;
}

} // namespace mira::mir
