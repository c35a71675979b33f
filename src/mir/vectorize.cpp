#include "mir/vectorize.h"

#include <algorithm>
#include <map>
#include <set>

namespace mira::mir {

namespace {

struct LoopRegion {
  std::set<std::uint32_t> blocks; // header + body + latch
  std::set<VReg> defs;
};

LoopRegion regionOf(const MirFunction &fn, const LoopDescriptor &loop) {
  LoopRegion r;
  r.blocks.insert(loop.header);
  r.blocks.insert(loop.latch);
  for (std::uint32_t b : loop.bodyBlocks)
    r.blocks.insert(b);
  for (std::uint32_t b : r.blocks)
    for (const MirInst &inst : fn.blocks[b].insts)
      if (inst.def() != kNoVReg)
        r.defs.insert(inst.def());
  return r;
}

bool isInnermost(const MirFunction &fn, const LoopDescriptor &loop) {
  for (const LoopDescriptor &other : fn.loops) {
    if (&other == &loop)
      continue;
    if (loop.bodyBlocks.count(other.header))
      return false;
  }
  return true;
}

struct Plan {
  std::vector<std::size_t> packedInsts; // indices into body insts
  VReg reductionAcc = kNoVReg;          // scalar accumulator (if any)
  std::size_t reductionAddIdx = 0;      // FAdd index in body
  std::size_t reductionCopyIdx = 0;     // Copy acc = t index in body
  std::set<VReg> invariantScalars;      // f64 invariants needing a splat
};

/// Check eligibility of the single body block and build the rewrite plan.
bool planLoop(const MirFunction &fn, const LoopDescriptor &loop,
              const LoopRegion &region, Plan &plan) {
  if (loop.step != 1 || loop.rel != MirCmp::Lt || loop.vectorized)
    return false;
  if (loop.bodyBlocks.size() != 1)
    return false;
  std::uint32_t bodyId = *loop.bodyBlocks.begin();
  const MirBlock &body = fn.blocks[bodyId];
  if (body.insts.empty())
    return false;

  auto isInvariant = [&](VReg r) { return !region.defs.count(r); };

  std::set<VReg> blockDefs;
  for (std::size_t i = 0; i < body.insts.size(); ++i) {
    const MirInst &inst = body.insts[i];
    if (inst.op == MirOp::Jump) {
      if (i + 1 != body.insts.size() || inst.target != loop.latch)
        return false;
      continue;
    }
    switch (inst.op) {
    case MirOp::Load:
      if (inst.type != MirType::F64 || inst.index != loop.induction ||
          inst.scale != 8 || !isInvariant(inst.base))
        return false;
      plan.packedInsts.push_back(i);
      break;
    case MirOp::Store:
      if (inst.type != MirType::F64 || inst.index != loop.induction ||
          inst.scale != 8 || !isInvariant(inst.base))
        return false;
      if (!blockDefs.count(inst.a)) {
        if (!(isInvariant(inst.a) && fn.typeOf(inst.a) == MirType::F64))
          return false;
        plan.invariantScalars.insert(inst.a);
      }
      plan.packedInsts.push_back(i);
      break;
    case MirOp::FAdd:
    case MirOp::FSub:
    case MirOp::FMul:
    case MirOp::FDiv:
    case MirOp::FMin:
    case MirOp::FMax:
    case MirOp::FNeg:
    case MirOp::Copy:
    case MirOp::ConstF: {
      if (inst.type != MirType::F64 || inst.packed)
        return false;
      bool eligible = true;
      inst.forEachUse([&](VReg use) {
        if (use == loop.induction)
          eligible = false; // induction may appear only as an index
        // A loop-carried value is only allowed as the reduction, matched
        // below.
        if (!eligible || blockDefs.count(use) || region.defs.count(use))
          return;
        if (fn.typeOf(use) != MirType::F64)
          eligible = false;
        else
          plan.invariantScalars.insert(use);
      });
      if (!eligible)
        return false;
      plan.packedInsts.push_back(i);
      break;
    }
    default:
      return false; // integer ops, calls, branches: not vectorizable
    }
    if (inst.def() != kNoVReg)
      blockDefs.insert(inst.def());
  }

  // Loop-carried scalars: find registers defined both inside the body and
  // used before their in-body definition (classic reduction shape:
  //   t = fadd acc, x; ...; copy acc = t).
  std::set<VReg> carried;
  {
    std::set<VReg> defined;
    for (const MirInst &inst : body.insts) {
      inst.forEachUse([&](VReg use) {
        if (!defined.count(use) && blockDefs.count(use))
          carried.insert(use);
      });
      if (inst.def() != kNoVReg)
        defined.insert(inst.def());
    }
  }
  if (carried.size() > 1)
    return false;
  if (carried.size() == 1) {
    VReg acc = *carried.begin();
    if (acc == loop.induction || fn.typeOf(acc) != MirType::F64)
      return false;
    // Match: exactly one FAdd using acc, and exactly one Copy acc = tmp
    // where tmp is that FAdd's result; acc has no other body uses/defs.
    int addIdx = -1, copyIdx = -1;
    for (std::size_t i = 0; i < body.insts.size(); ++i) {
      const MirInst &inst = body.insts[i];
      bool matched = true;
      inst.forEachUse([&](VReg use) {
        if (!matched || use != acc)
          return;
        if (inst.op == MirOp::FAdd && addIdx < 0 &&
            (inst.a == acc) != (inst.b == acc))
          addIdx = static_cast<int>(i);
        else if (inst.op == MirOp::Copy)
          matched = false; // acc copied elsewhere
        else if (addIdx < 0 || static_cast<int>(i) != addIdx)
          matched = false; // a use before, or besides, the FAdd
      });
      if (!matched)
        return false;
      if (inst.def() == acc) {
        if (inst.op != MirOp::Copy || copyIdx >= 0 || addIdx < 0 ||
            inst.a != body.insts[static_cast<std::size_t>(addIdx)].dst)
          return false;
        copyIdx = static_cast<int>(i);
      }
    }
    if (addIdx < 0 || copyIdx < 0)
      return false;
    plan.reductionAcc = acc;
    plan.reductionAddIdx = static_cast<std::size_t>(addIdx);
    plan.reductionCopyIdx = static_cast<std::size_t>(copyIdx);
  }
  return true;
}

} // namespace

std::size_t vectorizeLoops(MirFunction &fn) {
  std::size_t vectorizedCount = 0;
  std::size_t numLoops = fn.loops.size();
  for (std::size_t li = 0; li < numLoops; ++li) {
    // Copy the descriptor: we will append to fn.loops (invalidates refs).
    LoopDescriptor loop = fn.loops[li];
    if (!isInnermost(fn, loop))
      continue;
    LoopRegion region = regionOf(fn, loop);
    Plan plan;
    if (!planLoop(fn, loop, region, plan))
      continue;

    std::uint32_t bodyId = *loop.bodyBlocks.begin();
    std::uint32_t line = loop.sourceLine;

    // ---- 1. Clone the scalar loop as the remainder. ----
    std::uint32_t mainExit = fn.newBlock();
    std::uint32_t rHeader = fn.newBlock();
    std::uint32_t rBody = fn.newBlock();
    std::uint32_t rLatch = fn.newBlock();

    {
      MirBlock &hdr = fn.blocks[rHeader];
      MirInst cmpInst;
      cmpInst.op = MirOp::ICmp;
      cmpInst.type = MirType::I64;
      cmpInst.cmp = MirCmp::Lt;
      cmpInst.a = loop.induction;
      cmpInst.b = loop.limit;
      cmpInst.dst = fn.newVReg(MirType::I64);
      cmpInst.line = line;
      hdr.insts.push_back(cmpInst);
      MirInst br;
      br.op = MirOp::Branch;
      br.a = cmpInst.dst;
      br.target = rBody;
      br.targetFalse = loop.exit;
      br.line = line;
      hdr.insts.push_back(br);
    }
    {
      MirBlock &b = fn.blocks[rBody];
      b.insts = fn.blocks[bodyId].insts; // scalar clone, same registers
      if (!b.insts.empty() && b.insts.back().op == MirOp::Jump)
        b.insts.back().target = rLatch;
    }
    {
      MirBlock &l = fn.blocks[rLatch];
      MirInst one;
      one.op = MirOp::ConstI;
      one.type = MirType::I64;
      one.dst = fn.newVReg(MirType::I64);
      one.imm = 1;
      one.line = line;
      l.insts.push_back(one);
      MirInst add;
      add.op = MirOp::Add;
      add.type = MirType::I64;
      add.a = loop.induction;
      add.b = one.dst;
      add.dst = loop.induction;
      add.line = line;
      l.insts.push_back(add);
      MirInst back;
      back.op = MirOp::Jump;
      back.target = rHeader;
      back.line = line;
      l.insts.push_back(back);
    }

    // ---- 2. Preheader: vecEnd = limit - ((limit - ind) & 1); splats. ----
    std::map<VReg, VReg> splatOf;
    {
      MirBlock &pre = fn.blocks[loop.preheader];
      // Insert before the terminator.
      std::vector<MirInst> tail;
      if (!pre.insts.empty() && pre.insts.back().isTerminator()) {
        tail.push_back(pre.insts.back());
        pre.insts.pop_back();
      }
      MirInst cnt;
      cnt.op = MirOp::Sub;
      cnt.type = MirType::I64;
      cnt.a = loop.limit;
      cnt.b = loop.induction;
      cnt.dst = fn.newVReg(MirType::I64);
      cnt.line = line;
      pre.insts.push_back(cnt);
      MirInst oneC;
      oneC.op = MirOp::ConstI;
      oneC.type = MirType::I64;
      oneC.dst = fn.newVReg(MirType::I64);
      oneC.imm = 1;
      oneC.line = line;
      pre.insts.push_back(oneC);
      MirInst rem;
      rem.op = MirOp::And;
      rem.type = MirType::I64;
      rem.a = cnt.dst;
      rem.b = oneC.dst;
      rem.dst = fn.newVReg(MirType::I64);
      rem.line = line;
      pre.insts.push_back(rem);
      MirInst vecEnd;
      vecEnd.op = MirOp::Sub;
      vecEnd.type = MirType::I64;
      vecEnd.a = loop.limit;
      vecEnd.b = rem.dst;
      vecEnd.dst = fn.newVReg(MirType::I64);
      vecEnd.line = line;
      pre.insts.push_back(vecEnd);

      for (VReg inv : plan.invariantScalars) {
        MirInst splat;
        splat.op = MirOp::FSplat;
        splat.type = MirType::F64;
        splat.packed = true;
        splat.a = inv;
        splat.dst = fn.newVReg(MirType::F64);
        splat.line = line;
        pre.insts.push_back(splat);
        splatOf[inv] = splat.dst;
      }

      VReg vacc = kNoVReg;
      if (plan.reductionAcc != kNoVReg) {
        MirInst z;
        z.op = MirOp::ConstF;
        z.type = MirType::F64;
        z.packed = true;
        z.fimm = 0;
        z.dst = fn.newVReg(MirType::F64);
        z.line = line;
        pre.insts.push_back(z);
        vacc = z.dst;
      }
      for (MirInst &t : tail)
        pre.insts.push_back(std::move(t));

      // ---- 3. Rewrite the main loop. ----
      MirBlock &hdr = fn.blocks[loop.header];
      for (MirInst &inst : hdr.insts)
        if (inst.op == MirOp::ICmp && inst.a == loop.induction &&
            inst.b == loop.limit)
          inst.b = vecEnd.dst;
      // False edge of the main header goes to the epilogue, then the
      // remainder loop.
      for (MirInst &inst : hdr.insts)
        if (inst.op == MirOp::Branch && inst.targetFalse == loop.exit)
          inst.targetFalse = mainExit;

      MirBlock &latch = fn.blocks[loop.latch];
      for (MirInst &inst : latch.insts)
        if (inst.op == MirOp::ConstI && inst.imm == 1)
          inst.imm = 2;

      MirBlock &body = fn.blocks[bodyId];
      for (std::size_t idx : plan.packedInsts) {
        MirInst &inst = body.insts[idx];
        inst.packed = true;
        for (auto &[inv, splat] : splatOf) {
          if (inst.op == MirOp::Store && inst.a == inv)
            inst.a = splat;
          if (inst.op != MirOp::Load && inst.op != MirOp::Store) {
            if (inst.a == inv)
              inst.a = splat;
            if (inst.b == inv)
              inst.b = splat;
          }
        }
      }
      if (plan.reductionAcc != kNoVReg) {
        MirInst &add = body.insts[plan.reductionAddIdx];
        if (add.a == plan.reductionAcc)
          add.a = vacc;
        else
          add.b = vacc;
        MirInst &copy = body.insts[plan.reductionCopyIdx];
        copy.dst = vacc;
      }

      // ---- 4. Epilogue block. ----
      MirBlock &ep = fn.blocks[mainExit];
      if (plan.reductionAcc != kNoVReg) {
        MirInst h;
        h.op = MirOp::FHAdd;
        h.type = MirType::F64;
        h.a = vacc;
        h.dst = fn.newVReg(MirType::F64);
        h.line = line;
        ep.insts.push_back(h);
        MirInst addBack;
        addBack.op = MirOp::FAdd;
        addBack.type = MirType::F64;
        addBack.a = plan.reductionAcc;
        addBack.b = h.dst;
        addBack.dst = plan.reductionAcc;
        addBack.line = line;
        ep.insts.push_back(addBack);
      }
      MirInst j;
      j.op = MirOp::Jump;
      j.target = rHeader;
      j.line = line;
      ep.insts.push_back(j);

      // ---- 5. Update descriptors. ----
      LoopDescriptor remainder;
      remainder.preheader = mainExit;
      remainder.header = rHeader;
      remainder.latch = rLatch;
      remainder.exit = loop.exit;
      remainder.bodyBlocks = {rBody};
      remainder.induction = loop.induction;
      remainder.limit = loop.limit;
      remainder.rel = MirCmp::Lt;
      remainder.step = 1;
      remainder.sourceLine = loop.sourceLine;
      remainder.ffEligible = loop.ffEligible;

      loop.vectorized = true;
      loop.step = 2;
      loop.limit = vecEnd.dst;
      loop.exit = mainExit;
      loop.remainderLoop = static_cast<int>(fn.loops.size());
      fn.loops[li] = loop;
      fn.loops.push_back(std::move(remainder));
    }
    ++vectorizedCount;
  }
  return vectorizedCount;
}

} // namespace mira::mir
