#include "codegen/regalloc.h"

#include <algorithm>
#include <iterator>

namespace mira::codegen {

using mir::kNoVReg;
using mir::MirBlock;
using mir::MirFunction;
using mir::MirInst;
using mir::MirOp;
using mir::MirType;
using mir::VReg;

namespace {

bool isFPType(MirType t) { return t == MirType::F64 || t == MirType::F32; }

const isa::Reg kGPRPool[] = {
    isa::Reg::RAX, isa::Reg::RBX, isa::Reg::RCX, isa::Reg::RDX,
    isa::Reg::RSI, isa::Reg::RDI, isa::Reg::R8,  isa::Reg::R9,
    isa::Reg::R12, isa::Reg::R13,
};
const isa::Reg kXMMPool[] = {
    isa::Reg::XMM0, isa::Reg::XMM1,  isa::Reg::XMM2,  isa::Reg::XMM3,
    isa::Reg::XMM4, isa::Reg::XMM5,  isa::Reg::XMM6,  isa::Reg::XMM7,
    isa::Reg::XMM8, isa::Reg::XMM9,  isa::Reg::XMM10, isa::Reg::XMM11,
    isa::Reg::XMM12, isa::Reg::XMM13,
};

struct Interval {
  VReg vreg = kNoVReg; // kNoVReg: the register is never touched
  std::size_t start = 0;
  std::size_t end = 0;
  bool fp = false;
  bool crossesCall = false;
};

/// A set of physical registers, bit regIndex(r) per register.
using RegMask = std::uint64_t;
static_assert(static_cast<int>(isa::Reg::NONE) <= 64,
              "every register needs a bit in RegMask");

RegMask maskOf(const isa::Reg *begin, const isa::Reg *end) {
  RegMask mask = 0;
  for (const isa::Reg *r = begin; r != end; ++r)
    mask |= RegMask{1} << isa::regIndex(*r);
  return mask;
}

} // namespace

AllocationResult allocateRegisters(const MirFunction &fn) {
  // Linear positions.
  std::vector<std::pair<std::size_t, std::size_t>> blockSpan(
      fn.blocks.size()); // [startPos, endPos)
  std::size_t pos = 0;
  std::vector<std::size_t> callPositions;
  std::vector<Interval> intervals(fn.vregTypes.size());

  auto touch = [&](VReg r, std::size_t p) {
    Interval &iv = intervals[r];
    if (iv.vreg == kNoVReg) {
      iv.vreg = r;
      iv.start = p;
      iv.end = p;
      iv.fp = isFPType(fn.typeOf(r));
    } else {
      iv.start = std::min(iv.start, p);
      iv.end = std::max(iv.end, p);
    }
  };

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    blockSpan[b].first = pos;
    for (const MirInst &inst : fn.blocks[b].insts) {
      inst.forEachUse([&](VReg u) { touch(u, pos); });
      if (inst.def() != kNoVReg)
        touch(inst.def(), pos);
      if (inst.op == MirOp::Call)
        callPositions.push_back(pos);
      ++pos;
    }
    blockSpan[b].second = pos;
  }
  // Parameters are live from position 0.
  for (VReg p : fn.paramRegs)
    touch(p, 0);

  // Intervals of the touched registers, in vreg order.
  std::vector<Interval> order;
  for (const Interval &iv : intervals)
    if (iv.vreg != kNoVReg)
      order.push_back(iv);

  // Back edges: a branch from block b to block t with t <= b forms a loop
  // region [start(t), end(b)). Extend every interval touching the region
  // to span it (conservative; see header). Repeat until stable to handle
  // nested/overlapping regions.
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b)
    fn.blocks[b].forEachSuccessor([&](std::uint32_t succ) {
      if (succ <= b)
        regions.push_back({blockSpan[succ].first, blockSpan[b].second});
    });

  bool changed = true;
  while (changed) {
    changed = false;
    for (Interval &iv : order) {
      for (const auto &[lo, hi] : regions) {
        bool intersects = iv.start < hi && iv.end >= lo;
        if (intersects && (iv.start > lo || iv.end < hi - 1)) {
          iv.start = std::min(iv.start, lo);
          iv.end = std::max(iv.end, hi - 1);
          changed = true;
        }
      }
    }
  }

  for (Interval &iv : order)
    for (std::size_t cp : callPositions)
      if (iv.start < cp && cp < iv.end)
        iv.crossesCall = true;

  // Linear scan.
  std::sort(order.begin(), order.end(), [](const Interval &a,
                                           const Interval &b) {
    return a.start != b.start ? a.start < b.start : a.vreg < b.vreg;
  });

  AllocationResult result;
  result.assignments.resize(fn.vregTypes.size());
  struct Active {
    std::size_t end;
    isa::Reg reg;
    bool fp;
  };
  std::vector<Active> active;
  RegMask freeGPR = maskOf(std::begin(kGPRPool), std::end(kGPRPool));
  RegMask freeXMM = maskOf(std::begin(kXMMPool), std::end(kXMMPool));

  for (const Interval &iv : order) {
    // Expire finished intervals.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Active &a) {
                                  if (a.end >= iv.start)
                                    return false;
                                  (a.fp ? freeXMM : freeGPR) |=
                                      RegMask{1} << isa::regIndex(a.reg);
                                  return true;
                                }),
                 active.end());
    Assignment &asg = result.assignments[iv.vreg];
    RegMask &pool = iv.fp ? freeXMM : freeGPR;
    if (!iv.crossesCall && pool != 0) {
      // Lowest free register first: the choice is part of the emitted
      // bytes, which the object digests pin.
      asg.inRegister = true;
      asg.reg = static_cast<isa::Reg>(__builtin_ctzll(pool));
      pool &= pool - 1;
      active.push_back({iv.end, asg.reg, iv.fp});
    } else {
      asg.inRegister = false;
      asg.stackSlot = result.numStackSlots++;
    }
  }
  return result;
}

} // namespace mira::codegen
