// Linear-scan register allocation over MIR virtual registers.
//
// Live intervals are computed on the linearized instruction order and
// conservatively extended across loop back edges (any register touching a
// loop region is treated as live through the whole region). Unallocated
// registers get RBP-relative stack slots; spilled operands go through the
// reserved scratch registers (R10/R11, XMM14/XMM15).
//
// The machine code is the structural/count reference of the pipeline (the
// simulator executes MIR with per-instruction machine expansions), so the
// allocator optimizes for realistic instruction mixes and deterministic
// output.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "isa/registers.h"
#include "mir/mir.h"

namespace mira::codegen {

struct Assignment {
  bool inRegister = false;
  isa::Reg reg = isa::Reg::NONE;
  std::int32_t stackSlot = -1; // index; address = [rbp - 8*(slot+1)]
};

struct AllocationResult {
  /// Indexed by vreg; a vreg no instruction touches stays unassigned
  /// (neither in a register nor in a stack slot).
  std::vector<Assignment> assignments;
  std::int32_t numStackSlots = 0;

  /// Throws std::out_of_range for an unassigned vreg.
  const Assignment &of(mir::VReg r) const {
    const Assignment &a = assignments.at(r);
    if (!a.inRegister && a.stackSlot < 0)
      throw std::out_of_range("vreg has no register assignment");
    return a;
  }
};

/// Allocate registers for `fn`. Registers live across calls are always
/// stack-homed (the convention is caller-clobbers-everything).
AllocationResult allocateRegisters(const mir::MirFunction &fn);

} // namespace mira::codegen
