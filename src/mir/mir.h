// MIR: the three-address mid-level IR of the embedded compiler.
//
// The AST is lowered to MIR, optimized (constant folding, copy
// propagation, DCE, bound hoisting, loop vectorization), then lowered to
// the synthetic machine ISA. The gap between source statements and the
// optimized binary is exactly what Mira exploits by analyzing both sides
// (paper Sec. I: "code transformations performed by optimizing compilers
// would cause non-negligible effects on the analysis accuracy").
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace mira::mir {

using VReg = std::uint32_t;
inline constexpr VReg kNoVReg = 0xFFFFFFFF;

enum class MirType : std::uint8_t { I64, F64, F32, Ptr, Void };

const char *toString(MirType type);
/// Byte size of a value of this type in simulator memory.
std::size_t typeSize(MirType type);

enum class MirCmp : std::uint8_t { Lt, Le, Gt, Ge, Eq, Ne };
const char *toString(MirCmp cmp);
MirCmp negateCmp(MirCmp cmp);

enum class MirOp : std::uint8_t {
  Nop,
  ConstI, // dst = imm
  ConstF, // dst = fimm
  Copy,   // dst = a
  // integer arithmetic (I64)
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Neg,
  IMin,
  IMax,
  // bitwise
  And,
  Or,
  Xor,
  Not,
  Shl,
  Shr,
  // comparisons: dst(I64) = a REL b
  ICmp,
  FCmp,
  // floating point (type F64 or F32; `packed` = 2-lane SSE2)
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FSqrt,
  FAbs,
  FMin,
  FMax,
  FHAdd,  // dst = lane0(a) + lane1(a): reduces a packed accumulator
  FSplat, // dst(packed) = {a.lane0, a.lane0}: broadcast a scalar
  // memory: addr = base + index*scale + disp
  Load,  // dst = *(type*)addr
  Store, // *(type*)addr = a
  Lea,   // dst(Ptr) = addr
  Alloca, // dst(Ptr) = allocate a (count) * imm (element size) bytes
  // conversions
  Cast, // dst(type) = convert a (fromType)
  // control flow (block terminators)
  Jump,   // goto target
  Branch, // if (a != 0) goto target else goto targetFalse
  Ret,    // return a (or nothing when a == kNoVReg)
  // calls
  Call, // dst = callee(args...); externCall => opaque library function
};

const char *toString(MirOp op);

struct MirInst {
  MirOp op = MirOp::Nop;
  MirType type = MirType::I64;
  VReg dst = kNoVReg;
  VReg a = kNoVReg;
  VReg b = kNoVReg;
  std::int64_t imm = 0;
  double fimm = 0;
  MirCmp cmp = MirCmp::Lt;
  MirType fromType = MirType::I64; // Cast source type

  // addressing for Load/Store/Lea: base + index*scale + disp
  VReg base = kNoVReg;
  VReg index = kNoVReg;
  std::int32_t scale = 1;
  std::int32_t disp = 0;

  // control flow
  std::uint32_t target = 0;
  std::uint32_t targetFalse = 0;

  // calls
  std::string callee; // qualified name
  std::vector<VReg> args;
  bool externCall = false;

  /// SSE2 packed (two f64 lanes) — set by the vectorizer.
  bool packed = false;

  /// Source line for the DWARF-style line table.
  std::uint32_t line = 0;

  bool isTerminator() const {
    return op == MirOp::Jump || op == MirOp::Branch || op == MirOp::Ret;
  }
  /// Call `f` on each register this instruction reads, in operand order:
  /// the one statement of what an instruction reads, shared by every
  /// pass, the register allocator and codegen. Allocation-free. On a
  /// non-const instruction `f` gets a `VReg &` and may rewrite the use.
  template <typename F> void forEachUse(F &&f) const { visitUses(*this, f); }
  template <typename F> void forEachUse(F &&f) { visitUses(*this, f); }
  /// The registers forEachUse visits, in the same order.
  std::vector<VReg> uses() const;
  /// Register written (kNoVReg if none).
  VReg def() const;
  bool hasSideEffects() const {
    return op == MirOp::Store || op == MirOp::Call || op == MirOp::Alloca ||
           isTerminator();
  }

  std::string str() const;

private:
  template <typename Inst, typename F> static void visitUses(Inst &inst, F &f) {
    auto use = [&f](auto &r) {
      if (r != kNoVReg)
        f(r);
    };
    switch (inst.op) {
    case MirOp::Load:
    case MirOp::Lea:
      use(inst.base);
      use(inst.index);
      break;
    case MirOp::Store:
      use(inst.a);
      use(inst.base);
      use(inst.index);
      break;
    case MirOp::Call:
      for (auto &r : inst.args)
        use(r);
      break;
    case MirOp::Alloca:
      use(inst.a);
      break;
    default:
      use(inst.a);
      use(inst.b);
      break;
    }
  }
};

struct MirBlock {
  std::uint32_t id = 0;
  std::vector<MirInst> insts;

  const MirInst *terminator() const {
    return insts.empty() || !insts.back().isTerminator() ? nullptr
                                                         : &insts.back();
  }
  /// Call `f` on each successor block id: a Jump's target, a Branch's
  /// taken then fall-through target.
  template <typename F> void forEachSuccessor(F &&f) const {
    const MirInst *term = terminator();
    if (!term)
      return;
    if (term->op == MirOp::Jump || term->op == MirOp::Branch)
      f(term->target);
    if (term->op == MirOp::Branch)
      f(term->targetFalse);
  }
  /// The ids forEachSuccessor visits, in the same order.
  std::vector<std::uint32_t> successors() const;
};

/// A natural counted loop recognized at lowering time (from the source
/// SCoP) and updated by the vectorizer. Drives vectorization, invariant
/// hoisting, machine loop emission, and the simulator's fast-forward mode.
struct LoopDescriptor {
  std::uint32_t preheader = 0;
  std::uint32_t header = 0;     // contains ICmp + Branch only
  std::uint32_t latch = 0;      // induction += step; Jump header
  std::uint32_t exit = 0;
  std::set<std::uint32_t> bodyBlocks; // excludes header and latch
  VReg induction = kNoVReg;
  VReg limit = kNoVReg; // hoisted loop-invariant bound (in preheader)
  MirCmp rel = MirCmp::Lt; // induction REL limit continues the loop
  std::int64_t step = 1;
  std::uint32_t sourceLine = 0;
  /// '#pragma @Simulate {ff:yes}': the workload asserts that skipping this
  /// loop's memory side effects cannot change later control flow, enabling
  /// simulator fast-forward (validated against exact mode in tests).
  bool ffEligible = false;
  /// Set by the vectorizer on the main vector loop.
  bool vectorized = false;
  /// Index of the scalar remainder loop descriptor (or -1).
  int remainderLoop = -1;
};

struct MirFunction {
  std::string name; // qualified source name
  std::vector<VReg> paramRegs;
  std::vector<MirType> paramTypes;
  MirType retType = MirType::Void;
  std::vector<MirBlock> blocks; // blocks[0] is the entry
  std::vector<MirType> vregTypes;
  std::vector<LoopDescriptor> loops;

  VReg newVReg(MirType type) {
    vregTypes.push_back(type);
    return static_cast<VReg>(vregTypes.size() - 1);
  }
  MirType typeOf(VReg r) const { return vregTypes[r]; }
  std::uint32_t newBlock() {
    MirBlock b;
    b.id = static_cast<std::uint32_t>(blocks.size());
    blocks.push_back(std::move(b));
    return blocks.back().id;
  }

  std::string str() const;
};

struct MirModule {
  std::vector<MirFunction> functions;

  MirFunction *find(const std::string &name);
  const MirFunction *find(const std::string &name) const;
  std::string str() const;
};

} // namespace mira::mir
