#include "model/serialize.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "isa/opcode.h"
#include "support/binary_io.h"
#include "symbolic/expr.h"
#include "symbolic/interner.h"

namespace mira::model {

namespace {

using symbolic::Expr;
using symbolic::ExprKind;
using symbolic::ExprNode;
using symbolic::ExprNodeRef;

using bio::putI64;
using bio::putString;
using bio::putU32;
using bio::putU8;

// Corrupt data must fail parsing, not exhaust memory or the stack.
constexpr std::size_t kMaxExprDepth = 512;

void putExprNode(std::string &out, const ExprNode &node) {
  putU8(out, static_cast<std::uint8_t>(node.kind));
  switch (node.kind) {
  case ExprKind::IntConst:
    putI64(out, node.value);
    return;
  case ExprKind::Param:
    putString(out, node.name);
    return;
  case ExprKind::Sum:
    putString(out, node.name);
    break; // operands follow (lo, hi, body)
  default:
    break;
  }
  putU32(out, static_cast<std::uint32_t>(node.operands.size()));
  for (const ExprNodeRef &operand : node.operands)
    putExprNode(out, *operand);
}

void putExpr(std::string &out, const Expr &expr) {
  putExprNode(out, expr.node());
}

// ------------------------------------------------------------- readers

// Smallest encodings of the counted elements. A reserve() is capped at
// the number of elements the remaining bytes could hold, so a hostile
// count cannot make the decoder allocate far more than its input.
constexpr std::size_t kMinExprBytes = 5;      // kind tag + name or count
constexpr std::size_t kMinStringBytes = 4;    // length prefix
constexpr std::size_t kMinFunctionBytes = 25; // 2 strings, 4 counts, flag
constexpr std::size_t kMinCountStepBytes = kMinExprBytes + 4 + 4;
constexpr std::size_t kMinCallStepBytes = kMinExprBytes + 4 + 4 + 4;
constexpr std::size_t kOpcodeEntryBytes = 4 + 8;

// Top-level expressions remembered for matching (see Reader::decoded).
constexpr std::size_t kMaxMatchedExprs = 64;

struct Reader : bio::Reader {
  symbolic::ExprInterner &interner;
  // Operands decoded but not yet attached to their node, shared by every
  // level of the recursion. A node is interned straight from its range
  // here, so its operand vector is built only when the node is new, at
  // its exact size, never reserved from an encoded count.
  std::vector<ExprNodeRef> pending;
  // Top-level expressions decoded so far, by their encoded bytes. The
  // encoding is self-delimiting, so input that begins with a decoded
  // span decodes to that span's node: a repeated multiplier or argument
  // binding is matched, not decoded again. Capped so a hostile payload
  // of distinct expressions cannot make matching quadratic.
  std::vector<std::pair<std::string_view, ExprNodeRef>> decoded;

  Reader(const std::string &bytes, std::size_t offset,
         symbolic::ExprInterner &interner)
      : bio::Reader{bytes, offset}, interner(interner) {}

  bool exprNode(ExprNodeRef &out, std::size_t depth);

  bool expr(Expr &out) {
    const std::string_view rest(bytes.data() + offset, remaining());
    for (const auto &[span, node] : decoded) {
      if (rest.compare(0, span.size(), span) == 0) {
        offset += span.size();
        out = Expr::fromNode(node); // already owned: no re-intern
        return true;
      }
    }
    const std::size_t start = offset;
    ExprNodeRef node;
    if (!exprNode(node, 0))
      return false;
    if (decoded.size() < kMaxMatchedExprs)
      decoded.emplace_back(rest.substr(0, offset - start), node);
    out = Expr::fromNode(std::move(node));
    return true;
  }

  /// `count` capped at what the remaining bytes could encode.
  std::size_t bounded(std::uint32_t count, std::size_t minBytes) const {
    return std::min<std::size_t>(count, remaining() / minBytes);
  }
};

// Decodes straight into the interner, children first, so each node is
// built once as its canonical copy. Nodes are interned with the fields
// the builders give them (value 0 and an empty name unless encoded), so
// a decoded expression shares nodes with equal ones built in the same
// interner, and reserializing it reproduces the input bytes.
bool Reader::exprNode(ExprNodeRef &out, std::size_t depth) {
  if (depth > kMaxExprDepth)
    return false;
  std::uint8_t kindTag = 0;
  if (!u8(kindTag))
    return false;
  if (kindTag > static_cast<std::uint8_t>(ExprKind::Sum))
    return false;
  const auto kind = static_cast<ExprKind>(kindTag);
  std::string name;
  switch (kind) {
  case ExprKind::IntConst: {
    std::int64_t value = 0;
    if (!i64(value))
      return false;
    out = interner.intern(kind, value, {}, nullptr, 0);
    return true;
  }
  case ExprKind::Param:
    if (!str(name))
      return false;
    out = interner.intern(kind, 0, name, nullptr, 0);
    return true;
  case ExprKind::Sum:
    if (!str(name))
      return false;
    break;
  default:
    break;
  }
  std::uint32_t count = 0;
  if (!u32(count))
    return false;
  // Every operand costs at least its one-byte kind tag.
  if (count > remaining())
    return false;
  if (kind == ExprKind::Sum && count != 3)
    return false;
  const std::size_t base = pending.size();
  for (std::uint32_t i = 0; i < count; ++i) {
    ExprNodeRef child;
    if (!exprNode(child, depth + 1))
      return false;
    pending.push_back(std::move(child));
  }
  // Interned over the borrowed range: a hit copies nothing.
  out = interner.intern(kind, 0, name, pending.data() + base, count);
  pending.resize(base);
  return true;
}

} // namespace

void serializeModel(const PerformanceModel &model, std::string &out) {
  putString(out, model.sourceFile);
  putU32(out, static_cast<std::uint32_t>(model.functions.size()));
  for (const FunctionModel &fn : model.functions) {
    putString(out, fn.sourceName);
    putString(out, fn.modelName);
    putU32(out, static_cast<std::uint32_t>(fn.paramNames.size()));
    for (const std::string &name : fn.paramNames)
      putString(out, name);
    putU8(out, fn.exact ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(fn.notes.size()));
    for (const std::string &note : fn.notes)
      putString(out, note);
    putU32(out, static_cast<std::uint32_t>(fn.counts.size()));
    for (const CountStep &step : fn.counts) {
      putExpr(out, step.multiplier);
      putString(out, step.comment);
      putU32(out, static_cast<std::uint32_t>(step.opcodes.size()));
      for (const auto &[op, n] : step.opcodes) {
        putU32(out, static_cast<std::uint32_t>(op));
        putI64(out, n);
      }
    }
    putU32(out, static_cast<std::uint32_t>(fn.calls.size()));
    for (const CallStep &step : fn.calls) {
      putExpr(out, step.multiplier);
      putString(out, step.callee);
      putU32(out, step.line);
      putU32(out, static_cast<std::uint32_t>(step.argBindings.size()));
      for (const auto &[name, expr] : step.argBindings) {
        putString(out, name);
        putExpr(out, expr);
      }
    }
  }
}

bool deserializeModel(const std::string &bytes, std::size_t &offset,
                      PerformanceModel &out) {
  // One expression arena per payload: expressions repeated across a
  // model's functions decode to shared nodes, and the table dies with
  // this call instead of accumulating in the calling thread's default
  // interner. The Scope makes it current so the decoded Exprs and any
  // math a caller later does on them share one table.
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);
  Reader r(bytes, offset, interner);
  out = PerformanceModel();
  if (!r.str(out.sourceFile))
    return false;
  std::uint32_t functionCount = 0;
  if (!r.u32(functionCount) || functionCount > r.remaining())
    return false;
  out.functions.reserve(r.bounded(functionCount, kMinFunctionBytes));
  for (std::uint32_t f = 0; f < functionCount; ++f) {
    FunctionModel fn;
    if (!r.str(fn.sourceName) || !r.str(fn.modelName))
      return false;
    std::uint32_t paramCount = 0;
    if (!r.u32(paramCount) || paramCount > r.remaining())
      return false;
    fn.paramNames.reserve(r.bounded(paramCount, kMinStringBytes));
    for (std::uint32_t i = 0; i < paramCount; ++i) {
      std::string name;
      if (!r.str(name))
        return false;
      fn.paramNames.push_back(std::move(name));
    }
    std::uint8_t exact = 0;
    if (!r.u8(exact) || exact > 1)
      return false;
    fn.exact = exact != 0;
    std::uint32_t noteCount = 0;
    if (!r.u32(noteCount) || noteCount > r.remaining())
      return false;
    for (std::uint32_t i = 0; i < noteCount; ++i) {
      std::string note;
      if (!r.str(note))
        return false;
      fn.notes.push_back(std::move(note));
    }
    std::uint32_t countSteps = 0;
    if (!r.u32(countSteps) || countSteps > r.remaining())
      return false;
    fn.counts.reserve(r.bounded(countSteps, kMinCountStepBytes));
    for (std::uint32_t i = 0; i < countSteps; ++i) {
      CountStep &step = fn.counts.emplace_back();
      if (!r.expr(step.multiplier) || !r.str(step.comment))
        return false;
      std::uint32_t opcodeCount = 0;
      if (!r.u32(opcodeCount) || opcodeCount > r.remaining())
        return false;
      step.opcodes.reserve(r.bounded(opcodeCount, kOpcodeEntryBytes));
      for (std::uint32_t o = 0; o < opcodeCount; ++o) {
        std::uint32_t opcode = 0;
        std::int64_t n = 0;
        if (!r.u32(opcode) || opcode >= isa::kNumOpcodes || !r.i64(n))
          return false;
        // Unsorted or repeated entries decode as a std::map would: the
        // last count for an opcode wins.
        step.opcodes[static_cast<isa::Opcode>(opcode)] = n;
      }
    }
    std::uint32_t callSteps = 0;
    if (!r.u32(callSteps) || callSteps > r.remaining())
      return false;
    fn.calls.reserve(r.bounded(callSteps, kMinCallStepBytes));
    for (std::uint32_t i = 0; i < callSteps; ++i) {
      CallStep &step = fn.calls.emplace_back();
      if (!r.expr(step.multiplier) || !r.str(step.callee) ||
          !r.u32(step.line))
        return false;
      std::uint32_t bindingCount = 0;
      if (!r.u32(bindingCount) || bindingCount > r.remaining())
        return false;
      for (std::uint32_t b = 0; b < bindingCount; ++b) {
        std::string name;
        Expr expr;
        if (!r.str(name) || !r.expr(expr))
          return false;
        step.argBindings.emplace(std::move(name), expr);
      }
    }
    out.functions.push_back(std::move(fn));
  }
  offset = r.offset;
  return true;
}

} // namespace mira::model
