// The source<->binary bridge (paper Sec. III-A2).
//
// Associates each source function with its disassembled AsmFunction and
// provides the line-number queries the metric generator uses: which
// machine instructions a statement's lines produced, which binary loops
// implement a source loop (one scalar loop, or a vectorized main loop
// plus scalar remainder), and the opcodes at a line inside a loop body or
// outside every loop (prologue/epilogue/hoisted code).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binast/binast.h"
#include "frontend/ast.h"

namespace mira::bridge {

/// Machine loops implementing one source for statement, sorted by step
/// descending (vectorized main loop first, scalar remainder last).
struct LoopBinding {
  std::vector<const binast::BinaryLoop *> loops;

  bool isVectorized() const {
    return loops.size() >= 2 && loops.front()->step > 1;
  }
  const binast::BinaryLoop *mainLoop() const {
    return loops.empty() ? nullptr : loops.front();
  }
  const binast::BinaryLoop *remainderLoop() const {
    return loops.size() >= 2 ? loops.back() : nullptr;
  }
};

class FunctionBridge {
public:
  FunctionBridge(const frontend::FunctionDecl &source,
                 const binast::AsmFunction &binary);

  const frontend::FunctionDecl &source() const { return *source_; }
  const binast::AsmFunction &binary() const { return *binary_; }

  /// Binary loops whose header compare carries this source line (the
  /// for-statement line), i.e. the machine loops compiled from it.
  LoopBinding loopsAtLine(std::uint32_t line) const;

  /// All distinct lines with at least one machine instruction.
  std::vector<std::uint32_t> coveredLines() const;

  /// Opcode histogram of instructions at `line` within `loop` bodies
  /// (nullptr loop = outside all loops).
  std::map<isa::Opcode, std::size_t>
  opcodesAtLine(std::uint32_t line, const binast::BinaryLoop *loop) const;

  /// Opcode histogram of a loop's header block.
  std::map<isa::Opcode, std::size_t>
  headerOpcodes(const binast::BinaryLoop &loop) const;

  /// Opcode histogram of the function prologue (line 0 instructions
  /// outside loops).
  std::map<isa::Opcode, std::size_t> prologueOpcodes() const;

private:
  const frontend::FunctionDecl *source_;
  const binast::AsmFunction *binary_;
  // instruction index -> enclosing innermost loop (index into
  // binary().loops) or -1
  std::vector<int> instrLoop_;
};

/// All function bridges of a translation unit against a binary AST.
class ProgramBridge {
public:
  ProgramBridge(const frontend::TranslationUnit &unit,
                const binast::BinaryAst &binary);

  /// nullptr when the function has no binary counterpart.
  const FunctionBridge *of(const std::string &qualifiedName) const;

private:
  std::map<std::string, FunctionBridge> bridges_;
};

} // namespace mira::bridge
