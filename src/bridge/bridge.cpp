#include "bridge/bridge.h"

#include <algorithm>
#include <set>

namespace mira::bridge {

using binast::AsmFunction;
using binast::BinaryLoop;

FunctionBridge::FunctionBridge(const frontend::FunctionDecl &source,
                               const binast::AsmFunction &binary)
    : source_(&source), binary_(&binary) {
  instrLoop_.assign(binary.instructions.size(), -1);
  for (std::size_t b = 0; b < binary.blocks.size(); ++b) {
    int loop = binary.innermostLoopOf(static_cast<std::uint32_t>(b));
    for (std::uint32_t idx : binary.blocks[b].instrIndices)
      instrLoop_[idx] = loop;
  }
}

LoopBinding FunctionBridge::loopsAtLine(std::uint32_t line) const {
  LoopBinding binding;
  for (const BinaryLoop &loop : binary_->loops)
    if (loop.sourceLine == line)
      binding.loops.push_back(&loop);
  std::sort(binding.loops.begin(), binding.loops.end(),
            [](const BinaryLoop *a, const BinaryLoop *b) {
              return a->step > b->step;
            });
  return binding;
}

std::vector<std::uint32_t> FunctionBridge::coveredLines() const {
  std::set<std::uint32_t> lines;
  for (const auto &ai : binary_->instructions)
    lines.insert(ai.line);
  return {lines.begin(), lines.end()};
}

std::map<isa::Opcode, std::size_t>
FunctionBridge::opcodesAtLine(std::uint32_t line,
                              const BinaryLoop *loop) const {
  std::map<isa::Opcode, std::size_t> out;
  for (std::size_t i = 0; i < binary_->instructions.size(); ++i) {
    if (binary_->instructions[i].line != line)
      continue;
    int li = instrLoop_[i];
    if (!loop) {
      if (li >= 0)
        continue;
    } else {
      if (li < 0)
        continue;
      const BinaryLoop &enclosing = binary_->loops[static_cast<std::size_t>(li)];
      if (&enclosing != loop)
        continue;
      // Exclude the header block: counted separately as (trips+1).
      bool inHeader = false;
      for (std::uint32_t idx :
           binary_->blocks[loop->headerBlock].instrIndices)
        if (idx == i)
          inHeader = true;
      if (inHeader)
        continue;
    }
    ++out[binary_->instructions[i].inst.opcode];
  }
  return out;
}

std::map<isa::Opcode, std::size_t>
FunctionBridge::headerOpcodes(const BinaryLoop &loop) const {
  std::map<isa::Opcode, std::size_t> out;
  for (std::uint32_t idx : binary_->blocks[loop.headerBlock].instrIndices)
    ++out[binary_->instructions[idx].inst.opcode];
  return out;
}

std::map<isa::Opcode, std::size_t> FunctionBridge::prologueOpcodes() const {
  std::map<isa::Opcode, std::size_t> out;
  for (std::size_t i = 0; i < binary_->instructions.size(); ++i)
    if (instrLoop_[i] < 0 && binary_->instructions[i].line == 0)
      ++out[binary_->instructions[i].inst.opcode];
  return out;
}

ProgramBridge::ProgramBridge(const frontend::TranslationUnit &unit,
                             const binast::BinaryAst &binary) {
  for (const frontend::FunctionDecl *fn : unit.allFunctions()) {
    const AsmFunction *bin = binary.find(fn->qualifiedName());
    if (bin)
      bridges_.emplace(fn->qualifiedName(), FunctionBridge(*fn, *bin));
  }
}

const FunctionBridge *ProgramBridge::of(
    const std::string &qualifiedName) const {
  auto it = bridges_.find(qualifiedName);
  return it == bridges_.end() ? nullptr : &it->second;
}

} // namespace mira::bridge
