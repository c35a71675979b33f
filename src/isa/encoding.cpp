#include "isa/encoding.h"

namespace mira::isa {

namespace {

void putU16(std::vector<std::uint8_t> &out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void putI32(std::vector<std::uint8_t> &out, std::int32_t v) {
  auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
}

void putI64(std::vector<std::uint8_t> &out, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
}

bool getU8(const std::vector<std::uint8_t> &bytes, std::size_t &off,
           std::uint8_t &out) {
  if (off >= bytes.size())
    return false;
  out = bytes[off++];
  return true;
}

bool getU16(const std::vector<std::uint8_t> &bytes, std::size_t &off,
            std::uint16_t &out) {
  if (off + 2 > bytes.size())
    return false;
  out = static_cast<std::uint16_t>(bytes[off] |
                                   (static_cast<std::uint16_t>(bytes[off + 1])
                                    << 8));
  off += 2;
  return true;
}

bool getI32(const std::vector<std::uint8_t> &bytes, std::size_t &off,
            std::int32_t &out) {
  if (off + 4 > bytes.size())
    return false;
  std::uint32_t u = 0;
  for (int i = 0; i < 4; ++i)
    u |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
  off += 4;
  out = static_cast<std::int32_t>(u);
  return true;
}

bool getI64(const std::vector<std::uint8_t> &bytes, std::size_t &off,
            std::int64_t &out) {
  if (off + 8 > bytes.size())
    return false;
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i)
    u |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
  off += 8;
  out = static_cast<std::int64_t>(u);
  return true;
}

} // namespace

void encodeInstruction(const Instruction &inst,
                       std::vector<std::uint8_t> &out) {
  putU16(out, static_cast<std::uint16_t>(inst.opcode));
  out.push_back(static_cast<std::uint8_t>(inst.operands.size()));
  for (const Operand &op : inst.operands) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    switch (op.kind) {
    case OperandKind::Reg:
      out.push_back(static_cast<std::uint8_t>(op.reg));
      break;
    case OperandKind::Imm:
    case OperandKind::Label:
      putI64(out, op.imm);
      break;
    case OperandKind::Mem:
      out.push_back(static_cast<std::uint8_t>(op.mem.base));
      out.push_back(static_cast<std::uint8_t>(op.mem.index));
      out.push_back(op.mem.scale);
      putI32(out, op.mem.disp);
      break;
    }
  }
}

std::vector<std::uint8_t> encodeFunction(const MachineFunction &fn) {
  std::vector<std::uint8_t> out;
  for (const Instruction &inst : fn.instructions)
    encodeInstruction(inst, out);
  return out;
}

std::optional<Instruction> decodeInstruction(
    const std::vector<std::uint8_t> &bytes, std::size_t &offset,
    DiagnosticEngine &diags) {
  std::size_t start = offset;
  std::uint16_t opcodeRaw = 0;
  std::uint8_t nops = 0;
  if (!getU16(bytes, offset, opcodeRaw) || !getU8(bytes, offset, nops)) {
    diags.error({}, "truncated instruction header at offset " +
                        std::to_string(start));
    return std::nullopt;
  }
  if (opcodeRaw >= kNumOpcodes) {
    diags.error({}, "invalid opcode " + std::to_string(opcodeRaw) +
                        " at offset " + std::to_string(start));
    return std::nullopt;
  }
  Instruction inst;
  inst.opcode = static_cast<Opcode>(opcodeRaw);
  inst.operands.reserve(nops);
  for (std::uint8_t i = 0; i < nops; ++i) {
    std::uint8_t kindRaw = 0;
    if (!getU8(bytes, offset, kindRaw) || kindRaw > 3) {
      diags.error({}, "truncated or invalid operand at offset " +
                          std::to_string(offset));
      return std::nullopt;
    }
    Operand op;
    op.kind = static_cast<OperandKind>(kindRaw);
    switch (op.kind) {
    case OperandKind::Reg: {
      std::uint8_t r = 0;
      if (!getU8(bytes, offset, r) ||
          r > static_cast<std::uint8_t>(Reg::NONE)) {
        diags.error({}, "invalid register operand");
        return std::nullopt;
      }
      op.reg = static_cast<Reg>(r);
      break;
    }
    case OperandKind::Imm:
    case OperandKind::Label:
      if (!getI64(bytes, offset, op.imm)) {
        diags.error({}, "truncated immediate operand");
        return std::nullopt;
      }
      break;
    case OperandKind::Mem: {
      std::uint8_t base = 0, index = 0, scale = 0;
      std::int32_t disp = 0;
      if (!getU8(bytes, offset, base) || !getU8(bytes, offset, index) ||
          !getU8(bytes, offset, scale) || !getI32(bytes, offset, disp)) {
        diags.error({}, "truncated memory operand");
        return std::nullopt;
      }
      op.mem.base = static_cast<Reg>(base);
      op.mem.index = static_cast<Reg>(index);
      op.mem.scale = scale;
      op.mem.disp = disp;
      break;
    }
    }
    inst.operands.push_back(op);
  }
  return inst;
}

std::optional<std::vector<Instruction>> decodeFunction(
    const std::vector<std::uint8_t> &bytes, std::uint64_t baseAddress,
    DiagnosticEngine &diags) {
  std::vector<Instruction> out;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::uint64_t addr = baseAddress + offset;
    auto inst = decodeInstruction(bytes, offset, diags);
    if (!inst)
      return std::nullopt;
    inst->address = addr;
    out.push_back(std::move(*inst));
  }
  return out;
}

} // namespace mira::isa
