#include "objfile/objfile.h"

#include <algorithm>
#include <iterator>

#include "isa/encoding.h"

namespace mira::objfile {

namespace {

constexpr std::uint32_t kMagic = 0x4152494D; // "MIRA" little-endian
constexpr std::uint32_t kVersion = 1;

// DWARF-style line program opcodes.
constexpr std::uint8_t kLineEnd = 0x00;
constexpr std::uint8_t kLineAdvancePc = 0x01;
constexpr std::uint8_t kLineAdvanceLine = 0x02;
constexpr std::uint8_t kLineCopy = 0x03;

void putU32(std::vector<std::uint8_t> &out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void putU64(std::vector<std::uint8_t> &out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void putString(std::vector<std::uint8_t> &out, const std::string &s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void putULEB(std::vector<std::uint8_t> &out, std::uint64_t v) {
  do {
    std::uint8_t byte = v & 0x7F;
    v >>= 7;
    if (v)
      byte |= 0x80;
    out.push_back(byte);
  } while (v);
}

void putSLEB(std::vector<std::uint8_t> &out, std::int64_t v) {
  bool more = true;
  while (more) {
    std::uint8_t byte = v & 0x7F;
    v >>= 7;
    bool signBit = byte & 0x40;
    if ((v == 0 && !signBit) || (v == -1 && signBit))
      more = false;
    else
      byte |= 0x80;
    out.push_back(byte);
  }
}

struct Reader {
  const std::vector<std::uint8_t> &data;
  std::size_t pos = 0;
  bool failed = false;

  bool need(std::size_t n) {
    if (pos + n > data.size()) {
      failed = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1))
      return 0;
    return data[pos++];
  }
  std::uint32_t u32() {
    if (!need(4))
      return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8))
      return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  std::string str() {
    std::uint32_t len = u32();
    if (!need(len))
      return {};
    std::string s(data.begin() + static_cast<std::ptrdiff_t>(pos),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    return s;
  }
  std::uint64_t uleb() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!need(1))
        return v;
      std::uint8_t byte = data[pos++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80))
        break;
      shift += 7;
    }
    return v;
  }
  std::int64_t sleb() {
    std::int64_t v = 0;
    int shift = 0;
    std::uint8_t byte = 0;
    do {
      if (!need(1))
        return v;
      byte = data[pos++];
      v |= static_cast<std::int64_t>(byte & 0x7F) << shift;
      shift += 7;
    } while (byte & 0x80);
    if (shift < 64 && (byte & 0x40))
      v |= -(static_cast<std::int64_t>(1) << shift);
    return v;
  }
};

} // namespace

std::vector<std::uint8_t> MiraObject::serialize() const {
  std::vector<std::uint8_t> out;
  putU32(out, kMagic);
  putU32(out, kVersion);

  putU32(out, static_cast<std::uint32_t>(symbols.size()));
  for (const FunctionSymbol &sym : symbols) {
    putString(out, sym.name);
    putU64(out, sym.offset);
    putU64(out, sym.size);
    putU32(out, static_cast<std::uint32_t>(sym.id));
  }
  putU32(out, static_cast<std::uint32_t>(externSymbols.size()));
  for (const std::string &name : externSymbols)
    putString(out, name);

  putU32(out, static_cast<std::uint32_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());

  // Line program (state machine: address = 0, line = 1).
  std::vector<std::uint8_t> program;
  std::uint64_t address = 0;
  std::int64_t line = 1;
  for (const LineEntry &entry : lineTable) {
    if (entry.address != address) {
      program.push_back(kLineAdvancePc);
      putULEB(program, entry.address - address);
      address = entry.address;
    }
    if (entry.line != line) {
      program.push_back(kLineAdvanceLine);
      putSLEB(program, static_cast<std::int64_t>(entry.line) - line);
      line = entry.line;
    }
    program.push_back(kLineCopy);
  }
  program.push_back(kLineEnd);
  putU32(out, static_cast<std::uint32_t>(program.size()));
  out.insert(out.end(), program.begin(), program.end());
  return out;
}

std::optional<MiraObject> MiraObject::parse(
    const std::vector<std::uint8_t> &data, DiagnosticEngine &diags) {
  Reader r{data};
  if (r.u32() != kMagic) {
    diags.error({}, "not a MiraObject (bad magic)");
    return std::nullopt;
  }
  std::uint32_t version = r.u32();
  if (version != kVersion) {
    diags.error({}, "unsupported MiraObject version " +
                        std::to_string(version));
    return std::nullopt;
  }
  MiraObject obj;
  std::uint32_t numSyms = r.u32();
  for (std::uint32_t i = 0; i < numSyms && !r.failed; ++i) {
    FunctionSymbol sym;
    sym.name = r.str();
    sym.offset = r.u64();
    sym.size = r.u64();
    sym.id = static_cast<int>(r.u32());
    obj.symbols.push_back(std::move(sym));
  }
  std::uint32_t numExterns = r.u32();
  for (std::uint32_t i = 0; i < numExterns && !r.failed; ++i)
    obj.externSymbols.push_back(r.str());

  std::uint32_t textSize = r.u32();
  if (!r.need(textSize)) {
    diags.error({}, "truncated .text section");
    return std::nullopt;
  }
  obj.text.assign(data.begin() + static_cast<std::ptrdiff_t>(r.pos),
                  data.begin() + static_cast<std::ptrdiff_t>(r.pos + textSize));
  r.pos += textSize;

  std::uint32_t programSize = r.u32();
  if (!r.need(programSize)) {
    diags.error({}, "truncated .debug_line section");
    return std::nullopt;
  }
  std::size_t programEnd = r.pos + programSize;
  std::uint64_t address = 0;
  std::int64_t line = 1;
  while (r.pos < programEnd && !r.failed) {
    std::uint8_t op = r.u8();
    if (op == kLineEnd)
      break;
    switch (op) {
    case kLineAdvancePc: {
      // Unsigned advances keep the table sorted unless the address wraps;
      // rejecting a wrap makes sortedness an invariant of every parsed
      // object (lineForAddress binary-searches it).
      const std::uint64_t delta = r.uleb();
      if (address + delta < address) {
        diags.error({}, "line-program address overflows");
        return std::nullopt;
      }
      address += delta;
      break;
    }
    case kLineAdvanceLine:
      line += r.sleb();
      break;
    case kLineCopy:
      obj.lineTable.push_back(
          {address, static_cast<std::uint32_t>(line)});
      break;
    default:
      diags.error({}, "invalid line-program opcode " + std::to_string(op));
      return std::nullopt;
    }
  }
  if (r.failed) {
    diags.error({}, "truncated MiraObject");
    return std::nullopt;
  }
  // Validate symbol ranges.
  for (const FunctionSymbol &sym : obj.symbols) {
    if (sym.offset + sym.size > obj.text.size()) {
      diags.error({}, "symbol '" + sym.name + "' extends past .text");
      return std::nullopt;
    }
  }
  return obj;
}

const FunctionSymbol *MiraObject::findSymbol(const std::string &name) const {
  for (const FunctionSymbol &sym : symbols)
    if (sym.name == name)
      return &sym;
  return nullptr;
}

const FunctionSymbol *MiraObject::symbolById(int id) const {
  for (const FunctionSymbol &sym : symbols)
    if (sym.id == id)
      return &sym;
  return nullptr;
}

std::uint32_t MiraObject::lineForAddress(std::uint64_t address) const {
  // The last entry at or before `address`: with duplicate addresses the
  // later entry wins, as the line program's last copy does.
  auto after = std::upper_bound(
      lineTable.begin(), lineTable.end(), address,
      [](std::uint64_t a, const LineEntry &entry) { return a < entry.address; });
  return after == lineTable.begin() ? 0 : std::prev(after)->line;
}

MiraObject buildObject(const std::vector<isa::MachineFunction> &functions,
                       const std::vector<std::string> &externs) {
  MiraObject obj;
  obj.externSymbols = externs;
  std::uint64_t offset = 0;
  int id = 0;
  for (const isa::MachineFunction &fn : functions) {
    // Function bodies are laid out relative to 0 (jump offsets are
    // function-relative); the line table stores absolute offsets.
    std::vector<std::uint8_t> bytes = isa::encodeFunction(fn);
    FunctionSymbol sym;
    sym.name = fn.name;
    sym.offset = offset;
    sym.size = bytes.size();
    sym.id = id++;
    obj.symbols.push_back(sym);

    std::uint32_t lastLine = 0xFFFFFFFF;
    for (const isa::Instruction &inst : fn.instructions) {
      if (inst.line != lastLine) {
        obj.lineTable.push_back({offset + inst.address, inst.line});
        lastLine = inst.line;
      }
    }
    obj.text.insert(obj.text.end(), bytes.begin(), bytes.end());
    offset += bytes.size();
  }
  std::sort(obj.lineTable.begin(), obj.lineTable.end(),
            [](const LineEntry &a, const LineEntry &b) {
              return a.address < b.address;
            });
  return obj;
}

} // namespace mira::objfile
