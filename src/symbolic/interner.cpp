#include "symbolic/interner.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace mira::symbolic {

namespace {

// Process-wide tallies. Relaxed: the counters are monitoring data
// (mira_intern_*), not synchronization.
std::atomic<std::uint64_t> gHits{0};
std::atomic<std::uint64_t> gMisses{0};
std::atomic<std::uint64_t> gNodes{0};

std::atomic<std::uint64_t> gNextInternerId{1};

// Innermost live Scope's interner for this thread, if any.
thread_local ExprInterner *tCurrent = nullptr;

std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t v) {
  // boost::hash_combine recipe widened to 64 bits.
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

std::uint64_t hashString(std::string_view s) {
  // FNV-1a.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Shallow structural hash: operands contribute their cached hashes, so
/// hashing a node is O(fields), not O(subtree).
std::uint64_t hashNode(ExprKind kind, std::int64_t value,
                       std::string_view name, const ExprNodeRef *operands,
                       std::size_t count) {
  std::uint64_t h = hashCombine(0x6d697261 /* 'mira' */,
                                static_cast<std::uint64_t>(kind));
  h = hashCombine(h, static_cast<std::uint64_t>(value));
  h = hashCombine(h, hashString(name));
  h = hashCombine(h, count);
  for (std::size_t i = 0; i < count; ++i)
    h = hashCombine(h, operands[i]->hash);
  return h;
}

/// The canonical ordering key, byte-identical to the recursive string
/// builder the canonicalizing sorts used before interning — computed
/// once per unique node from the operands' cached keys.
std::string makeKey(ExprKind kind, std::int64_t value,
                    const std::string &name,
                    const std::vector<ExprNodeRef> &operands) {
  auto list = [&operands] {
    std::string s;
    for (const ExprNodeRef &op : operands) {
      s += op->key;
      s += ',';
    }
    return s;
  };
  switch (kind) {
  case ExprKind::IntConst:
    return "#" + std::to_string(value);
  case ExprKind::Param:
    return "p" + name;
  case ExprKind::Add:
    return "A(" + list() + ")";
  case ExprKind::Mul:
    return "M(" + list() + ")";
  case ExprKind::FloorDiv:
    return "F(" + list() + ")";
  case ExprKind::ExactDiv:
    return "E(" + list() + ")";
  case ExprKind::Mod:
    return "%(" + list() + ")";
  case ExprKind::Min:
    return "m(" + list() + ")";
  case ExprKind::Max:
    return "X(" + list() + ")";
  case ExprKind::Sum:
    return "S" + name + "(" + list() + ")";
  }
  return "?";
}

} // namespace

ExprInterner::ExprInterner()
    : id_(gNextInternerId.fetch_add(1, std::memory_order_relaxed)) {}

ExprInterner::~ExprInterner() {
  std::size_t owned = 0;
  for (const auto &[hash, bucket] : table_)
    owned += bucket.size();
  gNodes.fetch_sub(owned, std::memory_order_relaxed);
}

ExprNodeRef ExprInterner::intern(ExprKind kind, std::int64_t value,
                                 std::string name,
                                 std::vector<ExprNodeRef> operands) {
  return internFields(kind, value, name, operands.data(), operands.size(),
                      &name, &operands);
}

ExprNodeRef ExprInterner::intern(ExprKind kind, std::int64_t value,
                                 std::string_view name,
                                 const ExprNodeRef *operands,
                                 std::size_t count) {
  return internFields(kind, value, name, operands, count, nullptr, nullptr);
}

ExprNodeRef ExprInterner::reintern(const ExprNodeRef &node) {
  if (!node || node->ownerId == id_)
    return node;
  std::vector<ExprNodeRef> operands;
  operands.reserve(node->operands.size());
  for (const ExprNodeRef &op : node->operands)
    operands.push_back(reintern(op));
  return internFields(node->kind, node->value, node->name, operands.data(),
                      operands.size(), nullptr, &operands);
}

ExprNodeRef ExprInterner::internFields(ExprKind kind, std::int64_t value,
                                       std::string_view name,
                                       const ExprNodeRef *operands,
                                       std::size_t count,
                                       std::string *ownedName,
                                       std::vector<ExprNodeRef> *ownedOperands) {
  // Operands interned elsewhere (an Expr built under another scope, a
  // model restored from cache) are pulled into this table first so the
  // shallow pointer comparison below stays sound.
  std::vector<ExprNodeRef> local;
  for (std::size_t i = 0; i < count; ++i) {
    if (operands[i]->ownerId == id_)
      continue;
    if (!ownedOperands) {
      local.assign(operands, operands + count);
      ownedOperands = &local;
    }
    for (ExprNodeRef &op : *ownedOperands)
      if (op->ownerId != id_)
        op = reintern(op);
    operands = ownedOperands->data();
    break;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t hash = hashNode(kind, value, name, operands, count);
  std::vector<ExprNodeRef> &bucket = table_[hash];
  for (const ExprNodeRef &candidate : bucket) {
    if (candidate->kind != kind || candidate->value != value ||
        candidate->name != name || candidate->operands.size() != count)
      continue;
    // Children are canonical in this interner, so pointer comparison IS
    // structural comparison.
    if (std::equal(operands, operands + count,
                   candidate->operands.begin())) {
      gHits.fetch_add(1, std::memory_order_relaxed);
      return candidate;
    }
  }
  auto node = std::make_shared<ExprNode>(kind);
  node->value = value;
  node->name = ownedName ? std::move(*ownedName) : std::string(name);
  if (ownedOperands)
    node->operands = std::move(*ownedOperands);
  else
    node->operands.assign(operands, operands + count);
  node->hash = hash;
  node->key = makeKey(kind, value, node->name, node->operands);
  node->ownerId = id_;
  bucket.push_back(node);
  gMisses.fetch_add(1, std::memory_order_relaxed);
  gNodes.fetch_add(1, std::memory_order_relaxed);
  return node;
}

std::size_t ExprInterner::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t owned = 0;
  for (const auto &[hash, bucket] : table_)
    owned += bucket.size();
  return owned;
}

ExprInterner::Scope::Scope(ExprInterner &interner) : previous_(tCurrent) {
  tCurrent = &interner;
}

ExprInterner::Scope::~Scope() { tCurrent = previous_; }

ExprInterner &ExprInterner::current() {
  if (tCurrent)
    return *tCurrent;
  // Fallback arena for code running outside any Scope (tests, ad-hoc
  // Expr math). Thread-local so no cross-thread contention and the
  // table dies with the thread instead of growing for process lifetime.
  thread_local ExprInterner tDefault;
  return tDefault;
}

InternStats ExprInterner::globalStats() {
  InternStats stats;
  stats.hits = gHits.load(std::memory_order_relaxed);
  stats.misses = gMisses.load(std::memory_order_relaxed);
  stats.nodes = gNodes.load(std::memory_order_relaxed);
  return stats;
}

} // namespace mira::symbolic
