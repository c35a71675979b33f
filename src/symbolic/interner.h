// Hash-consing arena for symbolic expression nodes.
//
// The symbolic layer used to allocate one heap ExprNode per construction
// and compare expressions by re-serializing whole subtrees to strings
// (orderKey) — O(subtree) work on every equals() and every canonicalizing
// sort. ExprInterner replaces that with structural interning: each node
// is hashed at construction and looked up in a table, so one canonical
// node exists per structure. Within one interner, structural equality IS
// pointer identity; across interners (a model restored from cache
// compared against a freshly built one) equality falls back to the
// precomputed structural hash and a pointer-shortcutting deep walk —
// never to string building.
//
// Scoping: an interner is installed for the current thread with an RAII
// Scope. The driver installs one per compile (core::analyze), and the
// whole pipeline, model walk included, runs on that thread, so a
// compile's node churn is confined to one arena that dies with the
// request instead of fragmenting the global heap. Code running outside
// any scope (tests, ad-hoc Expr math) falls back to a thread-local
// default interner. Because a node's canonical form caches its order
// key, parameter and bound-variable name strings are stored once per
// unique node — name interning falls out of node interning.
//
// Thread-safety: intern() is internally synchronized (one mutex per
// interner), so one interner may be installed in Scopes on several
// threads at once. The pipeline uses each per-compile interner from one
// thread only, so there the lock is never contended. The returned nodes
// are immutable and shared_ptr-owned: they outlive the interner wherever
// models still reference them.
//
// Counters: process-wide hit/miss/node tallies are exported as
// mira_intern_{hits,misses,nodes} through core::MetricsRegistry (a batch
// run publishes them when it ends, the server on every metrics render).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "symbolic/expr.h"

namespace mira::symbolic {

/// Process-wide interning tallies (sums over every interner ever used).
struct InternStats {
  std::uint64_t hits = 0;   ///< intern() calls answered by an existing node
  std::uint64_t misses = 0; ///< intern() calls that created a new node
  std::uint64_t nodes = 0;  ///< unique nodes currently alive in tables
};

/// A hash-consing arena: one canonical ExprNode per structure.
class ExprInterner {
public:
  ExprInterner();
  ~ExprInterner();
  ExprInterner(const ExprInterner &) = delete;
  ExprInterner &operator=(const ExprInterner &) = delete;

  /// Canonicalize a node described by its fields. `operands` must already
  /// be interned in THIS interner (builders intern bottom-up; use
  /// reintern() for foreign trees). Returns the one canonical node for
  /// the structure, creating it (with its structural hash and cached
  /// order key) on first sight.
  ExprNodeRef intern(ExprKind kind, std::int64_t value, std::string name,
                     std::vector<ExprNodeRef> operands);

  /// The same over borrowed fields: `count` operands starting at
  /// `operands`. The table is probed with the borrowed name and operand
  /// range; they are copied into a node only on a miss, so a hit
  /// allocates nothing (a decoder interning each node as it reads it).
  ExprNodeRef intern(ExprKind kind, std::int64_t value, std::string_view name,
                     const ExprNodeRef *operands, std::size_t count);

  /// Canonicalize a tree built under another interner bottom-up,
  /// preserving its structure byte-for-byte (Expr::fromNode, and
  /// builders handed operands from another scope). O(1) for nodes this
  /// interner already owns.
  ExprNodeRef reintern(const ExprNodeRef &node);

  /// Unique nodes owned by this interner.
  std::size_t size() const;

  /// Installs an interner as the calling thread's current one for the
  /// lifetime of the object (nestable; restores the previous on exit).
  class Scope {
  public:
    explicit Scope(ExprInterner &interner);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    ExprInterner *previous_;
  };

  /// The calling thread's current interner: the innermost live Scope's,
  /// or a thread-local default for code running outside any scope.
  static ExprInterner &current();

  /// Process-wide tallies across every interner (relaxed reads).
  static InternStats globalStats();

private:
  /// The one lookup-or-insert behind intern() and reintern(). The
  /// fields are borrowed; on a miss the node takes `ownedName` and
  /// `ownedOperands` when the caller has them to give (they hold the
  /// same values), and copies otherwise.
  ExprNodeRef internFields(ExprKind kind, std::int64_t value,
                           std::string_view name,
                           const ExprNodeRef *operands, std::size_t count,
                           std::string *ownedName,
                           std::vector<ExprNodeRef> *ownedOperands);

  mutable std::mutex mutex_;
  // Never-reused process-unique id stamped on owned nodes, so a node
  // from a destroyed interner can never alias a live one (no ABA on a
  // recycled `this` address).
  const std::uint64_t id_;
  // hash -> structurally distinct nodes sharing it (collision chain).
  std::unordered_map<std::uint64_t, std::vector<ExprNodeRef>> table_;
};

} // namespace mira::symbolic
