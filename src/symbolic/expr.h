// Symbolic integer expressions — the language of Mira's parametric models.
//
// The paper's generated Python models contain parametric expressions such
// as iteration counts depending on unresolved program inputs (Sec. III-C).
// Expr is an immutable DAG of integer-valued operations over named
// parameters; it can be evaluated with concrete bindings, printed as
// Python source (for the emitted model), and printed for debugging.
//
// Supported operations: integer constants, parameters, n-ary add/mul,
// floor division, exact division (division known to be remainder-free,
// used when converting rational-coefficient closed forms back to integer
// expressions), modulus, min/max, and a lazy bounded summation node used
// when no closed form exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "symbolic/rational.h"

namespace mira::symbolic {

enum class ExprKind {
  IntConst,
  Param,
  Add,      // n-ary sum
  Mul,      // n-ary product
  FloorDiv, // floor(a / b)
  ExactDiv, // a / b where b | a is guaranteed (checked at evaluation)
  Mod,      // a mod b, mathematical (result in [0, b))
  Min,
  Max,
  Sum, // Sum(var, lo, hi, body): sum of body for var in [lo, hi]
};

class ExprNode;
using ExprNodeRef = std::shared_ptr<const ExprNode>;

/// Environment binding parameter names to concrete integer values.
using Env = std::map<std::string, std::int64_t>;

/// Value-semantic handle to an immutable expression node.
class Expr {
public:
  /// Default-constructed Expr is the constant 0.
  Expr();

  // --- constructors -----------------------------------------------------
  static Expr intConst(std::int64_t value);
  static Expr param(std::string name);
  static Expr add(std::vector<Expr> operands);
  static Expr mul(std::vector<Expr> operands);
  static Expr floorDiv(Expr a, Expr b);
  static Expr exactDiv(Expr a, Expr b);
  static Expr mod(Expr a, Expr b);
  static Expr min(Expr a, Expr b);
  static Expr max(Expr a, Expr b);
  /// Lazy sum: body may reference `var` as a parameter. Empty ranges
  /// (hi < lo) evaluate to 0.
  static Expr sum(std::string var, Expr lo, Expr hi, Expr body);

  /// Wrap an already-built node, bypassing the canonicalizing builders.
  /// The decoder (model/serialize.h) interns each node as it reads it
  /// and wraps the result here; the node must come from a tree that was
  /// canonical when serialized, so re-canonicalizing would be at best a
  /// no-op and at worst a source of byte-level drift between cached and
  /// fresh models. A node owned by another interner is re-entered into
  /// the calling thread's one (structure-preserving, so serialized bytes
  /// cannot drift); a node the current interner owns is wrapped as is.
  static Expr fromNode(ExprNodeRef node);

  friend Expr operator+(const Expr &a, const Expr &b);
  friend Expr operator-(const Expr &a, const Expr &b);
  friend Expr operator*(const Expr &a, const Expr &b);
  Expr operator-() const;
  Expr &operator+=(const Expr &o) { return *this = *this + o; }
  Expr &operator-=(const Expr &o) { return *this = *this - o; }
  Expr &operator*=(const Expr &o) { return *this = *this * o; }

  // --- inspection --------------------------------------------------------
  ExprKind kind() const;
  bool isIntConst() const;
  bool isIntConst(std::int64_t value) const;
  /// Value if this is a constant.
  std::optional<std::int64_t> constValue() const;
  /// All parameter names referenced (excluding Sum-bound variables).
  std::set<std::string> parameters() const;
  const ExprNode &node() const { return *node_; }

  /// Structural equality (after builder-level canonicalization).
  /// Pointer identity for nodes interned in the same ExprInterner — the
  /// common case, since hash-consing gives every structure one canonical
  /// node per interner. Falls back to the precomputed structural hash
  /// and a pointer-shortcutting deep walk across interners.
  bool equals(const Expr &other) const;

  // --- evaluation & printing ---------------------------------------------
  /// Evaluate with all parameters bound; returns nullopt if a parameter is
  /// missing or an ExactDiv has a remainder (which indicates a bug in the
  /// closed-form producer).
  std::optional<std::int64_t> evaluate(const Env &env) const;

  /// Substitute a parameter by an expression (used to compose models).
  Expr substitute(const std::string &name, const Expr &replacement) const;

  /// Human-readable form, e.g. "(N*(N + 1))/2".
  std::string str() const;
  /// Python source form for the emitted model (floor div -> '//').
  std::string toPython() const;

private:
  explicit Expr(ExprNodeRef node) : node_(std::move(node)) {}

  ExprNodeRef node_;
};

/// Internal node. Exposed so analyses (polynomial conversion) can walk the
/// tree; construct only through Expr builders.
class ExprNode {
public:
  ExprKind kind;
  std::int64_t value = 0;             // IntConst
  std::string name;                   // Param, Sum bound variable
  std::vector<ExprNodeRef> operands;  // others

  // Hash-consing metadata, filled once by ExprInterner when the node is
  // interned. `hash` is the structural hash; `key` caches the
  // canonical ordering key the builders sort commutative operand lists
  // by, in the exact historical format ("#3", "pN", "A(pN,#1,)", ...)
  // so interning cannot move bytes in any serialized output. `ownerId`
  // identifies the interner that owns the node (ids are never reused,
  // so a dead interner's nodes can never be mistaken for a live one's).
  std::uint64_t hash = 0;
  std::string key;
  std::uint64_t ownerId = 0;

  ExprNode(ExprKind k) : kind(k) {}
};

} // namespace mira::symbolic
