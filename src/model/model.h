// The performance model Mira generates (paper Sec. III-C, Fig. 5).
//
// One FunctionModel per source function: a list of counting steps
// (parametric multiplier x per-execution opcode histogram) and call steps
// (parametric call multiplicity + argument bindings, combined like the
// generated Python's handle_function_call). The model is emitted as
// genuine Python source (python_emitter.h) and is also evaluable
// in-process so the benchmarks need no Python interpreter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "isa/categories.h"
#include "isa/opcode.h"
#include "symbolic/expr.h"

namespace mira::model {

using symbolic::Env;
using symbolic::Expr;

/// Per-execution opcode counts of one step: (opcode, count) pairs kept
/// sorted by opcode in one vector. A step holds a handful of opcodes, so
/// this replaces a std::map's node per entry with a single allocation
/// while iterating in the same order (the serialized bytes, the emitted
/// Python and evaluate() depend on that order).
class OpcodeHistogram {
public:
  using value_type = std::pair<isa::Opcode, std::int64_t>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// The count for `op`, inserted as 0 if absent (std::map semantics).
  /// Inserting in increasing opcode order appends.
  std::int64_t &operator[](isa::Opcode op) {
    if (entries_.empty() || entries_.back().first < op)
      return entries_.emplace_back(op, 0).second;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), op,
        [](const value_type &entry, isa::Opcode key) {
          return entry.first < key;
        });
    if (it == entries_.end() || it->first != op)
      it = entries_.insert(it, value_type(op, 0));
    return it->second;
  }

  void reserve(std::size_t n) { entries_.reserve(n); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

private:
  std::vector<value_type> entries_;
};

/// multiplier * opcode histogram.
struct CountStep {
  Expr multiplier;
  OpcodeHistogram opcodes;
  std::string comment; // e.g. "loop body line 12 (vectorized main)"
};

/// Combine a callee model: counts += multiplier * callee(argBindings).
struct CallStep {
  Expr multiplier;
  std::string callee; // qualified source name
  /// callee parameter name -> expression over caller parameters. Unbound
  /// callee parameters become user-supplied model parameters (the paper's
  /// y_16 pattern).
  std::map<std::string, Expr> argBindings;
  std::uint32_t line = 0;
};

struct FunctionModel {
  std::string sourceName; // "A::foo"
  std::string modelName;  // "A_foo_2"
  std::vector<std::string> paramNames; // source parameter names (ints)
  std::vector<CountStep> counts;
  std::vector<CallStep> calls;
  /// All free parameters of the expressions.
  std::set<std::string> parameters() const;
  bool exact = true;
  std::vector<std::string> notes; // annotation requests, approximations
};

/// Evaluated counts for one function (inclusive of callees).
struct EvaluatedCounts {
  std::map<isa::Opcode, double> opcodes;
  double totalInstructions = 0;
  double fpInstructions = 0; // scalar+packed SSE/SSE2 arithmetic
  double flops = 0;

  void add(const EvaluatedCounts &other, double scale);
  isa::CategoryArray<double> categories(const arch::ArchDescription &desc)
      const;
};

class PerformanceModel {
public:
  std::vector<FunctionModel> functions;
  std::string sourceFile;

  const FunctionModel *find(const std::string &sourceName) const;
  FunctionModel *find(const std::string &sourceName);

  /// Evaluate a function model (inclusive). Unbound parameters make the
  /// evaluation fail with a message listing them.
  std::optional<EvaluatedCounts> evaluate(const std::string &sourceName,
                                          const Env &env,
                                          std::string *error = nullptr) const;

  /// All model parameters a caller of `sourceName` must supply (its own
  /// expression parameters plus unbound callee parameters).
  std::set<std::string> requiredParameters(
      const std::string &sourceName) const;

private:
  std::optional<EvaluatedCounts> evaluateInner(const FunctionModel &fn,
                                               const Env &env,
                                               std::string *error,
                                               int depth) const;
};

} // namespace mira::model
