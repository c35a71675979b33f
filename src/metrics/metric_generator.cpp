#include "metrics/metric_generator.h"

#include <algorithm>
#include <set>

#include "polyhedral/counting.h"
#include "sema/loop_analysis.h"
#include "support/string_utils.h"

namespace mira::metrics {

using bridge::FunctionBridge;
using bridge::LoopBinding;
using frontend::Annotation;
using frontend::BinaryOp;
using frontend::ExprKind;
using frontend::Expression;
using frontend::FunctionDecl;
using frontend::Statement;
using frontend::StmtKind;
using model::CallStep;
using model::CountStep;
using model::FunctionModel;
using polyhedral::AffineConstraint;
using polyhedral::AffineExpr;
using polyhedral::Congruence;
using polyhedral::CountResult;
using polyhedral::IterationDomain;
using polyhedral::LoopLevel;
using symbolic::Expr;

namespace {

/// The counts of one Context, each computed at most once. A copy starts
/// empty: a then/else/body context is copied from its parent and then
/// narrowed, so it must never inherit the parent's counts.
struct CountMemo {
  std::optional<Expr> domainCount; ///< countIterations(domain).count
  std::optional<Expr> total;       ///< the context's absolute count

  CountMemo() = default;
  CountMemo(const CountMemo &) {}
  CountMemo &operator=(const CountMemo &) {
    domainCount.reset();
    total.reset();
    return *this;
  }
};

/// Walking context. The absolute execution count of the current position
/// is count(domain) * extraMultiplier * ratioNum/ratioDen, unless
/// overrideCount is set (used for else-branches whose complement is not a
/// single convex domain). Fields are set up right after a copy and then
/// left alone, which is what makes memoizing the count sound.
struct Context {
  IterationDomain domain;
  Expr extraMultiplier = Expr::intConst(1);
  std::int64_t ratioNum = 1;
  std::int64_t ratioDen = 1;
  std::optional<Expr> overrideCount;
  CountMemo memo;
};

/// Pattern-match `expr % K == 0` / `expr % K != 0`.
std::optional<Congruence> matchCongruence(const Expression &cond) {
  if (cond.kind != ExprKind::Binary)
    return std::nullopt;
  if (cond.binaryOp != BinaryOp::Eq && cond.binaryOp != BinaryOp::Ne)
    return std::nullopt;
  const Expression *modExpr = cond.children[0].get();
  const Expression *zero = cond.children[1].get();
  if (modExpr->kind != ExprKind::Binary ||
      modExpr->binaryOp != BinaryOp::Mod)
    std::swap(modExpr, zero);
  if (modExpr->kind != ExprKind::Binary || modExpr->binaryOp != BinaryOp::Mod)
    return std::nullopt;
  if (zero->kind != ExprKind::IntLiteral || zero->intValue != 0)
    return std::nullopt;
  const Expression &lhs = *modExpr->children[0];
  const Expression &mod = *modExpr->children[1];
  if (mod.kind != ExprKind::IntLiteral || mod.intValue <= 0)
    return std::nullopt;
  auto affine = sema::exprToAffine(lhs);
  if (!affine)
    return std::nullopt;
  Congruence c;
  c.expr = *affine;
  c.modulus = mod.intValue;
  c.negated = cond.binaryOp == BinaryOp::Ne;
  return c;
}

/// Pattern-match an affine comparison into GE-normal constraints.
std::optional<std::vector<AffineConstraint>>
matchAffineGuard(const Expression &cond) {
  if (cond.kind != ExprKind::Binary)
    return std::nullopt;
  polyhedral::CmpRel rel;
  switch (cond.binaryOp) {
  case BinaryOp::Lt:
    rel = polyhedral::CmpRel::LT;
    break;
  case BinaryOp::Le:
    rel = polyhedral::CmpRel::LE;
    break;
  case BinaryOp::Gt:
    rel = polyhedral::CmpRel::GT;
    break;
  case BinaryOp::Ge:
    rel = polyhedral::CmpRel::GE;
    break;
  case BinaryOp::Eq:
    rel = polyhedral::CmpRel::EQ;
    break;
  default:
    return std::nullopt;
  }
  auto lhs = sema::exprToAffine(*cond.children[0]);
  auto rhs = sema::exprToAffine(*cond.children[1]);
  if (!lhs || !rhs)
    return std::nullopt;
  auto constraints = AffineConstraint::make(*lhs, rel, *rhs);
  if (constraints.empty())
    return std::nullopt;
  return constraints;
}

class FunctionModeler {
public:
  FunctionModeler(const frontend::TranslationUnit &unit,
                  const FunctionDecl &decl, const FunctionBridge *bridge,
                  const MetricOptions &options, DiagnosticEngine &diags)
      : unit_(unit), decl_(decl), bridge_(bridge), options_(options),
        diags_(diags) {}

  FunctionModel run() {
    model_.sourceName = decl_.qualifiedName();
    model_.modelName = decl_.modelName();
    for (const auto &p : decl_.params)
      model_.paramNames.push_back(p.name);

    if (!bridge_) {
      model_.exact = false;
      model_.notes.push_back("no binary code found for this function");
      return std::move(model_);
    }

    addOpcodeStep(bridge_->prologueOpcodes(), Expr::intConst(1),
                  "function prologue");

    Context ctx;
    walkStmt(*decl_.bodyStmt, ctx);
    return std::move(model_);
  }

private:
  void note(const std::string &message) {
    model_.exact = false;
    model_.notes.push_back(message);
  }

  Expr applyRatio(const Context &ctx, Expr value) const {
    if (ctx.ratioNum == ctx.ratioDen)
      return value;
    return Expr::floorDiv(value * Expr::intConst(ctx.ratioNum),
                          Expr::intConst(ctx.ratioDen));
  }

  /// Absolute execution count at the current context. Every statement
  /// of a block asks for the same count, so it is computed once per
  /// context (or seeded by the walk that already has it).
  Expr totalCount(Context &ctx) {
    if (ctx.overrideCount)
      return *ctx.overrideCount;
    if (!ctx.memo.total) {
      if (!ctx.memo.domainCount)
        ctx.memo.domainCount = polyhedral::countIterations(ctx.domain).count;
      ctx.memo.total =
          applyRatio(ctx, *ctx.memo.domainCount * ctx.extraMultiplier);
    }
    return *ctx.memo.total;
  }

  void addOpcodeStep(const std::map<isa::Opcode, std::size_t> &opcodes,
                     const Expr &multiplier, std::string comment) {
    if (opcodes.empty() || multiplier.isIntConst(0))
      return;
    CountStep step;
    step.multiplier = multiplier;
    step.comment = std::move(comment);
    step.opcodes.reserve(opcodes.size());
    for (const auto &[op, n] : opcodes)
      step.opcodes[op] = static_cast<std::int64_t>(n);
    model_.counts.push_back(std::move(step));
  }

  void countStatementLines(const Statement &stmt, const Expr &multiplier,
                           const char *what) {
    if (!stmt.range.isValid())
      return;
    for (std::uint32_t line = stmt.range.begin.line;
         line <= stmt.range.end.line; ++line) {
      auto opcodes = bridge_->opcodesAtLine(line, currentBinaryLoop_);
      if (opcodes.empty())
        continue;
      addOpcodeStep(opcodes, multiplier,
                    std::string(what) + " line " + std::to_string(line));
    }
  }

  void collectCalls(const Expression &expr, const Expr &multiplier) {
    if (expr.kind == ExprKind::Call && !expr.isBuiltin && !expr.isExtern &&
        !expr.resolvedCallee.empty()) {
      CallStep step;
      step.multiplier = multiplier;
      step.callee = expr.resolvedCallee;
      step.line = expr.range.begin.line;
      const FunctionDecl *callee = unit_.findFunction(expr.resolvedCallee);
      if (callee) {
        std::size_t argBase = 0; // receiver is not a model parameter
        for (std::size_t i = 0;
             i < callee->params.size() && i + argBase < expr.children.size();
             ++i) {
          if (!callee->params[i].type.isInteger())
            continue;
          auto affine = sema::exprToAffine(*expr.children[i + argBase]);
          if (affine) {
            step.argBindings[callee->params[i].name] = affine->toExpr();
          } else {
            std::string paramName = callee->params[i].name + "_" +
                                    std::to_string(step.line);
            step.argBindings[callee->params[i].name] =
                Expr::param(paramName);
            note("argument '" + callee->params[i].name + "' of call to " +
                 expr.resolvedCallee + " at line " +
                 std::to_string(step.line) +
                 " is not statically resolvable; supply model parameter '" +
                 paramName + "'");
          }
        }
      }
      model_.calls.push_back(std::move(step));
    }
    if (expr.isExtern) {
      model_.exact = false;
      model_.notes.push_back(
          "external function '" + expr.name + "' called at line " +
          std::to_string(expr.range.begin.line) +
          " is opaque to static analysis; its instructions are not modeled");
    }
    for (const auto &child : expr.children)
      collectCalls(*child, multiplier);
    if (expr.receiver)
      collectCalls(*expr.receiver, multiplier);
  }

  void walkStmt(const Statement &stmt, Context &ctx) {
    if (stmt.annotation && stmt.annotation->skip()) {
      model_.notes.push_back("statement at line " +
                             std::to_string(stmt.range.begin.line) +
                             " skipped by annotation");
      return;
    }
    switch (stmt.kind) {
    case StmtKind::Compound:
      for (const auto &s : stmt.body)
        walkStmt(*s, ctx);
      break;
    case StmtKind::Decl: {
      Expr mult = totalCount(ctx);
      countStatementLines(stmt, mult, "decl");
      if (stmt.declInit)
        collectCalls(*stmt.declInit, mult);
      for (const auto &dim : stmt.arrayDims)
        collectCalls(*dim, mult);
      break;
    }
    case StmtKind::ExprStmt:
    case StmtKind::Return: {
      Expr mult = totalCount(ctx);
      countStatementLines(stmt, mult,
                          stmt.kind == StmtKind::Return ? "return" : "stmt");
      if (stmt.expr)
        collectCalls(*stmt.expr, mult);
      break;
    }
    case StmtKind::If:
      walkIf(stmt, ctx);
      break;
    case StmtKind::For:
      walkFor(stmt, ctx);
      break;
    case StmtKind::While:
      walkWhile(stmt, ctx);
      break;
    case StmtKind::Empty:
      break;
    }
  }

  void walkIf(const Statement &stmt, Context &ctx) {
    std::uint32_t line = stmt.range.begin.line;
    Expr total = totalCount(ctx);
    addOpcodeStep(bridge_->opcodesAtLine(line, currentBinaryLoop_), total,
                  "if condition line " + std::to_string(line));
    if (stmt.expr)
      collectCalls(*stmt.expr, total);

    Context thenCtx = ctx;
    Context elseCtx = ctx;
    bool modeled = false;

    if (auto cong = matchCongruence(*stmt.expr)) {
      // Congruence guards: exact on both sides via the complement rule
      // (paper Fig. 4c).
      thenCtx.domain = ctx.domain.withCongruence(*cong);
      Congruence inverted = *cong;
      inverted.negated = !inverted.negated;
      elseCtx.domain = ctx.domain.withCongruence(inverted);
      CountResult thenRes = polyhedral::countIterations(thenCtx.domain);
      if (!thenRes.requiresAnnotation) {
        modeled = true;
        thenCtx.memo.domainCount = thenRes.count;
        if (!thenRes.note.empty())
          model_.notes.push_back(thenRes.note);
      }
    }
    if (!modeled && stmt.expr) {
      if (auto guards = matchAffineGuard(*stmt.expr)) {
        thenCtx.domain = ctx.domain;
        for (const AffineConstraint &g : *guards)
          thenCtx.domain = thenCtx.domain.withGuard(g);
        CountResult thenRes = polyhedral::countIterations(thenCtx.domain);
        if (!thenRes.requiresAnnotation) {
          modeled = true;
          thenCtx.memo.domainCount = thenRes.count;
          if (!thenRes.exact)
            note(thenRes.note);
          // Else branch: single-constraint guards invert exactly; the
          // complement of a conjunction (from ==) is counted by
          // subtraction.
          if (guards->size() == 1) {
            AffineConstraint inverted{-(*guards)[0].expr - AffineExpr(1)};
            elseCtx.domain = ctx.domain.withGuard(inverted);
          } else {
            Expr thenCount = applyRatio(
                ctx, thenRes.count * ctx.extraMultiplier);
            elseCtx.overrideCount = total - thenCount;
          }
        }
      }
    }
    if (!modeled) {
      std::optional<std::string> ratio =
          stmt.annotation ? stmt.annotation->get("ratio") : std::nullopt;
      std::int64_t percent = 0;
      if (ratio && parseInt64(*ratio, percent) && percent >= 0 &&
          percent <= 100) {
        thenCtx.ratioNum = ctx.ratioNum * percent;
        thenCtx.ratioDen = ctx.ratioDen * 100;
        elseCtx.ratioNum = ctx.ratioNum * (100 - percent);
        elseCtx.ratioDen = ctx.ratioDen * 100;
        modeled = true;
        model_.notes.push_back("branch at line " + std::to_string(line) +
                               " modeled with annotated ratio " + *ratio +
                               "%");
      } else if (ratio) {
        diags_.warning(stmt.range.begin,
                       "invalid ratio annotation '" + *ratio + "'");
      }
    }
    if (!modeled) {
      // Data-dependent branch without annotation: conservatively count
      // both paths as always executed (or skip, per options).
      note("branch at line " + std::to_string(line) +
           " is not statically analyzable; " +
           (options_.assumeBranchesTaken
                ? "both paths counted as always taken"
                : "both paths skipped") +
           " (annotate with {ratio:..} to refine)");
      if (!options_.assumeBranchesTaken) {
        thenCtx.overrideCount = Expr::intConst(0);
        elseCtx.overrideCount = Expr::intConst(0);
      }
    }

    if (stmt.thenBranch)
      walkStmt(*stmt.thenBranch, thenCtx);
    if (stmt.elseBranch)
      walkStmt(*stmt.elseBranch, elseCtx);
  }

  AffineExpr affineFromAnnotation(const std::string &value) {
    std::int64_t n = 0;
    if (parseInt64(value, n))
      return AffineExpr(n);
    return AffineExpr::variable(value);
  }

  void walkFor(const Statement &stmt, Context &ctx) {
    std::uint32_t line = stmt.range.begin.line;
    sema::LoopInfo info = sema::analyzeForLoop(stmt);

    const std::optional<Annotation> &ann = stmt.annotation;
    if (!info.recognized && ann && ann->get("lp_init") &&
        ann->get("lp_cond")) {
      // Annotated bounds complete the polyhedral model (Listing 6). The
      // lp_cond value is the loop-condition bound; the relation comes
      // from the source ('<' is exclusive, '<=' inclusive).
      info.recognized = true;
      info.lowerBound = affineFromAnnotation(*ann->get("lp_init"));
      info.upperBound = affineFromAnnotation(*ann->get("lp_cond"));
      if (stmt.forCond && stmt.forCond->kind == ExprKind::Binary &&
          (stmt.forCond->binaryOp == BinaryOp::Lt ||
           stmt.forCond->binaryOp == BinaryOp::Gt))
        info.upperBound = info.upperBound - AffineExpr(1);
      info.step = 1;
      if (info.var.empty())
        info.var = "loopvar_" + std::to_string(line);
      model_.notes.push_back("loop at line " + std::to_string(line) +
                             " uses annotated bounds lp_init/lp_cond");
    }

    Expr entries = totalCount(ctx);
    Expr bodyAbs;
    Context bodyCtx = ctx;

    if (ann && ann->get("lp_iters")) {
      std::string value = *ann->get("lp_iters");
      std::int64_t n = 0;
      Expr perEntry =
          parseInt64(value, n) ? Expr::intConst(n) : Expr::param(value);
      bodyAbs = entries * perEntry;
      bodyCtx.extraMultiplier = ctx.extraMultiplier * perEntry;
      model_.notes.push_back("loop at line " + std::to_string(line) +
                             " uses annotated iteration count lp_iters=" +
                             value);
      emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, nullptr);
      return;
    }

    if (!info.recognized) {
      note("loop at line " + std::to_string(line) +
           " has no static control part (" + info.failReason +
           "); supply lp_iters / lp_init / lp_cond annotations");
      Expr perEntry = Expr::param("iters_" + std::to_string(line));
      bodyAbs = entries * perEntry;
      bodyCtx.extraMultiplier = ctx.extraMultiplier * perEntry;
      emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, nullptr);
      return;
    }

    LoopLevel level;
    level.var = info.var;
    level.lowerBounds.push_back(info.lowerBound);
    level.upperBounds.push_back(info.upperBound);
    level.step = info.step;

    if (ctx.overrideCount) {
      // Under a non-convex else branch: count the level in isolation and
      // multiply (exact for bounds not depending on that branch).
      IterationDomain alone;
      alone.levels.push_back(level);
      CountResult res = polyhedral::countIterations(alone);
      bodyAbs = *ctx.overrideCount * res.count;
      bodyCtx.overrideCount = bodyAbs;
      emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, &info);
      return;
    }

    bodyCtx.domain.levels.push_back(level);
    CountResult res = polyhedral::countIterations(bodyCtx.domain);
    if (res.requiresAnnotation) {
      note("loop at line " + std::to_string(line) +
           " cannot be counted statically (" + res.note +
           "); annotate with lp_iters");
      Expr perEntry = Expr::param("iters_" + std::to_string(line));
      bodyAbs = entries * perEntry;
      bodyCtx.domain = ctx.domain;
      bodyCtx.extraMultiplier = ctx.extraMultiplier * perEntry;
      emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, nullptr);
      return;
    }
    if (!res.exact)
      note(res.note);
    else if (!res.note.empty())
      model_.notes.push_back(res.note);
    bodyAbs = applyRatio(ctx, res.count * ctx.extraMultiplier);
    bodyCtx.memo.total = bodyAbs; // bodyCtx keeps ctx's ratio and multiplier
    emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, &info);
  }

  void walkWhile(const Statement &stmt, Context &ctx) {
    std::uint32_t line = stmt.range.begin.line;
    Expr entries = totalCount(ctx);
    Expr perEntry;
    if (stmt.annotation && stmt.annotation->get("lp_iters")) {
      std::string value = *stmt.annotation->get("lp_iters");
      std::int64_t n = 0;
      perEntry =
          parseInt64(value, n) ? Expr::intConst(n) : Expr::param(value);
      model_.notes.push_back("while loop at line " + std::to_string(line) +
                             " uses annotated lp_iters=" + value);
    } else {
      perEntry = Expr::param("iters_" + std::to_string(line));
      note("while loop at line " + std::to_string(line) +
           " cannot be counted statically; supply {lp_iters:..}");
    }
    Expr bodyAbs = entries * perEntry;
    Context bodyCtx = ctx;
    bodyCtx.extraMultiplier = ctx.extraMultiplier * perEntry;
    emitLoopMachineCounts(stmt, line, bodyAbs, entries, bodyCtx, nullptr);
  }

  /// Lines covered by skip-annotated statements under `stmt`.
  static void collectSkippedLines(const Statement *stmt,
                                  std::set<std::uint32_t> &out) {
    if (!stmt)
      return;
    if (stmt->annotation && stmt->annotation->skip()) {
      for (std::uint32_t l = stmt->range.begin.line;
           l <= stmt->range.end.line; ++l)
        out.insert(l);
      return;
    }
    for (const auto &s : stmt->body)
      collectSkippedLines(s.get(), out);
    if (stmt->loopBody)
      collectSkippedLines(stmt->loopBody.get(), out);
    if (stmt->thenBranch)
      collectSkippedLines(stmt->thenBranch.get(), out);
    if (stmt->elseBranch)
      collectSkippedLines(stmt->elseBranch.get(), out);
  }

  void emitLoopMachineCounts(const Statement &stmt, std::uint32_t line,
                             const Expr &bodyAbs, const Expr &entries,
                             Context &bodyCtx, const sema::LoopInfo *info) {
    LoopBinding binding = bridge_->loopsAtLine(line);

    // Loop prologue (init, hoisted bound, vectorizer setup) lives at the
    // for line but inside the *enclosing* binary loop (or outside all
    // loops at the top level), executed once per entry.
    addOpcodeStep(bridge_->opcodesAtLine(line, currentBinaryLoop_), entries,
                  "loop prologue line " + std::to_string(line));

    if (binding.loops.empty()) {
      model_.notes.push_back(
          "no machine loop found for source loop at line " +
          std::to_string(line));
      return;
    }

    if (binding.isVectorized() && info) {
      const binast::BinaryLoop *main = binding.mainLoop();
      const binast::BinaryLoop *rem = binding.remainderLoop();
      std::int64_t w = main->step;

      AffineExpr span = info->upperBound - info->lowerBound + AffineExpr(1);
      bool uniform = true;
      for (std::size_t d = 0; d + 1 < bodyCtx.domain.levels.size(); ++d)
        if (span.involves(bodyCtx.domain.levels[d].var))
          uniform = false;

      Expr mainAbs;
      if (uniform) {
        Expr mainPer = Expr::floorDiv(span.toExpr(), Expr::intConst(w));
        mainAbs = entries * mainPer;
      } else {
        Expr mainPer = Expr::floorDiv(span.toExpr(), Expr::intConst(w));
        Expr acc = mainPer;
        for (std::size_t d = bodyCtx.domain.levels.size() - 1; d-- > 0;) {
          const LoopLevel &l = bodyCtx.domain.levels[d];
          acc = Expr::sum(l.var, l.lowerBounds[0].toExpr(),
                          l.upperBounds[0].toExpr(), acc);
        }
        mainAbs = applyRatio(bodyCtx, acc * bodyCtx.extraMultiplier);
      }
      Expr remAbs = bodyAbs - mainAbs * Expr::intConst(w);

      addOpcodeStep(bridge_->headerOpcodes(*main), mainAbs + entries,
                    "vectorized main loop header line " +
                        std::to_string(line));
      addOpcodeStep(bridge_->headerOpcodes(*rem), remAbs + entries,
                    "remainder loop header line " + std::to_string(line));
      // Honor skip annotations on body statements even though the body is
      // counted by line rather than by statement walk.
      std::set<std::uint32_t> skippedLines;
      collectSkippedLines(stmt.loopBody.get(), skippedLines);
      for (std::uint32_t l = stmt.range.begin.line; l <= stmt.range.end.line;
           ++l) {
        if (skippedLines.count(l)) {
          model_.notes.push_back("line " + std::to_string(l) +
                                 " skipped by annotation");
          continue;
        }
        addOpcodeStep(bridge_->opcodesAtLine(l, main), mainAbs,
                      "vectorized body line " + std::to_string(l));
        addOpcodeStep(bridge_->opcodesAtLine(l, rem), remAbs,
                      "remainder body line " + std::to_string(l));
      }
      return;
    }

    const binast::BinaryLoop *loop = binding.mainLoop();
    addOpcodeStep(bridge_->headerOpcodes(*loop), bodyAbs + entries,
                  "loop header line " + std::to_string(line));
    addOpcodeStep(bridge_->opcodesAtLine(line, loop), bodyAbs,
                  "loop latch line " + std::to_string(line));

    const binast::BinaryLoop *saved = currentBinaryLoop_;
    currentBinaryLoop_ = loop;
    if (stmt.loopBody)
      walkStmt(*stmt.loopBody, bodyCtx);
    currentBinaryLoop_ = saved;
  }

  const frontend::TranslationUnit &unit_;
  const FunctionDecl &decl_;
  const FunctionBridge *bridge_;
  MetricOptions options_;
  DiagnosticEngine &diags_;
  FunctionModel model_;
  const binast::BinaryLoop *currentBinaryLoop_ = nullptr;
};

/// Functions in call-graph topological order, then any the call graph
/// does not reach, in declaration order.
std::vector<const FunctionDecl *>
modelOrder(const frontend::TranslationUnit &unit,
           const sema::CallGraph &callGraph) {
  bool hasCycle = false;
  std::vector<const FunctionDecl *> decls;
  for (const std::string &name : callGraph.topologicalOrder(hasCycle))
    if (const FunctionDecl *fn = unit.findFunction(name))
      decls.push_back(fn);
  for (const FunctionDecl *fn : unit.allFunctions())
    if (std::find(decls.begin(), decls.end(), fn) == decls.end())
      decls.push_back(fn);
  return decls;
}

} // namespace

model::PerformanceModel generateModel(const frontend::TranslationUnit &unit,
                                      const sema::CallGraph &callGraph,
                                      const bridge::ProgramBridge &bridge,
                                      const MetricOptions &options,
                                      DiagnosticEngine &diags) {
  model::PerformanceModel model;
  model.sourceFile = unit.fileName;
  for (const FunctionDecl *fn : modelOrder(unit, callGraph)) {
    FunctionModeler modeler(unit, *fn, bridge.of(fn->qualifiedName()),
                            options, diags);
    model.functions.push_back(modeler.run());
  }
  return model;
}

} // namespace mira::metrics
