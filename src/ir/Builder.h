//===--- ir/Builder.h - Programmatic MiniIR construction -------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent builder for constructing MiniIR procedures without going
/// through the parser. Tests, workload generators and examples use this to
/// assemble programs (including the paper's Figure 1 fragment) directly.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_IR_BUILDER_H
#define PTRAN_IR_BUILDER_H

#include "ir/Function.h"

namespace ptran {

/// Builds one Function inside a Program. Typical usage:
/// \code
///   Program P;
///   DiagnosticEngine Diags;
///   FunctionBuilder B(P, "main", Diags);
///   VarId N = B.intVar("n");
///   B.assign(N, B.lit(10));
///   B.label(10);
///   B.ifGoto(B.lt(B.var(N), B.lit(0)), 20);
///   ...
///   B.finish();
/// \endcode
class FunctionBuilder {
public:
  /// Creates the function \p Name in \p P. Errors (duplicate names) go to
  /// \p Diags; the builder then becomes inert and finish() returns null.
  FunctionBuilder(Program &P, std::string Name, DiagnosticEngine &Diags);

  /// -- Declarations -----------------------------------------------------

  VarId intVar(std::string Name);
  VarId realVar(std::string Name);
  VarId intArray(std::string Name, std::vector<int64_t> Dims);
  VarId realArray(std::string Name, std::vector<int64_t> Dims);

  /// Declares an integer scalar parameter (by reference).
  VarId intParam(std::string Name);
  /// Declares a real scalar parameter (by reference).
  VarId realParam(std::string Name);
  /// Declares a real array parameter of the given shape.
  VarId realArrayParam(std::string Name, std::vector<int64_t> Dims);
  /// Declares an integer array parameter of the given shape.
  VarId intArrayParam(std::string Name, std::vector<int64_t> Dims);

  /// -- Expressions ------------------------------------------------------

  Expr *lit(int64_t V);
  Expr *lit(int V) { return lit(static_cast<int64_t>(V)); }
  Expr *lit(double V);
  Expr *var(VarId V);
  /// Looks a variable up by name; the name must be declared.
  Expr *var(std::string_view Name);
  /// An array element reference a(i) or a(i, j).
  Expr *idx(VarId Array, Expr *I, Expr *J = nullptr);

  Expr *add(Expr *L, Expr *R) { return binary(BinaryOp::Add, L, R); }
  Expr *sub(Expr *L, Expr *R) { return binary(BinaryOp::Sub, L, R); }
  Expr *mul(Expr *L, Expr *R) { return binary(BinaryOp::Mul, L, R); }
  Expr *div(Expr *L, Expr *R) { return binary(BinaryOp::Div, L, R); }
  Expr *pow(Expr *L, Expr *R) { return binary(BinaryOp::Pow, L, R); }
  Expr *lt(Expr *L, Expr *R) { return binary(BinaryOp::Lt, L, R); }
  Expr *le(Expr *L, Expr *R) { return binary(BinaryOp::Le, L, R); }
  Expr *gt(Expr *L, Expr *R) { return binary(BinaryOp::Gt, L, R); }
  Expr *ge(Expr *L, Expr *R) { return binary(BinaryOp::Ge, L, R); }
  Expr *eq(Expr *L, Expr *R) { return binary(BinaryOp::Eq, L, R); }
  Expr *ne(Expr *L, Expr *R) { return binary(BinaryOp::Ne, L, R); }
  Expr *logicalAnd(Expr *L, Expr *R) { return binary(BinaryOp::And, L, R); }
  Expr *neg(Expr *E);
  Expr *logicalNot(Expr *E);
  Expr *intrinsic(Intrinsic Fn, std::vector<Expr *> Args);
  Expr *binary(BinaryOp Op, Expr *L, Expr *R);

  /// -- Statements -------------------------------------------------------

  /// Attaches numeric label \p L to the next appended statement.
  FunctionBuilder &label(int L);

  StmtId assign(VarId Target, Expr *Value);
  StmtId assign(LValue Target, Expr *Value);
  /// Assignment to a 1-D or 2-D array element.
  StmtId assignElem(VarId Array, Expr *I, Expr *Value);
  StmtId assignElem(VarId Array, Expr *I, Expr *J, Expr *Value);
  StmtId ifGoto(Expr *Cond, int TargetLabel);
  StmtId gotoLabel(int TargetLabel);
  /// `GOTO (l1, ..., ln), index` — the n-way computed GOTO.
  StmtId computedGoto(Expr *Index, std::vector<int> TargetLabels);
  StmtId doLoop(VarId Index, Expr *Lo, Expr *Hi, Expr *Step = nullptr);
  StmtId endDo();
  StmtId callSub(std::string Callee, std::vector<Expr *> Args);
  StmtId ret();
  StmtId cont();
  StmtId print(std::vector<Expr *> Args);

  /// Finalizes the function (resolves labels and DO nesting).
  /// \returns the function, or null if construction or finalize failed.
  Function *finish();

  /// The function under construction (may be null after a name clash).
  Function *function() { return F; }

private:
  VarId declare(std::string Name, Type Ty, std::vector<int64_t> Dims,
                bool IsParam);
  StmtId appendStmt(std::unique_ptr<Stmt> S);

  Function *F = nullptr;
  DiagnosticEngine &Diags;
  int PendingLabel = 0;
};

} // namespace ptran

#endif // PTRAN_IR_BUILDER_H
