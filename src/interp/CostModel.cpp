//===--- interp/CostModel.cpp - Target cost model -------------------------===//

#include "interp/CostModel.h"

#include "support/Casting.h"
#include "support/FatalError.h"

using namespace ptran;

CostModel CostModel::optimizing() { return CostModel(); }

CostModel CostModel::nonOptimizing() {
  CostModel CM;
  CM.OpCost = 2.0;
  CM.ScalarRefCost = 2.0;    // Every reference goes to memory.
  CM.ArrayRefCost = 5.0;
  CM.IntrinsicCost = 16.0;
  CM.AssignCost = 3.0;
  CM.BranchCost = 2.0;
  CM.LoopOverheadCost = 6.0;
  CM.CallOverheadCost = 20.0;
  CM.ArgCost = 2.0;
  CM.PrintCost = 8.0;
  CM.CounterIncrementCost = 4.0;
  CM.CounterAddCost = 6.0;
  return CM;
}

double CostModel::exprCost(const Expr *E) const {
  switch (E->kind()) {
  case ExprKind::IntLiteral:
  case ExprKind::RealLiteral:
    return 0.0;
  case ExprKind::VarRef:
    return ScalarRefCost;
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRef>(E);
    double Cost = ArrayRefCost;
    for (const Expr *Idx : A->indices())
      Cost += exprCost(Idx);
    return Cost;
  }
  case ExprKind::Unary:
    return OpCost + exprCost(cast<UnaryExpr>(E)->operand());
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return OpCost + exprCost(B->lhs()) + exprCost(B->rhs());
  }
  case ExprKind::Intrinsic: {
    const auto *I = cast<IntrinsicExpr>(E);
    double Cost = IntrinsicCost;
    for (const Expr *A : I->args())
      Cost += exprCost(A);
    return Cost;
  }
  }
  PTRAN_UNREACHABLE("unknown ExprKind");
}

double CostModel::lvalueCost(const LValue &L) const {
  double Cost = L.isArrayElement() ? ArrayRefCost : ScalarRefCost;
  for (const Expr *Idx : L.Indices)
    Cost += exprCost(Idx);
  return Cost;
}

double CostModel::statementCost(const Stmt *S) const {
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    return AssignCost + lvalueCost(A->target()) + exprCost(A->value());
  }
  case StmtKind::IfGoto:
    return BranchCost + exprCost(cast<IfGotoStmt>(S)->cond());
  case StmtKind::Goto:
    // Folded GOTOs have no CFG node; a charge would put the interpreter's
    // clock out of step with the estimates.
    return 0.0;
  case StmtKind::ComputedGoto:
    // An indexed jump table: one branch plus the index computation.
    return BranchCost + exprCost(cast<ComputedGotoStmt>(S)->index());
  case StmtKind::DoStart: {
    // Bound expressions are evaluated once per entry, but following the
    // paper's uniform node model we charge the amortized header overhead
    // per execution and the bound evaluation at the header too.
    const auto *D = cast<DoStmt>(S);
    double Bounds = exprCost(D->lo()) + exprCost(D->hi());
    if (D->step())
      Bounds += exprCost(D->step());
    return LoopOverheadCost + Bounds / 4.0;
  }
  case StmtKind::DoEnd:
    return OpCost; // Induction variable update.
  case StmtKind::Call: {
    const auto *C = cast<CallStmt>(S);
    double Cost = CallOverheadCost + ArgCost * C->args().size();
    for (const Expr *A : C->args())
      Cost += exprCost(A);
    return Cost;
  }
  case StmtKind::Return:
    return BranchCost;
  case StmtKind::Continue:
    return 0.0;
  case StmtKind::Print: {
    const auto *P = cast<PrintStmt>(S);
    double Cost = PrintCost * static_cast<double>(P->args().size());
    for (const Expr *A : P->args())
      Cost += exprCost(A);
    return Cost;
  }
  }
  PTRAN_UNREACHABLE("unknown StmtKind");
}
