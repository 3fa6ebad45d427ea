//===--- interp/CostModel.h - Target cost model -----------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-statement cycle cost model. Section 4 assumes the (average)
/// local execution time COST(u) of every node has been estimated for the
/// target architecture; this class provides that estimate, and the same
/// numbers drive the interpreter's simulated clock so that analytical
/// estimates and simulated measurements are directly comparable.
///
/// Two presets stand in for the paper's "compiler optimization ON/OFF"
/// columns of Table 1: the optimizing preset keeps scalars in registers
/// (free loads) and has cheap control flow; the non-optimizing preset pays
/// memory traffic on every reference.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_INTERP_COSTMODEL_H
#define PTRAN_INTERP_COSTMODEL_H

#include "ir/Function.h"

namespace ptran {

/// Cycle costs of primitive operations on the simulated target.
class CostModel {
public:
  /// Cost of one arithmetic/comparison/logical operator.
  double OpCost = 1.0;
  /// Cost of referencing a scalar variable.
  double ScalarRefCost = 0.0;
  /// Cost of referencing an array element (address arithmetic + memory).
  double ArrayRefCost = 2.0;
  /// Cost of one intrinsic call (SQRT, EXP, ...).
  double IntrinsicCost = 8.0;
  /// Base cost of an assignment (the store).
  double AssignCost = 1.0;
  /// Base cost of evaluating a branch (jump machinery, on top of the
  /// condition expression).
  double BranchCost = 1.0;
  /// Per-execution overhead of a DO header (trip test + induction update,
  /// charged at the header like the paper's statement-level model).
  double LoopOverheadCost = 2.0;
  /// Call/return linkage overhead, on top of the callee's body.
  double CallOverheadCost = 10.0;
  /// Cost of passing one argument.
  double ArgCost = 1.0;
  /// Cost of a PRINT statement, per item.
  double PrintCost = 5.0;
  /// Cost of one profiling counter increment (load-add-store).
  double CounterIncrementCost = 2.0;
  /// Cost of adding a computed trip count to a counter once per loop entry
  /// (the paper's third optimization).
  double CounterAddCost = 3.0;

  /// Preset matching "Compiler optimization ON".
  static CostModel optimizing();
  /// Preset matching "Compiler optimization OFF" (roughly 3x slower, as in
  /// Table 1's LOOPS rows).
  static CostModel nonOptimizing();

  /// Local cost of an expression tree.
  double exprCost(const Expr *E) const;

  /// Local cost COST(u) of one statement (excluding callee bodies; the
  /// interprocedural analysis of Section 4 adds TIME(callee START)).
  double statementCost(const Stmt *S) const;

private:
  double lvalueCost(const LValue &L) const;
};

} // namespace ptran

#endif // PTRAN_INTERP_COSTMODEL_H
