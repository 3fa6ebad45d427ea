//===--- profile/Recovery.h - TOTAL_FREQ recovery ---------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs TOTAL_FREQ for every control condition (and the total
/// execution frequency of every FCDG node) from the reduced counter set of
/// a FunctionPlan. Derivation rules are linear, so recovery is a simple
/// fixpoint propagation: a node total becomes known when all its incoming
/// condition totals are known; a derived condition becomes known when all
/// terms of its rule are known.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PROFILE_RECOVERY_H
#define PTRAN_PROFILE_RECOVERY_H

#include "obs/Observability.h"
#include "profile/CounterPlan.h"
#include "support/Cancellation.h"

#include <map>
#include <vector>

namespace ptran {

/// Recovered total frequencies of one function (accumulated over however
/// many runs the counters cover).
struct FrequencyTotals {
  bool Ok = false;
  /// TOTAL_FREQ per control condition.
  std::map<ControlCondition, double> Cond;
  /// Total execution frequency per ECFG node (indexed by NodeId); nodes
  /// outside the FCDG keep -1.
  std::vector<double> Node;
  /// Conditions the solver could not resolve (diagnostic aid; empty when
  /// Ok).
  std::vector<ControlCondition> Unresolved;
  /// True when recovery is exactly additive here: every counter is an
  /// integer, no derived total was clamped at zero and every total is at
  /// most 2^52. Recovering the sum of two such counter vectors then gives
  /// exactly the sum of their totals, so a session can fold a validated
  /// profile section into its cached totals without solving again.
  bool Exact = false;

  double nodeTotal(NodeId N) const { return Node[N]; }
  double condTotal(const ControlCondition &C) const {
    auto It = Cond.find(C);
    return It == Cond.end() ? 0.0 : It->second;
  }
};

/// Recovers all totals from \p Counters (the function's local counter
/// values, Plan.numCounters() of them). A counter vector that does not
/// match the plan's size (e.g. a profile of an older program) yields
/// FrequencyTotals{Ok = false} and a diagnostic on \p Diags instead of an
/// out-of-bounds read. When \p Obs is enabled, each call bumps
/// `recovery.calls` and `recovery.fixpoint_iterations` (passes of the
/// propagation loop) in the registry. \p Cancel (optional) is polled once
/// per fixpoint iteration: an expired token yields Ok = false with a
/// structured Timeout/Cancelled diagnostic instead of finishing the solve.
FrequencyTotals recoverTotals(const FunctionAnalysis &FA,
                              const FunctionPlan &Plan,
                              const std::vector<double> &Counters,
                              DiagnosticEngine *Diags = nullptr,
                              ObsRegistry *Obs = nullptr,
                              CancelToken *Cancel = nullptr);

/// Adds \p Delta onto \p Acc when both are Exact totals of the same
/// function, so that \p Acc becomes what recoverTotals returns for the
/// sum of the two counter vectors; Acc.Exact then says whether it can
/// take another sum. \returns false, leaving \p Acc untouched, when
/// either is not Exact.
bool addExactTotals(FrequencyTotals &Acc, const FrequencyTotals &Delta);

/// Computes node totals from already-known condition totals via the FCDG
/// recurrence (equation 3 of Section 3, in total form). Used both by the
/// solver and to turn exact ground-truth condition counts into node
/// totals.
std::vector<double>
nodeTotalsFromConds(const FunctionAnalysis &FA,
                    const std::map<ControlCondition, double> &Cond);

/// Symbolically checks that \p Plan can recover every condition (runs the
/// solver with zero-valued counters and inspects resolvability). Used by
/// tests and by plan validation.
bool planIsRecoverable(const FunctionAnalysis &FA, const FunctionPlan &Plan);

} // namespace ptran

#endif // PTRAN_PROFILE_RECOVERY_H
