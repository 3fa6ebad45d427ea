//===--- profile/Recovery.h - TOTAL_FREQ recovery ---------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs TOTAL_FREQ for every control condition (and the total
/// execution frequency of every FCDG node) from the reduced counter set of
/// a FunctionPlan. Derivation rules are linear and which totals each one
/// reads depends only on the plan, so FunctionPlan::build compiles them
/// once into a schedule (FunctionPlan::schedule) and recovery is a single
/// pass over it: a node total sums its in-edges' condition totals in FCDG
/// edge-insertion order, a derived condition sums its rule's terms in term
/// order. Totals are dense vectors keyed by condition id and node id.
///
/// Counter values are checked explicitly as the pass goes: a node total
/// that comes out NaN or negative rejects the counters (Ok = false). That
/// is exactly where the fixpoint solver this pass replaces (kept in
/// tests/Reference.h as its oracle) never settled, and the diagnostic is
/// the one it gave.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PROFILE_RECOVERY_H
#define PTRAN_PROFILE_RECOVERY_H

#include "obs/Observability.h"
#include "profile/CounterPlan.h"
#include "support/Cancellation.h"

#include <vector>

namespace ptran {

/// Recovered total frequencies of one function (accumulated over however
/// many runs the counters cover).
struct FrequencyTotals {
  bool Ok = false;
  /// TOTAL_FREQ per control condition, indexed by condition id (the
  /// condition's index in ControlDependence::conditions()). Empty when
  /// recovery failed.
  std::vector<double> Cond;
  /// Total execution frequency per ECFG node (indexed by NodeId); nodes
  /// outside the FCDG keep -1. Empty when recovery failed.
  std::vector<double> Node;
  /// True when recovery is exactly additive here: every counter is an
  /// integer, no derived total was clamped at zero and every total is at
  /// most 2^52. Recovering the sum of two such counter vectors then gives
  /// exactly the sum of their totals, so a session can fold a validated
  /// profile section into its cached totals without solving again.
  bool Exact = false;

  double nodeTotal(NodeId N) const { return Node[N]; }
  /// TOTAL_FREQ of condition id \p Id; 0 for an id these totals do not
  /// hold (ControlDependence::InvalidCondition included).
  double condTotal(unsigned Id) const {
    return Id < Cond.size() ? Cond[Id] : 0.0;
  }
};

/// Recovers all totals from \p Counters (the function's local counter
/// values, Plan.numCounters() of them) in one pass over Plan.schedule().
/// A counter vector that does not match the plan's size (e.g. a profile
/// of an older program) yields FrequencyTotals{Ok = false} and a
/// diagnostic on \p Diags instead of an out-of-bounds read; so does a node
/// total that comes out NaN or negative. When \p Obs is enabled, each call
/// bumps `recovery.calls`. \p Cancel (optional) is polled once: an expired
/// token yields Ok = false with a structured Timeout/Cancelled diagnostic.
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

/// Computes node totals from condition totals \p Cond (one per condition
/// id) via the FCDG recurrence (equation 3 of Section 3, in total form),
/// summing each node's in-edges in the order recovery does. Used to turn
/// exact ground-truth condition counts, or accumulated ones, into node
/// totals.
std::vector<double> nodeTotalsFromConds(const FunctionAnalysis &FA,
                                        const std::vector<double> &Cond);

} // namespace ptran

#endif // PTRAN_PROFILE_RECOVERY_H
