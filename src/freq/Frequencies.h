//===--- freq/Frequencies.h - Relative frequency computation ----*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts TOTAL_FREQ counts into the relative frequencies of
/// Definition 3 using the three recurrence equations of Section 3, in one
/// top-down pass over the FCDG:
///
///   1.  NODE_FREQ(START) = 1
///   2.  FREQ(u, l) = TOTAL_FREQ(u, l)
///                    / (TOTAL_FREQ(START, U) * NODE_FREQ(u))
///   3.  NODE_FREQ(v) = Sigma_(u,v,l) NODE_FREQ(u) * FREQ(u, l)
///
/// with the footnote-2 guard: a zero denominator forces FREQ(u, l) = 0
/// (the numerator is then necessarily zero too).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_FREQ_FREQUENCIES_H
#define PTRAN_FREQ_FREQUENCIES_H

#include "profile/Recovery.h"

#include <vector>

namespace ptran {

/// Relative execution frequencies of one function, in one dense form
/// over the FCDG's FlowArena.
struct Frequencies {
  /// FREQ(u, l), indexed by the FlowArena's global group ids (each arena
  /// group IS one control condition): a loop frequency for preheader
  /// conditions (>= 0), a branch probability otherwise (in [0, 1]). The
  /// CSR TIME/VAR sweep reads it directly.
  std::vector<double> GroupFreq;
  /// NODE_FREQ(u): average executions of u per procedure invocation,
  /// indexed by ECFG node (nodes outside the FCDG hold 0).
  std::vector<double> NodeFreq;
  /// TOTAL_FREQ(START, U): how many activations the totals cover.
  double Invocations = 0.0;
  /// The arena GroupFreq is laid out over (set by every producer; it
  /// belongs to the function's analysis, which must outlive this).
  const FlowArena *Arena = nullptr;

  /// FREQ(C), looked up through the arena: 0 for a condition that is not
  /// an FCDG condition reachable from START.
  double freqOf(const ControlCondition &C) const;
};

/// Runs the top-down pass on \p Totals (which must be Ok).
Frequencies computeFrequencies(const FunctionAnalysis &FA,
                               const FrequencyTotals &Totals);

} // namespace ptran

#endif // PTRAN_FREQ_FREQUENCIES_H
