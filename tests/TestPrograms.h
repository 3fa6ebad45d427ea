//===--- tests/TestPrograms.h - Shared test fixtures ------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program fixtures shared by the test suite: the paper's Figure 1
/// fragment (built statement-for-statement so the CFG matches the figure),
/// a random reducible-program generator, and small helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_TESTS_TESTPROGRAMS_H
#define PTRAN_TESTS_TESTPROGRAMS_H

#include "cost/TimeAnalysis.h"
#include "ir/Builder.h"
#include "profile/Recovery.h"
#include "support/Rng.h"

#include <memory>

namespace ptran {
namespace testing {

/// The paper's running example (Figure 1), arranged so that the loop's IF
/// executes exactly 10 times, M stays >= 0 throughout, and the loop exits
/// via the IF (N .LT. 0) branch — the Figure 3 scenario. The CALL FOO
/// node's cost comes from FOO's TIME(START).
///
/// Statement layout of MAIN (GOTOs are elided into edges by the default
/// pipeline):
///   0  M = 1                  setup
///   1  N = 8                  setup
///   2  10 IF (M .GE. 0) GOTO 30     "A" (loop header)
///   3  IF (N .GE. 0) GOTO 20        "C"
///   4  GOTO 40
///   5  30 IF (N .LT. 0) GOTO 20     "B"
///   6  40 CALL FOO(M, N)            "D"
///   7  GOTO 10
///   8  20 CONTINUE                  "E"
struct Figure1Program {
  std::unique_ptr<Program> Prog;
  /// Statement ids of the named nodes in MAIN.
  StmtId A = 0, B = 0, C = 0, D = 0, E = 0;
  const Function *Main = nullptr;
  const Function *Foo = nullptr;
};

/// Builds the Figure 1 fixture. Aborts on internal construction errors.
Figure1Program makeFigure1();

/// A totals delta for \p FA holding \p Total for its invocation count,
/// (START, U), and zero for every other condition: the partial form
/// EstimationSession::accumulateTotals takes.
FrequencyTotals invocationDelta(const FunctionAnalysis &FA, double Total);

/// The Figure 3 cost assignment: COST = 1 for IF statements, 100 for the
/// body of FOO (so TIME(FOO START) = 100), 0 for everything else.
TimeAnalysisOptions figure3CostOptions();

/// Configuration for the random program generator.
struct RandomProgramConfig {
  unsigned MaxDepth = 3;          ///< Maximum nesting of generated regions.
  unsigned MaxRegionsPerLevel = 3;///< Regions sequenced at each level.
  bool WithCalls = true;          ///< Generate calls to helper procedures.
  bool WithGotoLoops = true;      ///< Generate IF/GOTO loops, not just DO.
  bool WithLoopExits = true;      ///< Generate premature loop exits.
};

/// Generates a random, reducible, terminating program whose branches are
/// driven by a deterministic pseudo-random sequence computed in-program,
/// so repeated runs take identical paths for a given seed. Used by the
/// profiling property tests.
std::unique_ptr<Program> makeRandomProgram(uint64_t Seed,
                                           const RandomProgramConfig &Config);

} // namespace testing
} // namespace ptran

#endif // PTRAN_TESTS_TESTPROGRAMS_H
