//===--- workloads/Workloads.h - Benchmark workloads ------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Table 1 workloads, ported to the mini language:
///
///   - LOOPS: the 24 Livermore Loops [McM86], structurally faithful ports
///     (same loop nesting, recurrences, strides and branch structure) at a
///     reduced problem size so the interpreter substrate finishes quickly;
///   - SIMPLE: a hydrodynamics/heat-flow kernel shaped like the SIMPLE
///     benchmark [CHR78] on a 100 x 100 grid with NCYCLES = 10.
///
/// Plus a deterministic scaling-program generator used by the analysis
/// throughput ablation (bench A2).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_WORKLOADS_WORKLOADS_H
#define PTRAN_WORKLOADS_WORKLOADS_H

#include "ir/Function.h"

#include <memory>
#include <string>
#include <vector>

namespace ptran {

/// A named mini-language program.
struct Workload {
  std::string Name;
  std::string Source;
  /// Statement budget generously covering one run.
  uint64_t MaxSteps = 200'000'000;
};

/// The 24 Livermore Loops (Table 1's "LOOPS").
const Workload &livermoreLoops();

/// The SIMPLE-shaped hydro kernel (Table 1's "SIMPLE").
const Workload &simpleKernel();

/// Both Table 1 workloads.
std::vector<const Workload *> table1Workloads();

/// Parses and verifies a workload. Aborts on error (the sources are part
/// of the library; failing to parse them is a bug).
std::unique_ptr<Program> parseWorkload(const Workload &W);

/// Deterministically generates a program with \p Units sequential units,
/// each containing nested loops/branches up to \p Depth. Used to measure
/// how analysis passes scale with CFG size.
std::unique_ptr<Program> makeScalingProgram(unsigned Units, unsigned Depth);

/// Deterministically generates a program with \p Funcs procedures whose
/// call graph is a binary tree rooted at main (procedure k calls 2k+1 and
/// 2k+2): ~log2(Funcs) call-graph levels with up to Funcs/2 independent
/// procedures per level. Each body carries \p Depth nested DO loops
/// around an IF diamond, so both the per-function fan-out and the
/// interprocedural TIME/VAR sweep have real work.
std::unique_ptr<Program> makeManyFunctionProgram(unsigned Funcs,
                                                 unsigned Depth);

} // namespace ptran

#endif // PTRAN_WORKLOADS_WORKLOADS_H
