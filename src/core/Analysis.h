//===--- core/Analysis.h - Per-function analysis pipeline ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience drivers chaining the paper's program representations:
/// statement CFG (GOTOs folded into edges, as the paper draws it) ->
/// interval structure -> extended CFG -> (forward)
/// control dependence graph, per function and per program. Everything
/// downstream (profiling plans, frequency recovery, time and variance
/// estimation) consumes these bundles.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_CORE_ANALYSIS_H
#define PTRAN_CORE_ANALYSIS_H

#include "cdg/ControlDependence.h"
#include "cfg/Cfg.h"
#include "ecfg/Ecfg.h"
#include "interval/Intervals.h"
#include "obs/Observability.h"
#include "support/Cancellation.h"
#include "support/ExecutionPolicy.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace ptran {

/// Options controlling the per-function pipeline.
struct AnalysisOptions {
  /// Worker threads (or a shared pool) for ProgramAnalysis::compute.
  /// Functions are analyzed independently, so the fan-out is
  /// embarrassingly parallel; each task reports into its own
  /// DiagnosticEngine and the locals are merged back in program order, so
  /// results and diagnostics are bit-for-bit identical under every
  /// policy.
  ExecutionPolicy Exec;
  /// Tracing/metrics sink: when set, every pass of the pipeline (CFG,
  /// intervals, ECFG, FCDG) records a per-function timing span and the
  /// pool reports task counters. Disabled (the default) costs one branch
  /// per pass.
  ObsRegistry *Obs = nullptr;
  /// Cooperative cancellation: the fan-out polls the token once per
  /// function, so an expired token stops scheduling new work and the
  /// remaining functions land in skipped() with a structured
  /// Timeout/Cancelled diagnostic. Null (the default) = unbounded.
  CancelToken *Cancel = nullptr;
};

/// All derived representations of one function.
class FunctionAnalysis {
public:
  /// Runs the pipeline on \p F. Fails (null) on irreducible control flow
  /// or other structural errors, reported to \p Diags.
  static std::unique_ptr<FunctionAnalysis>
  compute(const Function &F, DiagnosticEngine &Diags,
          const AnalysisOptions &Opts = AnalysisOptions());

  const Function &function() const { return *F; }
  const Cfg &cfg() const { return C; }
  const IntervalStructure &intervals() const { return IS; }
  const Ecfg &ecfg() const { return E; }
  const ControlDependence &cd() const { return *CD; }

private:
  FunctionAnalysis() = default;

  const Function *F = nullptr;
  Cfg C;
  IntervalStructure IS;
  Ecfg E;
  std::unique_ptr<ControlDependence> CD;
};

/// FunctionAnalysis for every procedure of a program.
class ProgramAnalysis {
public:
  /// Analyzes all procedures (across Opts.Exec workers). Always
  /// returns a bundle: functions whose analysis fails (e.g. irreducible
  /// control flow) are recorded in failures() with their diagnostics in
  /// \p Diags, while every other function stays usable — callers decide
  /// whether partial coverage is acceptable via allOk().
  static std::unique_ptr<ProgramAnalysis>
  compute(const Program &P, DiagnosticEngine &Diags,
          const AnalysisOptions &Opts = AnalysisOptions());

  const Program &program() const { return *P; }
  /// Analysis of \p F. Fatal-errors if \p F failed analysis or was never
  /// part of the program (with distinct messages for the two cases); use
  /// tryOf() to probe.
  const FunctionAnalysis &of(const Function &F) const;
  /// Analysis of \p F, or null if \p F failed analysis or is unknown.
  const FunctionAnalysis *tryOf(const Function &F) const;

  /// True if every function of the program was analyzed successfully.
  bool allOk() const { return Failures.empty() && Skipped.empty(); }
  /// True if \p F was seen but its analysis failed.
  bool failed(const Function &F) const;
  /// The functions whose analysis failed, in program order.
  const std::vector<const Function *> &failures() const { return Failures; }

  /// The functions never analyzed because Opts.Cancel expired mid-run, in
  /// program order. Distinct from failures(): these functions have nothing
  /// wrong with them and analyze fine given a fresh token. Non-empty only
  /// when cutShort().
  const std::vector<const Function *> &skipped() const { return Skipped; }
  /// True when the run was cut short by an expired CancelToken.
  bool cutShort() const { return !Skipped.empty(); }

  const std::map<const Function *, std::unique_ptr<FunctionAnalysis>> &
  all() const {
    return PerFunction;
  }

private:
  const Program *P = nullptr;
  std::map<const Function *, std::unique_ptr<FunctionAnalysis>> PerFunction;
  std::vector<const Function *> Failures;
  std::vector<const Function *> Skipped;
};

} // namespace ptran

#endif // PTRAN_CORE_ANALYSIS_H
