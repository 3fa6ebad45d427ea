//===--- cost/TimeAnalysis.h - Average times and variance -------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (Sections 4 and 5): average execution
/// times TIME(u) and their variance VAR(u) for every node of the forward
/// control dependence graph, in one linear bottom-up pass per procedure,
/// and bottom-up over the call graph interprocedurally (rule 2:
/// COST(call) = TIME(callee START)).
///
/// Variance follows Section 5 exactly: Case 1 (preheaders) uses the
/// product-variance identity with the loop-frequency variance
/// VAR(FREQ(u,l)) supplied by a configurable model — identically zero, a
/// closed-form distribution assumption (geometric/uniform), or the
/// profiled second moment E[FREQ^2]; Case 2 (branch probabilities)
/// computes E[TIME_C^2] across the label outcomes. As extensions, a
/// call's COST always carries the callee's variance instead of the paper's
/// VAR(COST(u)) = 0 assumption, and recursive call graphs are handled by a
/// fixed 16-iteration fixpoint (the paper defers them).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_COST_TIMEANALYSIS_H
#define PTRAN_COST_TIMEANALYSIS_H

#include "freq/Frequencies.h"
#include "interp/CostModel.h"
#include "obs/Observability.h"
#include "profile/ProfileRuntime.h"
#include "support/Cancellation.h"

#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace ptran {

/// How VAR(FREQ) of a loop frequency is modelled (Section 5, Case 1).
enum class LoopVarianceMode {
  Zero,      ///< VAR(FREQ) = 0 (the paper's simplified final equation).
  Profiled,  ///< E[FREQ^2] from LoopFrequencyStats.
  Geometric, ///< Header executions ~ shifted geometric with the observed
             ///< mean: VAR = mean^2 - mean.
  Uniform,   ///< Header executions ~ uniform on {1 .. 2*mean-1}:
             ///< VAR = ((2*mean-1)^2 - 1) / 12.
};

/// Options for the time/variance analysis. The Section 4/5 recurrences
/// run as one linear sweep per function over the FlowArena's
/// topologically-indexed CSR arrays, with dense FREQ lookups and no heap
/// allocation inside the sweep (proved by cost.hotpath.allocs).
struct TimeAnalysisOptions {
  LoopVarianceMode LoopVariance = LoopVarianceMode::Zero;
  /// Required when LoopVariance == Profiled.
  const LoopFrequencyStats *Stats = nullptr;
  /// Replace the local COST(u) of specific statements (used to reproduce
  /// Figure 3's literal COST assignments). Returning nullopt keeps the
  /// CostModel's estimate.
  std::function<std::optional<double>(const Function &, const Stmt *)>
      LocalCostOverride;
  /// Extension: the paper's Case 2 treats every branch — including a DO
  /// header's continue/exit test — as an independent Bernoulli draw, so
  /// even a compile-time-constant loop acquires variance. With this flag
  /// the headers of exit-free DO loops are treated as deterministic: only
  /// their children's variance propagates, no branch-outcome term.
  bool DeterministicDoHeaders = false;
  /// Optional sink for analysis warnings: calls whose callee is undefined
  /// (or otherwise unsummarized) contribute zero time, and are reported
  /// here once per callee instead of being silently dropped.
  DiagnosticEngine *Diags = nullptr;
  /// Tracing/metrics sink: when set, the whole pass and every component
  /// evaluation of the SCC condensation record timing spans, and
  /// fixpoint-iteration / evaluation counters accumulate in the registry.
  /// Disabled (the default) costs one branch per site.
  ObsRegistry *Obs = nullptr;
  /// Cooperative cancellation: polled at every dirty SCC-component entry
  /// and every recursion-fixpoint iteration. Once the token expires no
  /// further component is evaluated; the functions left without estimates
  /// land in unfinished(). Because the pass evaluates callers strictly
  /// after callees and expiry is monotone, every function that did finish
  /// saw only final callee summaries — finished estimates are
  /// bit-identical to an unbounded run. Null (the default) = unbounded.
  CancelToken *Cancel = nullptr;
};

/// TIME/VAR of one procedure's START node: the summary callers consume
/// through rule 2, and the unit an incremental estimation session caches
/// at the clean/dirty frontier.
struct FunctionSummary {
  double Time = 0.0;
  double Var = 0.0;
};

/// Per-node estimation results (the [...] tuples of Figure 3).
struct NodeEstimates {
  double Cost = 0.0;   ///< COST(u): local average execution time; for a
                       ///< call node this includes TIME(callee START).
  double SelfCost = 0.0; ///< COST(u) without any callee contribution
                         ///< (linkage only, for calls).
  double Time = 0.0;   ///< TIME(u): total average execution time.
  double TimeSq = 0.0; ///< E[T^2].
  double Var = 0.0;    ///< VAR(u).
  double StdDev = 0.0; ///< sqrt(VAR(u)).
};

/// The analysis results for a whole program.
class TimeAnalysis {
public:
  /// Runs the analysis. \p FreqsByFunction must contain Frequencies for
  /// every procedure of \p PA's program.
  static TimeAnalysis
  run(const ProgramAnalysis &PA,
      const std::map<const Function *, Frequencies> &FreqsByFunction,
      const CostModel &CM,
      const TimeAnalysisOptions &Opts = TimeAnalysisOptions());

  /// Incremental re-run: \p Changed names the functions whose inputs
  /// (frequencies, loop moments, cost model overrides) differ from the
  /// ones \p Previous was computed with. Only the dirty closure — the
  /// changed functions plus their call-graph ancestors, widened to whole
  /// SCCs — is re-evaluated; every other function reuses its estimates
  /// from \p Previous verbatim, and its cached summary feeds callers at
  /// the frontier. Because the pass evaluates a function only after all
  /// its callee summaries are final, the result is bit-identical to a
  /// full run() on the new inputs. \p Previous must come from the same
  /// ProgramAnalysis with the same options and an identical cost model;
  /// the caller (e.g. EstimationSession) is responsible for widening
  /// \p Changed to "everything" when the configuration itself changed.
  static TimeAnalysis
  rerun(const ProgramAnalysis &PA,
        const std::map<const Function *, Frequencies> &FreqsByFunction,
        const CostModel &CM, const TimeAnalysisOptions &Opts,
        const TimeAnalysis &Previous,
        const std::vector<const Function *> &Changed);

  /// Estimates of ECFG node \p N of \p F.
  const NodeEstimates &of(const Function &F, NodeId N) const;

  /// All node estimates of \p F, indexed by ECFG node id (the raw vector,
  /// e.g. for byte-level comparison of incremental vs cold results).
  const std::vector<NodeEstimates> &estimatesOf(const Function &F) const;

  /// TIME(START) of \p F: the procedure's average execution time.
  double functionTime(const Function &F) const;
  /// VAR(START) of \p F.
  double functionVariance(const Function &F) const;

  /// The whole program's TIME(START) (of the entry procedure).
  double programTime() const;
  /// The whole program's STD_DEV(START).
  double programStdDev() const;

  /// True if the call graph contains recursion (handled by fixed-point
  /// iteration).
  bool hasRecursion() const { return Recursive; }

  /// Per-function bottom-up evaluations this run performed (a recursive
  /// SCC's fixpoint counts every iteration of every member). Incremental
  /// sessions and tests assert through this counter that clean SCCs were
  /// not re-evaluated.
  uint64_t functionEvaluations() const { return Evaluations; }

  /// True when Opts.Cancel expired before every dirty function was
  /// evaluated. Unfinished functions carry no estimates at all — of() and
  /// estimatesOf() fatal-error on them, and an incremental rerun() sees
  /// them as dirty — so callers must either fail or degrade them
  /// explicitly (DeadlinePolicy); finished functions are bit-identical to
  /// an unbounded run.
  bool cutShort() const { return !Unfinished.empty(); }
  /// The functions without estimates, in program order. Closed under
  /// "callers of": a caller is only evaluated after its callees, so every
  /// transitive caller of an unfinished function is itself unfinished.
  const std::vector<const Function *> &unfinished() const {
    return Unfinished;
  }

private:
  static TimeAnalysis
  runImpl(const ProgramAnalysis &PA,
          const std::map<const Function *, Frequencies> &FreqsByFunction,
          const CostModel &CM, const TimeAnalysisOptions &Opts,
          const TimeAnalysis *Previous,
          const std::vector<const Function *> *Changed);

  const ProgramAnalysis *PA = nullptr;
  std::map<const Function *, std::vector<NodeEstimates>> PerFunction;
  bool Recursive = false;
  uint64_t Evaluations = 0;
  std::vector<const Function *> Unfinished;
  CancelReason CutReason = CancelReason::None;
};

} // namespace ptran

#endif // PTRAN_COST_TIMEANALYSIS_H
