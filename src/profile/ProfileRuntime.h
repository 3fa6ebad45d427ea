//===--- profile/ProfileRuntime.h - Counter runtime -------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution observers implementing the profiling runtimes:
///
///   - ProfileRuntime executes a ProgramPlan's counter updates, tracking
///     both the counter values and the simulated overhead (increment and
///     add costs from the CostModel) — the quantity Table 1 compares;
///   - ExactProfile records exact per-statement, per-branch and per-entry
///     counts, serving as ground truth in tests and as the frequency
///     source when no reduced plan is wanted;
///   - LoopFrequencyStats tracks per-entry header-execution counts of
///     every loop, yielding the E[FREQ] / E[FREQ^2] moments the variance
///     analysis of Section 5 can use instead of a distribution assumption.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PROFILE_PROFILERUNTIME_H
#define PTRAN_PROFILE_PROFILERUNTIME_H

#include "interp/CostModel.h"
#include "interp/Observer.h"
#include "profile/CounterPlan.h"
#include "profile/Recovery.h"

#include <array>
#include <map>
#include <vector>

namespace ptran {

/// Executes the counter updates of a ProgramPlan during interpretation.
class ProfileRuntime : public ExecutionObserver {
public:
  /// \p Obs, when non-null, receives `recovery.*` counters from every
  /// recover() call.
  ProfileRuntime(const ProgramAnalysis &PA, const ProgramPlan &Plan,
                 const CostModel &CM, ObsRegistry *Obs = nullptr);

  // ExecutionObserver:
  void onProcedureEntry(const Function &F, unsigned Depth) override;
  void onStatement(const Function &F, StmtId S, unsigned Depth) override;
  void onTransfer(const Function &F, StmtId From, CfgLabel Label, StmtId To,
                  unsigned Depth) override;
  void onDoLoopEntry(const Function &F, StmtId DoHeader,
                     int64_t HeaderExecutions, unsigned Depth) override;

  /// Global counter values (offsets per ProgramPlan::offsetOf).
  const std::vector<double> &counters() const { return Counters; }

  /// This function's local counter slice.
  std::vector<double> countersFor(const Function &F) const;

  /// Adds \p Local (this function's counter slice, e.g. an ingested
  /// profile section) onto \p F's counters, each sum clamped at 2^53.
  /// \returns true when a sum was clamped.
  bool addCounters(const Function &F, const std::vector<double> &Local);

  /// Counter updates executed so far (increments + adds).
  uint64_t dynamicIncrements() const { return Increments; }
  uint64_t dynamicAdds() const { return Adds; }

  /// Simulated cycles spent in profiling code.
  double overheadCycles() const;

  /// Recovers TOTAL_FREQ for one function from the current counters.
  /// \p Cancel (optional) bounds the recovery fixpoint; an expired token
  /// yields Ok = false (see recoverTotals).
  FrequencyTotals recover(const Function &F,
                          CancelToken *Cancel = nullptr) const;

  /// Zeroes counters and overhead (e.g. between accumulation epochs).
  void reset();

private:
  struct SiteTables {
    /// Per statement: counters bumped when it executes.
    std::vector<std::vector<unsigned>> OnStmt;
    /// Per statement: (label, counter) pairs bumped on matching transfer.
    std::vector<std::vector<std::pair<CfgLabel, unsigned>>> OnEdge;
    /// Per statement: (counter, bias) add-sites fired on DO-loop entry.
    std::vector<std::vector<std::pair<unsigned, int64_t>>> OnDoEntry;
    /// Counters bumped on procedure entry.
    std::vector<unsigned> OnProcEntry;
  };

  const SiteTables &tablesFor(const Function &F) const;

  const ProgramAnalysis &PA;
  const ProgramPlan &Plan;
  CostModel CM;
  ObsRegistry *Obs = nullptr;
  std::map<const Function *, SiteTables> Tables;
  std::vector<double> Counters;
  uint64_t Increments = 0;
  uint64_t Adds = 0;
};

/// Exact event counts (no counter plan): the oracle profiler.
class ExactProfile : public ExecutionObserver {
public:
  explicit ExactProfile(const ProgramAnalysis &PA) : PA(PA) {}

  void onProcedureEntry(const Function &F, unsigned Depth) override;
  void onStatement(const Function &F, StmtId S, unsigned Depth) override;
  void onTransfer(const Function &F, StmtId From, CfgLabel Label, StmtId To,
                  unsigned Depth) override;

  /// Exact executions of statement \p S of \p F.
  double stmtCount(const Function &F, StmtId S) const;
  /// Exact traversals of branch (\p S, \p L).
  double transferCount(const Function &F, StmtId S, CfgLabel L) const;
  /// Exact activations of \p F.
  double entryCount(const Function &F) const;

  /// Exact TOTAL_FREQ of every condition of \p F, plus node totals
  /// computed through the FCDG recurrence.
  FrequencyTotals totals(const Function &F) const;

private:
  struct Counts {
    double Entries = 0;
    std::vector<double> Stmt;
    /// Per statement: taken-count per label (sparse; computed-GOTO arms
    /// make the label set unbounded).
    std::vector<std::map<LabelId, double>> Transfer;
  };
  Counts &countsFor(const Function &F);
  const Counts *findCounts(const Function &F) const;

  const ProgramAnalysis &PA;
  std::map<const Function *, Counts> PerFunction;
};

/// Per-loop frequency moments: for each loop entry, the number of header
/// executions until the loop was left. Loops are the intervals of \p PA,
/// the analysis TimeAnalysis reads, so moments are keyed by the header it
/// looks up (for a loop entered through a folded GOTO, the GOTO's target).
class LoopFrequencyStats : public ExecutionObserver {
public:
  explicit LoopFrequencyStats(const ProgramAnalysis &PA);

  void onProcedureEntry(const Function &F, unsigned Depth) override;
  void onProcedureExit(const Function &F, unsigned Depth) override;
  void onStatement(const Function &F, StmtId S, unsigned Depth) override;
  void onTransfer(const Function &F, StmtId From, CfgLabel Label, StmtId To,
                  unsigned Depth) override;

  /// Moments of one loop's per-entry header-execution count F.
  struct Moments {
    double Entries = 0;
    double Sum = 0;   ///< Sigma F   (so Sum / Entries = E[F]).
    double SumSq = 0; ///< Sigma F^2 (so SumSq / Entries = E[F^2]).

    double mean() const { return Entries > 0 ? Sum / Entries : 0.0; }
    double meanSquare() const { return Entries > 0 ? SumSq / Entries : 0.0; }
    double variance() const {
      double M = mean();
      double V = meanSquare() - M * M;
      return V > 0.0 ? V : 0.0;
    }
  };

  /// Moments for the loop whose header is the statement \p HeaderStmt of
  /// \p F.
  const Moments *momentsFor(const Function &F, StmtId HeaderStmt) const;

  /// All recorded loop moments of \p F, ordered by header statement (the
  /// enumeration profile capture serializes).
  std::vector<std::pair<StmtId, Moments>> momentsOf(const Function &F) const;

  /// Folds externally ingested moments (e.g. loaded from a profile file)
  /// into the accumulator for (\p F, \p HeaderStmt).
  void addMoments(const Function &F, StmtId HeaderStmt, const Moments &M);

private:
  struct LoopShape {
    StmtId HeaderStmt = InvalidStmt;
    /// Statement-level body membership.
    std::vector<bool> BodyStmts;
  };
  struct ActiveLoop {
    unsigned LoopIdx = 0;
    double HeaderExecs = 0;
  };
  struct FunctionState {
    const Function *F = nullptr;
    /// Active loops, innermost last.
    std::vector<ActiveLoop> Active;
  };

  /// Records and pops active loops, innermost first, until one whose body
  /// holds \p Target (InvalidStmt closes them all).
  void closeLoopsOutside(FunctionState &State, const Function &F,
                         StmtId Target);

  std::map<const Function *, std::vector<LoopShape>> Shapes;
  std::map<std::pair<const Function *, StmtId>, Moments> Stats;
  /// Stack of per-activation states, indexed by frame depth.
  std::vector<FunctionState> Frames;
};

} // namespace ptran

#endif // PTRAN_PROFILE_PROFILERUNTIME_H
