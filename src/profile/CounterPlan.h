//===--- profile/CounterPlan.h - Counter placement plans --------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counter-based profiling plans (Section 3). A plan decides, for every
/// control condition (u, l) of a function's FCDG, how its TOTAL_FREQ is
/// obtained:
///
///   - a physical counter attached to one or more run-time sites
///     (statement executed, branch (stmt, label) taken, procedure entered,
///     or a DO-loop-entry add of the trip count — the third optimization);
///   - or a derivation rule, a linear expression over other condition
///     totals, node totals and counters, covering the paper's
///     optimizations: pseudo edges are constant zero, one branch label per
///     node is the complement of its siblings (optimization 2), one loop
///     exit per loop follows from "exits sum to entries" (observation 1),
///     loop frequencies follow from latch counters plus entries
///     (observation 2), and exit-free DO loops with compile-time-constant
///     bounds need no counter at all (optimization 3).
///
/// The naive baseline plan (one counter per basic block, with the DO-loop
/// optimization only for straight-line bodies, as in Table 1) is also
/// built here.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PROFILE_COUNTERPLAN_H
#define PTRAN_PROFILE_COUNTERPLAN_H

#include "core/Analysis.h"

#include <map>
#include <string>
#include <vector>

namespace ptran {

/// How aggressively to optimize counter placement.
enum class ProfileMode {
  Naive,  ///< One counter per basic block (Table 1's "naive profiling").
  Opt1,   ///< One counter per control condition.
  Opt12,  ///< + sum-complement, exit-complement and latch derivations.
  Smart,  ///< + the DO-loop optimizations (Table 1's "smart profiling").
};

/// \returns "naive", "opt1", "opt1+2" or "smart".
const char *profileModeName(ProfileMode M);

/// A run-time location whose occurrence bumps a counter.
struct CounterSite {
  enum class Kind {
    Statement,      ///< Statement \p S executed: counter += 1.
    Edge,           ///< Branch (S, Label) taken: counter += 1.
    ProcEntry,      ///< Procedure entered: counter += 1.
    DoLoopEntryAdd, ///< DO loop at \p S entered: counter +=
                    ///< header-executions + Bias.
  };
  Kind K = Kind::Statement;
  StmtId S = InvalidStmt;
  CfgLabel Label = CfgLabel::U;
  int64_t Bias = 0;
};

/// One physical counter and the sites that update it.
struct PlannedCounter {
  std::vector<CounterSite> Sites;
  /// Debug label, e.g. "cond(S3,T)" or "latch(loop S1)".
  std::string Name;
};

/// A linear term of a derivation rule.
struct RecoveryTerm {
  enum class Kind {
    CondTotal, ///< TOTAL_FREQ of another condition.
    NodeTotal, ///< Total execution frequency of an ECFG node.
    CounterVal ///< Raw value of a physical counter (by local index).
  };
  Kind K = Kind::CondTotal;
  /// For CondTotal: the condition's id (ControlDependence::conditionId).
  unsigned Cond = 0;
  NodeId Node = InvalidNode;
  unsigned Counter = 0;
  double Coeff = 1.0;
};

/// How one condition's TOTAL_FREQ is obtained.
struct Resolution {
  enum class Kind {
    None,           ///< No rule (only while a plan is being built).
    Measured,       ///< Value of a physical counter.
    Zero,           ///< Pseudo edge; identically zero.
    SumComplement,  ///< Optimization 2 at a branch node.
    ExitComplement, ///< Observation 1: exits sum to entries.
    LatchSum,       ///< Observation 2: entries + latch traversals.
    DoConstTrip,    ///< Optimization 3 with a compile-time trip count.
    DoDerived,      ///< DO header branch totals derived from the loop
                    ///< frequency and entry count.
  };
  Kind K = Kind::None;
  /// For Measured: local counter index.
  unsigned Counter = 0;
  /// For derivations: TOTAL = sum of terms.
  std::vector<RecoveryTerm> Terms;
};

/// \returns a short name for a resolution kind ("measured", "zero", ...).
const char *resolutionKindName(Resolution::Kind K);

/// One step of a compiled recovery schedule: resolve the condition with
/// id \p Id by its Resolution, or (IsNode) the total of the node at arena
/// position \p Id from its in-edges.
struct RecoveryStep {
  bool IsNode = false;
  uint32_t Id = 0;
};

/// The counter plan of one function.
class FunctionPlan {
public:
  /// Builds a plan for \p FA at optimization level \p Mode. For
  /// ProfileMode::Naive the plan has no condition resolutions (the naive
  /// scheme measures block frequencies, not branch frequencies).
  static FunctionPlan build(const FunctionAnalysis &FA, ProfileMode Mode);

  ProfileMode mode() const { return Mode; }
  const std::vector<PlannedCounter> &counters() const { return Counters; }
  unsigned numCounters() const {
    return static_cast<unsigned>(Counters.size());
  }

  /// Resolution per condition id (empty for naive plans).
  const std::vector<Resolution> &resolutions() const { return Resolutions; }

  /// Section 3's recovery compiled once, at build time: every condition
  /// and FCDG node total, each after the totals it reads (empty for naive
  /// plans). Recovery is one linear pass over it.
  const std::vector<RecoveryStep> &schedule() const { return Schedule; }

  /// True when the schedule resolves every condition and node total. The
  /// build's repair loop makes this hold for every optimized plan.
  bool recoverable() const { return Recoverable; }

  /// Naive plans: the basic blocks, aligned with counters (block i is
  /// counted by counter i).
  const std::vector<std::vector<NodeId>> &naiveBlocks() const {
    return Blocks;
  }

  /// Human-readable plan dump (for examples and debugging).
  std::string str(const FunctionAnalysis &FA) const;

private:
  unsigned addCounter(PlannedCounter C) {
    Counters.push_back(std::move(C));
    return static_cast<unsigned>(Counters.size() - 1);
  }

  static void buildOptimized(FunctionPlan &Plan, const FunctionAnalysis &FA,
                             ProfileMode Mode);
  static void buildNaive(FunctionPlan &Plan, const FunctionAnalysis &FA);

  /// Compiles Schedule from Resolutions (Kahn's algorithm over the
  /// dependencies of the rules and node totals) and sets Recoverable.
  /// \returns the ids of the conditions left unresolved, ascending: those
  /// outside the rules' least fixpoint, whatever the counter values.
  std::vector<unsigned> compileSchedule(const FunctionAnalysis &FA);

  ProfileMode Mode = ProfileMode::Smart;
  std::vector<PlannedCounter> Counters;
  std::vector<Resolution> Resolutions;
  std::vector<RecoveryStep> Schedule;
  bool Recoverable = false;
  std::vector<std::vector<NodeId>> Blocks;
};

/// Plans for all procedures, with a global counter numbering (function
/// counters occupy a contiguous range starting at offsetOf(F)).
class ProgramPlan {
public:
  static ProgramPlan build(const ProgramAnalysis &PA, ProfileMode Mode);

  ProfileMode mode() const { return Mode; }
  const FunctionPlan &of(const Function &F) const;
  unsigned offsetOf(const Function &F) const;
  unsigned totalCounters() const { return Total; }

private:
  ProfileMode Mode = ProfileMode::Smart;
  std::map<const Function *, FunctionPlan> Plans;
  std::map<const Function *, unsigned> Offsets;
  unsigned Total = 0;
};

} // namespace ptran

#endif // PTRAN_PROFILE_COUNTERPLAN_H
