//===--- tests/Reference.h - Brute-force reference algorithms ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slow, obviously-correct reference implementations used to validate the
/// production algorithms: reachability-based dominators, a literal
/// transcription of the paper's Definition 2 of control dependence, the
/// fixpoint solver of Section 3's counter recovery, the interprocedural
/// TIME/VAR pass with its call graph built per run, and an
/// absorbing-Markov-chain model of average execution time and its
/// variance that shares nothing with the paper's FCDG algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_TESTS_REFERENCE_H
#define PTRAN_TESTS_REFERENCE_H

#include "cost/TimeAnalysis.h"
#include "graph/Digraph.h"
#include "interp/CostModel.h"
#include "interp/Observer.h"
#include "profile/CounterPlan.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace ptran {
namespace testing {

/// Brute-force dominator sets: A dominates B iff removing A makes B
/// unreachable from Root (plus A dominating itself). Unreachable nodes
/// have empty sets.
std::vector<std::set<NodeId>> bruteForceDominators(const Digraph &G,
                                                   NodeId Root);

/// Brute-force postdominator relation on \p G with exit \p Stop:
/// Result[B] contains every A that postdominates B.
std::vector<std::set<NodeId>> bruteForcePostDominators(const Digraph &G,
                                                       NodeId Stop);

/// A literal implementation of Definition 2: Y is control dependent on
/// (X, L) iff Y does not postdominate X, and there is a path from X to Y,
/// starting with an L-labelled edge, whose intermediate nodes are all
/// postdominated by Y. Returns (X, Y, L) triples.
std::set<std::tuple<NodeId, NodeId, LabelId>>
bruteForceControlDependence(const Digraph &G, NodeId Stop);

/// What fixpointRecoverTotals recovers: condition totals keyed by
/// condition, node totals by node id (-1 = unknown), and the conditions
/// it could not resolve. Failures leave everything empty.
struct FixpointTotals {
  bool Ok = false;
  std::map<ControlCondition, double> Cond;
  std::vector<double> Node;
  std::vector<ControlCondition> Unresolved;
  bool Exact = false;
};

/// Section 3's counter recovery solved as a fixpoint: each pass re-walks
/// every FCDG node's in-edges and every rule of \p Plan, a node total
/// becoming known when all its incoming condition totals are (and only
/// while it is >= 0, so a NaN or negative one stays unknown), a derived
/// condition when all its terms are. A pass that changes nothing ends the
/// solve; 2·(|conditions| + |nodes|) + 8 passes abort it with a "did not
/// converge" error on \p Diags. This is the solver recoverTotals' plan-time
/// schedule replaced, kept as its oracle: the two must agree bit for bit.
FixpointTotals fixpointRecoverTotals(const FunctionAnalysis &FA,
                                     const FunctionPlan &Plan,
                                     const std::vector<double> &Counters,
                                     DiagnosticEngine *Diags = nullptr);

/// Recovers \p Counters with both recoverTotals and fixpointRecoverTotals
/// and compares them bit for bit: the Ok and Exact flags, the diagnostics,
/// every condition total and every node total. \returns a description of
/// the first difference, or "" when they agree.
std::string compareWithFixpoint(const FunctionAnalysis &FA,
                                const FunctionPlan &Plan,
                                const std::vector<double> &Counters);

/// What referenceTimeAnalysis computes: every analyzed function's node
/// estimates, the unresolved-callee warnings (sorted, once each) and
/// whether the call graph is recursive.
struct ReferenceTimes {
  std::map<const Function *, std::vector<NodeEstimates>> PerFunction;
  std::vector<std::string> Warnings;
  bool Recursive = false;
};

/// The interprocedural TIME/VAR pass (Sections 4 and 5) with its call
/// structure built per run, as TimeAnalysis did before ProgramAnalysis
/// compiled it: the call graph over \p PA's analyzed functions (one edge
/// per call statement, in statement order), its CSR, the Tarjan SCCs and
/// a per-node callee table resolved by name, every call. Components are
/// evaluated callees-first, recursive ones by the same 16-iteration
/// fixpoint, and each function by a node-id transcription of the
/// recurrences that reads the FCDG through ControlDependence's allocating
/// labelsOf/childrenOf and FREQ through Frequencies::freqOf. A call into
/// a function without an analysis stays unresolved. Opts.Cancel, Opts.Obs
/// and Opts.Diags are ignored (the warnings are returned instead).
///
/// Every function is evaluated, but with \p Changed set the warnings are
/// those an incremental rerun reports: only from the dirty closure (the
/// components holding a changed function or calling into a dirty one).
ReferenceTimes referenceTimeAnalysis(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const CostModel &CM, const TimeAnalysisOptions &Opts = {},
    const std::vector<const Function *> *Changed = nullptr);

/// Counts, per function, what an interpreter run did: activations,
/// statement executions, the first statement of each activation, and
/// every statement-to-statement transfer (To = InvalidStmt when control
/// leaves the procedure). These are the empirical transition counts of
/// the probabilistic control-flow graph (Amtoft & Banerjee, "A Semantics
/// for Probabilistic Control-Flow Graphs").
class ChainObserver : public ExecutionObserver {
public:
  struct Counts {
    uint64_t Activations = 0;
    std::map<StmtId, uint64_t> Executions;
    std::map<StmtId, uint64_t> Firsts;
    std::map<std::pair<StmtId, StmtId>, uint64_t> Transfers;
  };

  void onProcedureEntry(const Function &F, unsigned Depth) override;
  void onStatement(const Function &F, StmtId S, unsigned Depth) override;
  void onTransfer(const Function &F, StmtId From, CfgLabel Label, StmtId To,
                  unsigned Depth) override;

  const std::map<const Function *, Counts> &counts() const {
    return PerFunction;
  }

private:
  std::map<const Function *, Counts> PerFunction;
  /// Per call depth: the activation has not executed a statement yet.
  std::vector<bool> Fresh;
};

/// Mean and variance of one procedure's execution time.
struct ChainMoments {
  double Time = 0.0;
  double Var = 0.0;
};

/// Replaces the CostModel's local cost of a statement (nullopt keeps it).
using StmtCostOverride =
    std::function<std::optional<double>(const Function &, const Stmt *)>;

/// Models every executed procedure as an absorbing Markov chain over its
/// executed statements, with P(s -> t) = transfers(s -> t) / executions(s)
/// and the first-statement distribution as the initial one. A statement
/// costs its CostModel (or \p Override) cost; a call additionally draws
/// the callee's time independently, contributing the callee's mean and
/// variance. With Q the transient transition matrix, c the mean cost and
/// E[c^2] its second moment, the expected remaining time t and second
/// moment s solve (I - Q) t = c and (I - Q) s = E[c^2] + 2 c (t - c).
/// Callees are solved before callers; recursion is a fatal error.
std::map<const Function *, ChainMoments>
markovMoments(const Program &P, const ChainObserver &Observed,
              const CostModel &CM, const StmtCostOverride &Override = {});

} // namespace testing
} // namespace ptran

#endif // PTRAN_TESTS_REFERENCE_H
