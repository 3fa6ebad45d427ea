//===--- profile/Recovery.cpp - TOTAL_FREQ recovery -----------------------===//

#include "profile/Recovery.h"

#include <cassert>
#include <cmath>
#include <string>

using namespace ptran;

/// 2^52: two totals at most this large sum exactly in a double.
static constexpr double ExactTotalLimit = 4503599627370496.0;

FrequencyTotals ptran::recoverTotals(const FunctionAnalysis &FA,
                                     const FunctionPlan &Plan,
                                     const std::vector<double> &Counters,
                                     DiagnosticEngine *Diags,
                                     ObsRegistry *Obs, CancelToken *Cancel) {
  // Explicit validation (not just an assert, which compiles out in release
  // builds): a mismatched vector would index out of bounds below.
  if (Counters.size() != Plan.numCounters()) {
    if (Diags)
      Diags->error("counter vector for " + FA.function().name() + " has " +
                   std::to_string(Counters.size()) + " entries, plan expects " +
                   std::to_string(Plan.numCounters()));
    return FrequencyTotals();
  }
  // Naive plans measure basic blocks, not conditions; nothing to solve.
  // An unrecoverable plan (the build's repair loop leaves none) cannot
  // resolve everything whatever the counters say.
  if (Plan.mode() == ProfileMode::Naive || !Plan.recoverable())
    return FrequencyTotals();
  if (Obs)
    Obs->addCounter("recovery.calls");
  if (Cancel && Cancel->checkpoint()) {
    if (Diags)
      Diags->error(cancelMessage(*Cancel, "frequency recovery for " +
                                              FA.function().name()));
    return FrequencyTotals();
  }

  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  const std::vector<Resolution> &Rules = Plan.resolutions();
  const NodeId Start = FA.ecfg().start();

  FrequencyTotals Out;
  Out.Cond.assign(CD.conditions().size(), 0.0);
  Out.Node.assign(A.numNodes(), -1.0);
  bool Clamped = false;

  for (const RecoveryStep &S : Plan.schedule()) {
    if (S.IsNode) {
      // START's total is its own U condition (the procedure's invocation
      // count); every other node sums its incoming conditions.
      NodeId N = A.node(S.Id);
      double Sum;
      if (N == Start) {
        Sum = Out.Cond[CD.conditionId({Start, CfgLabel::U})];
      } else {
        Sum = 0.0;
        for (uint32_t I = A.inBegin(S.Id); I != A.inEnd(S.Id); ++I)
          Sum += Out.Cond[A.group(A.inGroup(I)).Cond];
      }
      // The value check: a NaN or negative node total means the counters
      // contradict each other. The fixpoint solver this pass replaces
      // never settled on such counters and gave up after its iteration
      // cap; the diagnostic keeps its wording and count.
      if (!(Sum >= 0.0)) {
        if (Diags) {
          uint64_t Cap =
              2 * (static_cast<uint64_t>(CD.conditions().size()) +
                   A.numNodes()) +
              8;
          Diags->error("frequency recovery for " + FA.function().name() +
                       " did not converge after " + std::to_string(Cap) +
                       " iterations; counters are contradictory (NaN or "
                       "cyclic derivation)");
        }
        return FrequencyTotals();
      }
      Out.Node[N] = Sum;
      continue;
    }
    const Resolution &R = Rules[S.Id];
    switch (R.K) {
    case Resolution::Kind::Measured:
      Out.Cond[S.Id] = Counters[R.Counter];
      continue;
    case Resolution::Kind::Zero:
      Out.Cond[S.Id] = 0.0;
      continue;
    default:
      break;
    }
    assert(R.K != Resolution::Kind::None && "scheduled a condition without "
                                            "a rule");
    double Value = 0.0;
    for (const RecoveryTerm &T : R.Terms) {
      switch (T.K) {
      case RecoveryTerm::Kind::CondTotal:
        Value += T.Coeff * Out.Cond[T.Cond];
        break;
      case RecoveryTerm::Kind::NodeTotal:
        Value += T.Coeff * Out.Node[T.Node];
        break;
      case RecoveryTerm::Kind::CounterVal:
        Value += T.Coeff * Counters[T.Counter];
        break;
      }
    }
    // Counter noise can produce tiny negative values for identically zero
    // paths; clamp.
    Clamped |= Value < 0.0;
    Out.Cond[S.Id] = Value < 0.0 ? 0.0 : Value;
  }

  Out.Ok = true;
  Out.Exact = !Clamped;
  for (double C : Counters)
    Out.Exact &= std::floor(C) == C;
  for (double T : Out.Cond)
    Out.Exact &= T <= ExactTotalLimit;
  for (double N : Out.Node)
    Out.Exact &= N <= ExactTotalLimit;
  return Out;
}

bool ptran::addExactTotals(FrequencyTotals &Acc,
                           const FrequencyTotals &Delta) {
  // Totals recovered through one plan hold the same conditions and nodes.
  if (!Acc.Exact || !Delta.Exact || Acc.Cond.size() != Delta.Cond.size() ||
      Acc.Node.size() != Delta.Node.size())
    return false;
  for (size_t C = 0; C < Acc.Cond.size(); ++C) {
    Acc.Cond[C] += Delta.Cond[C];
    Acc.Exact &= Acc.Cond[C] <= ExactTotalLimit;
  }
  for (size_t N = 0; N < Acc.Node.size(); ++N) {
    if (Acc.Node[N] < 0.0)
      continue; // Outside the FCDG in both.
    Acc.Node[N] += Delta.Node[N];
    Acc.Exact &= Acc.Node[N] <= ExactTotalLimit;
  }
  return true;
}

std::vector<double>
ptran::nodeTotalsFromConds(const FunctionAnalysis &FA,
                           const std::vector<double> &Cond) {
  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  assert(Cond.size() == CD.conditions().size() &&
         "one condition total per condition id");
  NodeId Start = FA.ecfg().start();
  unsigned StartCond = CD.conditionId({Start, CfgLabel::U});

  std::vector<double> Node(A.numNodes(), -1.0);
  for (unsigned P = 0; P < A.numPositions(); ++P) {
    NodeId N = A.node(P);
    if (N == Start) {
      Node[N] = StartCond == ControlDependence::InvalidCondition
                    ? 0.0
                    : Cond[StartCond];
      continue;
    }
    double Sum = 0.0;
    for (uint32_t I = A.inBegin(P); I != A.inEnd(P); ++I)
      Sum += Cond[A.group(A.inGroup(I)).Cond];
    Node[N] = Sum;
  }
  return Node;
}
