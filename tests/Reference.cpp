//===--- tests/Reference.cpp - Brute-force reference algorithms -----------===//

#include "Reference.h"

#include "graph/Scc.h"
#include "profile/Recovery.h"
#include "support/Casting.h"
#include "support/FatalError.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// Nodes reachable from \p From, optionally pretending \p Removed is
/// absent.
std::vector<bool> reachableFrom(const Digraph &G, NodeId From,
                                NodeId Removed = InvalidNode) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (From == Removed)
    return Seen;
  std::vector<NodeId> Worklist = {From};
  Seen[From] = true;
  while (!Worklist.empty()) {
    NodeId N = Worklist.back();
    Worklist.pop_back();
    for (NodeId S : G.successors(N)) {
      if (S == Removed || Seen[S])
        continue;
      Seen[S] = true;
      Worklist.push_back(S);
    }
  }
  return Seen;
}

/// Solves A x = B by Gaussian elimination with partial pivoting.
std::vector<double> solveDense(std::vector<std::vector<double>> A,
                               std::vector<double> B) {
  size_t N = B.size();
  for (size_t Col = 0; Col < N; ++Col) {
    size_t Pivot = Col;
    for (size_t Row = Col + 1; Row < N; ++Row)
      if (std::fabs(A[Row][Col]) > std::fabs(A[Pivot][Col]))
        Pivot = Row;
    if (A[Pivot][Col] == 0.0)
      reportFatalError("markov oracle: singular system (a non-absorbing "
                       "statement set)");
    std::swap(A[Col], A[Pivot]);
    std::swap(B[Col], B[Pivot]);
    for (size_t Row = Col + 1; Row < N; ++Row) {
      double Factor = A[Row][Col] / A[Col][Col];
      if (Factor == 0.0)
        continue;
      for (size_t K = Col; K < N; ++K)
        A[Row][K] -= Factor * A[Col][K];
      B[Row] -= Factor * B[Col];
    }
  }
  std::vector<double> X(N, 0.0);
  for (size_t Row = N; Row-- > 0;) {
    double Sum = B[Row];
    for (size_t K = Row + 1; K < N; ++K)
      Sum -= A[Row][K] * X[K];
    X[Row] = Sum / A[Row][Row];
  }
  return X;
}

/// Moments of one procedure's chain, given its callees' moments.
ChainMoments
solveChain(const Function &F, const ChainObserver::Counts &C,
           const CostModel &CM, const StmtCostOverride &Override,
           const std::map<const Function *, ChainMoments> &Solved,
           const Program &P) {
  // Transient states: the executed statements, densely renumbered.
  std::map<StmtId, size_t> Index;
  std::vector<StmtId> States;
  for (const auto &Executed : C.Executions) {
    Index[Executed.first] = States.size();
    States.push_back(Executed.first);
  }
  size_t N = States.size();

  std::vector<double> Cost(N), CostSq(N);
  for (size_t I = 0; I < N; ++I) {
    const Stmt *St = F.stmt(States[I]);
    std::optional<double> Local;
    if (Override)
      Local = Override(F, St);
    double Mean = Local ? *Local : CM.statementCost(St);
    double SecondMoment = Mean * Mean;
    if (const auto *Call = dyn_cast<CallStmt>(St)) {
      const Function *Callee = P.findFunction(Call->callee());
      auto It = Callee ? Solved.find(Callee) : Solved.end();
      if (It != Solved.end()) {
        // An independent draw of the callee's time added to the local
        // cost: E[(c + T)^2] = c^2 + 2 c E[T] + E[T^2].
        double CalleeSq = It->second.Var + It->second.Time * It->second.Time;
        SecondMoment += 2.0 * Mean * It->second.Time + CalleeSq;
        Mean += It->second.Time;
      }
    }
    Cost[I] = Mean;
    CostSq[I] = SecondMoment;
  }

  // I - Q, with Q(s, t) = transfers(s -> t) / executions(s).
  std::vector<std::vector<double>> M(N, std::vector<double>(N, 0.0));
  for (size_t I = 0; I < N; ++I)
    M[I][I] = 1.0;
  for (const auto &[Edge, Count] : C.Transfers) {
    if (Edge.second == InvalidStmt)
      continue; // Absorption: control leaves the procedure.
    size_t From = Index.at(Edge.first);
    size_t To = Index.at(Edge.second);
    M[From][To] -= static_cast<double>(Count) /
                   static_cast<double>(C.Executions.at(Edge.first));
  }

  std::vector<double> T = solveDense(M, Cost);
  std::vector<double> Rhs(N);
  for (size_t I = 0; I < N; ++I)
    Rhs[I] = CostSq[I] + 2.0 * Cost[I] * (T[I] - Cost[I]);
  std::vector<double> S = solveDense(M, Rhs);

  double Time = 0.0, Second = 0.0;
  for (const auto &[First, Count] : C.Firsts) {
    double Init =
        static_cast<double>(Count) / static_cast<double>(C.Activations);
    Time += Init * T[Index.at(First)];
    Second += Init * S[Index.at(First)];
  }
  return {Time, Second - Time * Time};
}

} // namespace

void ChainObserver::onProcedureEntry(const Function &F, unsigned Depth) {
  ++PerFunction[&F].Activations;
  if (Fresh.size() <= Depth)
    Fresh.resize(Depth + 1);
  Fresh[Depth] = true;
}

void ChainObserver::onStatement(const Function &F, StmtId S, unsigned Depth) {
  Counts &C = PerFunction[&F];
  ++C.Executions[S];
  if (Depth < Fresh.size() && Fresh[Depth]) {
    ++C.Firsts[S];
    Fresh[Depth] = false;
  }
}

void ChainObserver::onTransfer(const Function &F, StmtId From, CfgLabel,
                               StmtId To, unsigned) {
  ++PerFunction[&F].Transfers[{From, To}];
}

std::map<const Function *, ChainMoments>
ptran::testing::markovMoments(const Program &P, const ChainObserver &Observed,
                              const CostModel &CM,
                              const StmtCostOverride &Override) {
  std::map<const Function *, ChainMoments> Solved;
  // Depth-first over the call graph so every callee is solved before its
  // callers; a function met again while still open closes a cycle.
  std::set<const Function *> Open, Done;
  std::function<void(const Function *)> Visit = [&](const Function *F) {
    if (Done.count(F))
      return;
    if (!Open.insert(F).second)
      reportFatalError("markov oracle: recursive call graph through " +
                       F->name());
    for (StmtId S = 0; S < F->numStmts(); ++S)
      if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
        if (const Function *Callee = P.findFunction(Call->callee()))
          Visit(Callee);
    Open.erase(F);
    Done.insert(F);
    // Only procedures the run executed get a chain.
    auto It = Observed.counts().find(F);
    if (It != Observed.counts().end() && It->second.Activations > 0)
      Solved[F] = solveChain(*F, It->second, CM, Override, Solved, P);
  };
  for (const auto &F : P.functions())
    Visit(F.get());
  return Solved;
}

std::vector<std::set<NodeId>>
ptran::testing::bruteForceDominators(const Digraph &G, NodeId Root) {
  std::vector<std::set<NodeId>> Dom(G.numNodes());
  std::vector<bool> Base = reachableFrom(G, Root);
  for (NodeId A = 0; A < G.numNodes(); ++A) {
    if (!Base[A])
      continue;
    std::vector<bool> Without = reachableFrom(G, Root, A);
    for (NodeId B = 0; B < G.numNodes(); ++B)
      if (Base[B] && (B == A || !Without[B]))
        Dom[B].insert(A);
  }
  return Dom;
}

std::vector<std::set<NodeId>>
ptran::testing::bruteForcePostDominators(const Digraph &G, NodeId Stop) {
  return bruteForceDominators(G.reversed(), Stop);
}

std::set<std::tuple<NodeId, NodeId, LabelId>>
ptran::testing::bruteForceControlDependence(const Digraph &G, NodeId Stop) {
  std::vector<std::set<NodeId>> Pdom = bruteForcePostDominators(G, Stop);

  auto Postdom = [&](NodeId A, NodeId B) { return Pdom[B].count(A) != 0; };

  std::set<std::tuple<NodeId, NodeId, LabelId>> Out;
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.isLive(E))
      continue;
    const Digraph::Edge &Ed = G.edge(E);
    NodeId X = Ed.From;
    NodeId Z = Ed.To;
    // Skip nodes with undefined postdominators (cannot reach Stop).
    if (Pdom[X].empty() || Pdom[Z].empty())
      continue;
    for (NodeId Y = 0; Y < G.numNodes(); ++Y) {
      if (Pdom[Y].empty())
        continue;
      if (Postdom(Y, X))
        continue; // Condition 1 fails (note: reflexive, so Y != X holds).
      // Condition 2/3: a path X -> Z -> ... -> Y whose intermediate nodes
      // (everything after X and before Y) are postdominated by Y.
      bool Found = false;
      if (Z == Y) {
        Found = true; // Single-edge path: no intermediates.
      } else if (Postdom(Y, Z)) {
        // BFS from Z over nodes postdominated by Y, looking for Y.
        std::vector<bool> Seen(G.numNodes(), false);
        std::vector<NodeId> Worklist = {Z};
        Seen[Z] = true;
        while (!Worklist.empty() && !Found) {
          NodeId N = Worklist.back();
          Worklist.pop_back();
          for (NodeId S : G.successors(N)) {
            if (S == Y) {
              Found = true;
              break;
            }
            if (!Seen[S] && !Pdom[S].empty() && Postdom(Y, S)) {
              Seen[S] = true;
              Worklist.push_back(S);
            }
          }
        }
      }
      if (Found)
        Out.insert({X, Y, Ed.Label});
    }
  }
  return Out;
}

FixpointTotals ptran::testing::fixpointRecoverTotals(
    const FunctionAnalysis &FA, const FunctionPlan &Plan,
    const std::vector<double> &Counters, DiagnosticEngine *Diags) {
  if (Counters.size() != Plan.numCounters()) {
    if (Diags)
      Diags->error("counter vector for " + FA.function().name() + " has " +
                   std::to_string(Counters.size()) + " entries, plan expects " +
                   std::to_string(Plan.numCounters()));
    return FixpointTotals();
  }
  if (Plan.mode() == ProfileMode::Naive)
    return FixpointTotals();

  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  const std::vector<ControlCondition> &Conds = CD.conditions();
  const std::vector<Resolution> &Rules = Plan.resolutions();
  NodeId Start = FA.ecfg().start();

  FixpointTotals Out;
  Out.Node.assign(A.numNodes(), -1.0);
  std::map<ControlCondition, double> Known;
  bool Clamped = false;
  auto CondKnown = [&](const ControlCondition &C) {
    return Known.count(C) != 0;
  };

  const uint64_t MaxIterations =
      2 * (static_cast<uint64_t>(Conds.size()) + A.numNodes()) + 8;
  bool Changed = true;
  uint64_t Iterations = 0;
  while (Changed) {
    if (Iterations >= MaxIterations) {
      if (Diags)
        Diags->error("frequency recovery for " + FA.function().name() +
                     " did not converge after " +
                     std::to_string(Iterations) +
                     " iterations; counters are contradictory (NaN or cyclic "
                     "derivation)");
      return FixpointTotals();
    }
    Changed = false;
    ++Iterations;

    // Node totals: START's equals its own U condition; every other node
    // sums its incoming conditions, in in-edge order.
    for (unsigned P = 0; P < A.numPositions(); ++P) {
      NodeId N = A.node(P);
      if (Out.Node[N] >= 0.0)
        continue;
      if (N == Start) {
        ControlCondition StartCond{Start, CfgLabel::U};
        if (CondKnown(StartCond)) {
          Out.Node[N] = Known[StartCond];
          Changed = true;
        }
        continue;
      }
      double Sum = 0.0;
      bool AllKnown = true;
      for (uint32_t I = A.inBegin(P); I != A.inEnd(P); ++I) {
        const ControlCondition &C = Conds[A.group(A.inGroup(I)).Cond];
        if (!CondKnown(C)) {
          AllKnown = false;
          break;
        }
        Sum += Known[C];
      }
      if (AllKnown && A.inBegin(P) != A.inEnd(P)) {
        Out.Node[N] = Sum;
        Changed = true;
      }
    }

    // Condition rules, in condition order.
    for (size_t Id = 0; Id < Rules.size(); ++Id) {
      const Resolution &R = Rules[Id];
      const ControlCondition &Cond = Conds[Id];
      if (R.K == Resolution::Kind::None || CondKnown(Cond))
        continue;
      if (R.K == Resolution::Kind::Measured) {
        Known[Cond] = Counters[R.Counter];
        Changed = true;
        continue;
      }
      if (R.K == Resolution::Kind::Zero) {
        Known[Cond] = 0.0;
        Changed = true;
        continue;
      }
      double Value = 0.0;
      bool AllKnown = true;
      for (const RecoveryTerm &T : R.Terms) {
        switch (T.K) {
        case RecoveryTerm::Kind::CondTotal:
          if (T.Cond >= Conds.size() || !CondKnown(Conds[T.Cond])) {
            AllKnown = false;
            break;
          }
          Value += T.Coeff * Known[Conds[T.Cond]];
          break;
        case RecoveryTerm::Kind::NodeTotal:
          if (Out.Node[T.Node] < 0.0) {
            AllKnown = false;
            break;
          }
          Value += T.Coeff * Out.Node[T.Node];
          break;
        case RecoveryTerm::Kind::CounterVal:
          Value += T.Coeff * Counters[T.Counter];
          break;
        }
        if (!AllKnown)
          break;
      }
      if (AllKnown) {
        Clamped |= Value < 0.0;
        Known[Cond] = Value < 0.0 ? 0.0 : Value;
        Changed = true;
      }
    }
  }

  Out.Cond = Known;
  Out.Ok = true;
  for (const ControlCondition &C : Conds)
    if (!CondKnown(C)) {
      Out.Ok = false;
      Out.Unresolved.push_back(C);
    }
  for (unsigned P = 0; P < A.numPositions(); ++P)
    if (Out.Node[A.node(P)] < 0.0)
      Out.Ok = false;
  constexpr double ExactTotalLimit = 4503599627370496.0; // 2^52
  Out.Exact = Out.Ok && !Clamped;
  for (double C : Counters)
    Out.Exact &= std::floor(C) == C;
  for (const auto &[Cond, T] : Out.Cond)
    Out.Exact &= T <= ExactTotalLimit;
  for (double N : Out.Node)
    Out.Exact &= N <= ExactTotalLimit;
  return Out;
}

std::string ptran::testing::compareWithFixpoint(
    const FunctionAnalysis &FA, const FunctionPlan &Plan,
    const std::vector<double> &Counters) {
  DiagnosticEngine GotDiags, WantDiags;
  FrequencyTotals Got = recoverTotals(FA, Plan, Counters, &GotDiags);
  FixpointTotals Want = fixpointRecoverTotals(FA, Plan, Counters, &WantDiags);
  auto Same = [](double A, double B) {
    return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
  };
  auto Num = [](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return std::string(Buf);
  };
  const std::string Where = FA.function().name() + ": ";
  if (Got.Ok != Want.Ok)
    return Where + "Ok " + std::to_string(Got.Ok) + " vs fixpoint " +
           std::to_string(Want.Ok);
  if (GotDiags.str() != WantDiags.str())
    return Where + "diagnostics '" + GotDiags.str() + "' vs fixpoint '" +
           WantDiags.str() + "'";
  if (!Got.Ok)
    return Got.Cond.empty() && Got.Node.empty()
               ? ""
               : Where + "a failed recovery kept totals";
  if (Got.Exact != Want.Exact)
    return Where + "Exact differs";
  const std::vector<ControlCondition> &Conds = FA.cd().conditions();
  if (Got.Cond.size() != Conds.size() || Want.Cond.size() != Conds.size())
    return Where + "condition count differs";
  for (size_t C = 0; C < Conds.size(); ++C)
    if (!Same(Got.Cond[C], Want.Cond.at(Conds[C])))
      return Where + "condition " + std::to_string(C) + " total " +
             Num(Got.Cond[C]) + " vs fixpoint " +
             Num(Want.Cond.at(Conds[C]));
  if (Got.Node.size() != Want.Node.size())
    return Where + "node count differs";
  for (size_t N = 0; N < Got.Node.size(); ++N)
    if (!Same(Got.Node[N], Want.Node[N]))
      return Where + "node " + std::to_string(N) + " total " +
             Num(Got.Node[N]) + " vs fixpoint " + Num(Want.Node[N]);
  return "";
}

namespace {

/// VAR(FREQ(u, l)) of preheader \p Ph per Section 5, Case 1.
double referenceLoopFreqVariance(const FunctionAnalysis &FA,
                                 const TimeAnalysisOptions &Opts, NodeId Ph,
                                 double Mean) {
  switch (Opts.LoopVariance) {
  case LoopVarianceMode::Zero:
    return 0.0;
  case LoopVarianceMode::Profiled: {
    if (!Opts.Stats)
      return 0.0;
    const LoopFrequencyStats::Moments *M = Opts.Stats->momentsFor(
        FA.function(), FA.ecfg().cfg().origin(FA.ecfg().headerOf(Ph)));
    return M ? M->variance() : 0.0;
  }
  case LoopVarianceMode::Geometric: {
    double V = Mean * Mean - Mean;
    return V > 0.0 ? V : 0.0;
  }
  case LoopVarianceMode::Uniform: {
    double Width = 2.0 * Mean - 1.0;
    double V = (Width * Width - 1.0) / 12.0;
    return V > 0.0 ? V : 0.0;
  }
  }
  reportFatalError("unknown LoopVarianceMode");
}

/// One function's estimates, bottom-up over the FCDG in reverse
/// topological order, with node-indexed TIME/VAR and callee summaries
/// looked up through \p CalleeOf (ECFG node -> callee, by name).
std::vector<NodeEstimates> referenceFunctionTimes(
    const FunctionAnalysis &FA, const Frequencies &Freqs,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const std::map<const Function *, FunctionSummary> &Summaries,
    const std::vector<const Function *> &CalleeOf,
    std::set<std::string> &Unresolved) {
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = E.cfg();
  const Function &F = FA.function();
  std::vector<NodeEstimates> Est(C.numNodes());
  const std::vector<NodeId> &Topo = CD.topoOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    NodeId U = *It;
    NodeEstimates &EU = Est[U];
    double VarCost = 0.0;
    if (StmtId S = C.origin(U); S != InvalidStmt) {
      const Stmt *St = F.stmt(S);
      std::optional<double> Overridden;
      if (Opts.LocalCostOverride)
        Overridden = Opts.LocalCostOverride(F, St);
      EU.Cost = Overridden ? *Overridden : CM.statementCost(St);
      EU.SelfCost = EU.Cost;
      if (const auto *Call = dyn_cast<CallStmt>(St)) {
        auto SIt = CalleeOf[U] ? Summaries.find(CalleeOf[U]) : Summaries.end();
        if (SIt != Summaries.end()) {
          EU.Cost += SIt->second.Time;
          VarCost = SIt->second.Var;
        } else {
          Unresolved.insert("call to unresolved procedure '" +
                            Call->callee() +
                            "' contributes zero callee time");
        }
      }
    }
    std::vector<CfgLabel> Labels = CD.labelsOf(U);
    if (E.headerOf(U) != InvalidNode) {
      // Case 1: only the U label carries the loop frequency.
      double Freq = 0.0, SumTime = 0.0, SumVar = 0.0;
      for (CfgLabel L : Labels) {
        if (L != CfgLabel::U)
          continue;
        Freq = Freqs.freqOf({U, L});
        for (NodeId V : CD.childrenOf(U, L)) {
          SumTime += Est[V].Time;
          SumVar += Est[V].Var;
        }
      }
      double FreqVar = referenceLoopFreqVariance(FA, Opts, U, Freq);
      EU.Time = EU.Cost + Freq * SumTime;
      EU.Var = VarCost + Freq * Freq * SumVar +
               FreqVar * SumTime * SumTime + FreqVar * SumVar;
    } else {
      // Case 2: TIME_C and E[TIME_C^2] over the label outcomes.
      bool Deterministic =
          Opts.DeterministicDoHeaders && U < E.numOriginalNodes() &&
          FA.intervals().isHeader(U) &&
          FA.intervals().isExitFreeDoLoop(FA.cfg(), U);
      double TimeC = 0.0, TimeCSq = 0.0, ChildVar = 0.0;
      for (CfgLabel L : Labels) {
        double Freq = Freqs.freqOf({U, L});
        double SumTime = 0.0, SumVar = 0.0;
        for (NodeId V : CD.childrenOf(U, L)) {
          SumTime += Est[V].Time;
          SumVar += Est[V].Var;
        }
        TimeC += Freq * SumTime;
        TimeCSq += Freq * (SumVar + SumTime * SumTime);
        ChildVar += Freq * SumVar;
      }
      EU.Time = EU.Cost + TimeC;
      EU.Var = Deterministic ? VarCost + ChildVar
                             : VarCost + (TimeCSq - TimeC * TimeC);
      if (EU.Var < 0.0)
        EU.Var = 0.0;
    }
    EU.TimeSq = EU.Var + EU.Time * EU.Time;
    EU.StdDev = std::sqrt(EU.Var);
  }
  return Est;
}

} // namespace

ReferenceTimes ptran::testing::referenceTimeAnalysis(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const std::vector<const Function *> *Changed) {
  const Program &Prog = PA.program();
  std::vector<const Function *> Funcs;
  std::map<const Function *, NodeId> Index;
  for (const auto &F : Prog.functions()) {
    if (!PA.tryOf(*F))
      continue;
    Index[F.get()] = static_cast<NodeId>(Funcs.size());
    Funcs.push_back(F.get());
  }
  Digraph CallGraph(static_cast<unsigned>(Funcs.size()));
  for (const Function *F : Funcs)
    for (StmtId S = 0; S < F->numStmts(); ++S)
      if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
        if (const Function *Callee = Prog.findFunction(Call->callee()))
          if (Index.count(Callee))
            CallGraph.addEdge(Index[F], Index[Callee], 0);
  CsrGraph CallCsr(CallGraph);
  const GraphView CallView = CallCsr.view();
  SccResult Sccs = computeSccs(CallView);

  std::map<const Function *, FunctionSummary> Summaries;
  std::map<const Function *, std::vector<const Function *>> CalleeTables;
  for (const Function *F : Funcs) {
    Summaries[F];
    const Cfg &C = PA.of(*F).ecfg().cfg();
    std::vector<const Function *> &Table = CalleeTables[F];
    Table.assign(C.numNodes(), nullptr);
    for (NodeId N = 0; N < C.numNodes(); ++N)
      if (StmtId S = C.origin(N); S != InvalidStmt)
        if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
          Table[N] = Prog.findFunction(Call->callee());
  }

  // Dirty components, callees first: a changed member, or a call into a
  // dirty component.
  std::vector<bool> DirtyComp(Sccs.numComponents(), !Changed);
  if (Changed)
    for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp)
      for (NodeId M : Sccs.Members[Comp]) {
        if (std::count(Changed->begin(), Changed->end(), Funcs[M]))
          DirtyComp[Comp] = true;
        for (const CsrEdgeRef &Ed : CallView.succs(M))
          if (Sccs.Component[Ed.Node] != Comp &&
              DirtyComp[Sccs.Component[Ed.Node]])
            DirtyComp[Comp] = true;
      }

  ReferenceTimes Out;
  std::set<std::string> Unresolved, Ignored;
  auto Evaluate = [&](const Function *F, bool Dirty) {
    auto FIt = FreqsByFunction.find(F);
    if (FIt == FreqsByFunction.end())
      reportFatalError("reference: no frequencies for " + F->name());
    const FunctionAnalysis &FA = PA.of(*F);
    std::vector<NodeEstimates> Est =
        referenceFunctionTimes(FA, FIt->second, CM, Opts, Summaries,
                               CalleeTables[F], Dirty ? Unresolved : Ignored);
    NodeId Start = FA.ecfg().start();
    Summaries[F] = {Est[Start].Time, Est[Start].Var};
    Out.PerFunction[F] = std::move(Est);
  };
  for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
    const std::vector<NodeId> &Members = Sccs.Members[Comp];
    bool Cyclic = Sccs.isInCycle(CallView, Members.front());
    Out.Recursive = Out.Recursive || Cyclic;
    for (unsigned Iter = 0; Iter < (Cyclic ? 16u : 1u); ++Iter)
      for (NodeId M : Members)
        Evaluate(Funcs[M], DirtyComp[Comp]);
  }
  Out.Warnings.assign(Unresolved.begin(), Unresolved.end());
  return Out;
}
