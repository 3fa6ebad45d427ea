//===--- cost/TimeAnalysis.cpp - Average times and variance ---------------===//

#include "cost/TimeAnalysis.h"

#include "graph/Scc.h"
#include "obs/HotpathAlloc.h"
#include "support/Casting.h"
#include "support/FatalError.h"

#include <cassert>
#include <cmath>
#include <set>

using namespace ptran;

namespace {

/// Fixed-point iterations for a recursive call-graph cycle (the paper
/// defers recursion; see DESIGN.md).
constexpr unsigned RecursionIterations = 16;

/// Loop-frequency variance per Section 5, Case 1.
double loopFreqVariance(const FunctionAnalysis &FA,
                        const TimeAnalysisOptions &Opts, NodeId Ph,
                        double Mean) {
  switch (Opts.LoopVariance) {
  case LoopVarianceMode::Zero:
    return 0.0;
  case LoopVarianceMode::Profiled: {
    if (!Opts.Stats)
      return 0.0;
    NodeId Header = FA.ecfg().headerOf(Ph);
    assert(Header != InvalidNode && "loop variance on a non-preheader");
    const LoopFrequencyStats::Moments *M = Opts.Stats->momentsFor(
        FA.function(), FA.ecfg().cfg().origin(Header));
    return M ? M->variance() : 0.0;
  }
  case LoopVarianceMode::Geometric: {
    // Header executions >= 1 with mean m modelled as 1 + Geometric:
    // VAR = m^2 - m.
    double V = Mean * Mean - Mean;
    return V > 0.0 ? V : 0.0;
  }
  case LoopVarianceMode::Uniform: {
    // Header executions ~ U{1, .., 2m-1}: VAR = ((2m-1)^2 - 1) / 12.
    double Width = 2.0 * Mean - 1.0;
    double V = (Width * Width - 1.0) / 12.0;
    return V > 0.0 ? V : 0.0;
  }
  }
  PTRAN_UNREACHABLE("unknown LoopVarianceMode");
}

/// Computes one function's estimates bottom-up over its FCDG: one reverse
/// linear sweep over the FlowArena with dense per-position TIME/VAR
/// buffers, dense FREQ lookups and a precomputed callee-resolution table.
/// The propagation loop performs no heap allocation; the delta observed
/// by HotpathAllocScope is accumulated into \p HotpathAllocs (surfaced as
/// the cost.hotpath.allocs counter).
std::vector<NodeEstimates> computeFunction(
    const FunctionAnalysis &FA, const Frequencies &Freqs,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const std::map<const Function *, FunctionSummary> &Callees,
    const std::vector<const Function *> &CalleeOf,
    std::set<std::string> *Unresolved, uint64_t &HotpathAllocs) {
  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = E.cfg();
  const Function &F = FA.function();
  unsigned NumPos = A.numPositions();

  std::vector<NodeEstimates> Est(C.numNodes());
  // Dense TIME/VAR indexed by topological position: the bottom-up sweep
  // reads children from contiguous memory instead of chasing node ids.
  std::vector<double> TimeBuf(NumPos, 0.0);
  std::vector<double> VarBuf(NumPos, 0.0);

  // Dense FREQ per arena group: every producer must fill GroupFreq
  // (computeFrequencies does; others call populateGroupFreq).
  if (Freqs.GroupFreq.size() != A.numGroups())
    reportFatalError("frequencies of function " + F.name() +
                     " lack the dense GroupFreq form");
  const double *GF = Freqs.GroupFreq.data();

  // Bottom-up: positions are topological, so a reverse walk sees every
  // child before its parent. Allocation-free from here on.
  HotpathAllocScope AllocScope;
  for (unsigned P = NumPos; P-- > 0;) {
    NodeId U = A.node(P);
    NodeEstimates &EU = Est[U];
    double VarCost = 0.0;

    StmtId S = C.origin(U);
    if (S != InvalidStmt) {
      const Stmt *St = F.stmt(S);
      std::optional<double> Overridden;
      if (Opts.LocalCostOverride)
        Overridden = Opts.LocalCostOverride(F, St);
      EU.Cost = Overridden ? *Overridden : CM.statementCost(St);
      EU.SelfCost = EU.Cost;
      if (const auto *Call = dyn_cast<CallStmt>(St)) {
        // Rule 2 through the precomputed resolution table.
        const Function *Callee = CalleeOf[U];
        auto It = Callee ? Callees.find(Callee) : Callees.end();
        if (It != Callees.end()) {
          EU.Cost += It->second.Time;
          VarCost = It->second.Var;
        } else if (Unresolved) {
          Unresolved->insert("call to unresolved procedure '" +
                             Call->callee() +
                             "' contributes zero callee time");
        }
      }
    }

    bool IsPreheader = E.headerOf(U) != InvalidNode;
    if (IsPreheader) {
      // Case 1. Only the U label matters; pseudo labels have zero
      // frequency, so their groups are simply skipped.
      double Freq = 0.0;
      double SumTime = 0.0;
      double SumVar = 0.0;
      for (uint32_t Gi = A.groupsBegin(P); Gi != A.groupsEnd(P); ++Gi) {
        const FlowArena::Group &G = A.group(Gi);
        if (G.Label != CfgLabel::U)
          continue;
        Freq = GF[Gi];
        for (uint32_t Ci = G.ChildBegin; Ci != G.ChildEnd; ++Ci) {
          unsigned CP = A.child(Ci);
          SumTime += TimeBuf[CP];
          SumVar += VarBuf[CP];
        }
      }
      double FreqVar = loopFreqVariance(FA, Opts, U, Freq);
      EU.Time = EU.Cost + Freq * SumTime;
      EU.Var = VarCost + Freq * Freq * SumVar +
               FreqVar * SumTime * SumTime + FreqVar * SumVar;
    } else {
      // Case 2: TIME_C and E[TIME_C^2] over the label outcomes, one
      // arena group per outcome.
      bool Deterministic =
          Opts.DeterministicDoHeaders && U < E.numOriginalNodes() &&
          FA.intervals().isHeader(U) &&
          FA.intervals().isExitFreeDoLoop(FA.cfg(), U);
      double TimeC = 0.0;
      double TimeCSq = 0.0;
      double ChildVar = 0.0;
      for (uint32_t Gi = A.groupsBegin(P); Gi != A.groupsEnd(P); ++Gi) {
        const FlowArena::Group &G = A.group(Gi);
        double Freq = GF[Gi];
        double SumTime = 0.0;
        double SumVar = 0.0;
        for (uint32_t Ci = G.ChildBegin; Ci != G.ChildEnd; ++Ci) {
          unsigned CP = A.child(Ci);
          SumTime += TimeBuf[CP];
          SumVar += VarBuf[CP];
        }
        TimeC += Freq * SumTime;
        TimeCSq += Freq * (SumVar + SumTime * SumTime);
        ChildVar += Freq * SumVar;
      }
      EU.Time = EU.Cost + TimeC;
      if (Deterministic) {
        // The header's outcome is not a random draw; only the children's
        // variance flows through.
        EU.Var = VarCost + ChildVar;
      } else {
        EU.Var = VarCost + (TimeCSq - TimeC * TimeC);
      }
      if (EU.Var < 0.0)
        EU.Var = 0.0; // Floating-point cancellation guard.
    }
    EU.TimeSq = EU.Var + EU.Time * EU.Time;
    EU.StdDev = std::sqrt(EU.Var);
    TimeBuf[P] = EU.Time;
    VarBuf[P] = EU.Var;
  }
  HotpathAllocs += AllocScope.count();
  return Est;
}

} // namespace

TimeAnalysis TimeAnalysis::run(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const CostModel &CM, const TimeAnalysisOptions &Opts) {
  return runImpl(PA, FreqsByFunction, CM, Opts, nullptr, nullptr);
}

TimeAnalysis TimeAnalysis::rerun(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const TimeAnalysis &Previous,
    const std::vector<const Function *> &Changed) {
  return runImpl(PA, FreqsByFunction, CM, Opts, &Previous, &Changed);
}

TimeAnalysis TimeAnalysis::runImpl(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const TimeAnalysis *Previous, const std::vector<const Function *> *Changed) {
  const Program &Prog = PA.program();
  ObsRegistry *Obs = Opts.Obs;
  TimingSpan RunSpan(Obs, "timeanalysis.run",
                     Previous ? "incremental" : "full");
  TimeAnalysis Out;
  Out.PA = &PA;

  // Call graph over the program's analyzed functions. Functions whose
  // analysis failed are skipped; calls into them surface through the
  // unresolved-callee diagnostics below.
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

  // The call graph is consumed in CSR form: SCC condensation, the
  // dirtiness sweep and the recursion test all read the same flat view.
  CsrGraph CallCsr(CallGraph);
  const GraphView CallView = CallCsr.view();
  SccResult Sccs = computeSccs(CallView);
  std::map<const Function *, FunctionSummary> Summaries;

  // Pre-insert every summary: a recursive cycle's members read each
  // other's zero-valued initial summaries on the first fixpoint iteration
  // (the paper defers recursion; see DESIGN.md).
  for (const Function *F : Funcs)
    Summaries[F];

  // The sweep resolves callees through a per-function table built once
  // per run, so the allocation-free propagation loop makes no name
  // lookups.
  std::map<const Function *, std::vector<const Function *>> CalleeTables;
  for (const Function *F : Funcs) {
    const Cfg &C = PA.of(*F).ecfg().cfg();
    std::vector<const Function *> &Table = CalleeTables[F];
    Table.assign(C.numNodes(), nullptr);
    for (NodeId N = 0; N < C.numNodes(); ++N) {
      StmtId S = C.origin(N);
      if (S == InvalidStmt)
        continue;
      if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
        Table[N] = Prog.findFunction(Call->callee());
    }
  }

  // Incremental mode: a component is dirty if it contains a changed
  // function or calls into a dirty component. Tarjan numbers components
  // callees-first, so one ascending sweep propagates dirtiness from
  // callees to callers (changed summaries invalidate every transitive
  // caller, nothing else).
  std::vector<bool> DirtyComp(Sccs.numComponents(), Previous == nullptr);
  if (Previous) {
    std::set<const Function *> ChangedSet(Changed->begin(), Changed->end());
    for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
      bool Dirty = false;
      for (NodeId M : Sccs.Members[Comp]) {
        if (ChangedSet.count(Funcs[M]) ||
            !Previous->PerFunction.count(Funcs[M]))
          Dirty = true;
        for (const CsrEdgeRef &Ed : CallView.succs(M)) {
          unsigned Callee = Sccs.Component[Ed.Node];
          if (Callee != Comp && DirtyComp[Callee])
            Dirty = true;
        }
      }
      DirtyComp[Comp] = Dirty;
    }
    // Clean components reuse the previous estimates verbatim; their START
    // summaries feed dirty callers at the frontier.
    for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
      if (DirtyComp[Comp])
        continue;
      for (NodeId M : Sccs.Members[Comp]) {
        const Function *F = Funcs[M];
        const std::vector<NodeEstimates> &Cached =
            Previous->PerFunction.find(F)->second;
        NodeId Start = PA.of(*F).ecfg().start();
        Summaries.find(F)->second = {Cached[Start].Time, Cached[Start].Var};
        Out.PerFunction[F] = Cached;
      }
    }
  }

  std::set<std::string> Unresolved;
  uint64_t Evals = 0;
  uint64_t HotAllocs = 0;
  CancelToken *Cancel = Opts.Cancel;

  auto FreqsOf = [&](const Function *F) -> const Frequencies & {
    auto It = FreqsByFunction.find(F);
    if (It == FreqsByFunction.end())
      reportFatalError("no frequencies for function " + F->name());
    return It->second;
  };

  auto Recompute = [&](const Function *F) {
    const FunctionAnalysis &FA = PA.of(*F);
    std::vector<NodeEstimates> Est =
        computeFunction(FA, FreqsOf(F), CM, Opts, Summaries,
                        CalleeTables.find(F)->second,
                        Opts.Diags ? &Unresolved : nullptr, HotAllocs);
    NodeId Start = FA.ecfg().start();
    Summaries.find(F)->second = {Est[Start].Time, Est[Start].Var};
    Out.PerFunction[F] = std::move(Est);
    ++Evals;
  };

  // Evaluates one dirty component; false when the token expired first.
  // An acyclic component is a single function evaluation; a recursive
  // cycle iterates its members to the fixed iteration count.
  auto EvalComponent = [&](unsigned Comp, bool Cyclic) {
    const std::vector<NodeId> &Members = Sccs.Members[Comp];
    if (Cancel && Cancel->checkpoint())
      return false;
    TimingSpan SccSpan(Obs, "timeanalysis.scc",
                       Funcs[Members.front()]->name());
    if (!Cyclic) {
      Recompute(Funcs[Members.front()]);
      return true;
    }
    for (unsigned Iter = 0; Iter < RecursionIterations; ++Iter) {
      if (Iter > 0 && Cancel && Cancel->checkpoint())
        return false; // Partial fixpoint: abandon, members stay unfinished.
      for (NodeId M : Members)
        Recompute(Funcs[M]);
    }
    if (Obs)
      Obs->addCounter("timeanalysis.fixpoint_iterations",
                      RecursionIterations);
    return true;
  };

  // Tarjan numbers components callees-first, so one ascending pass
  // evaluates every component after all its callees' summaries are final.
  // Expiry is monotone: once a checkpoint trips, that component and every
  // later dirty one stay unfinished, and every function that did finish
  // saw only final callee summaries — its estimates are bit-identical to
  // an unbounded run.
  std::set<const Function *> UnfinishedSet;
  bool Stopped = false;
  for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
    bool Cyclic = Sccs.isInCycle(CallView, Sccs.Members[Comp].front());
    Out.Recursive = Out.Recursive || Cyclic;
    if (!DirtyComp[Comp])
      continue;
    Stopped = Stopped || !EvalComponent(Comp, Cyclic);
    if (Stopped)
      for (NodeId M : Sccs.Members[Comp])
        UnfinishedSet.insert(Funcs[M]);
  }

  // Cut-short bookkeeping: unfinished functions lose their (zero-valued
  // or partial) slots entirely, so of() refuses to serve them and an
  // incremental rerun() sees them as dirty.
  if (!UnfinishedSet.empty()) {
    Out.CutReason = Cancel ? Cancel->reason() : CancelReason::Cancelled;
    for (const Function *F : Funcs)
      if (UnfinishedSet.count(F)) {
        Out.Unfinished.push_back(F);
        Out.PerFunction.erase(F);
      }
    if (Opts.Diags && Cancel)
      Opts.Diags->error(cancelMessage(*Cancel, "time analysis") + "; " +
                        std::to_string(Out.Unfinished.size()) + " of " +
                        std::to_string(Funcs.size()) +
                        " functions unfinished");
    if (Obs) {
      Obs->addCounter(Out.CutReason == CancelReason::Cancelled
                          ? "resilience.cancellations"
                          : "resilience.deadline_hits");
      Obs->addCounter("timeanalysis.unfinished_functions",
                      Out.Unfinished.size());
    }
  }

  // Sorted, once per message: the warnings do not depend on which caller
  // reached an unresolved callee first.
  if (Opts.Diags)
    for (const std::string &Message : Unresolved)
      Opts.Diags->warning(Message);

  Out.Evaluations = Evals;
  if (Obs) {
    Obs->addCounter("timeanalysis.evaluations", Out.Evaluations);
    Obs->addCounter("cost.hotpath.allocs", HotAllocs);
  }
  return Out;
}

const std::vector<NodeEstimates> &
TimeAnalysis::estimatesOf(const Function &F) const {
  auto It = PerFunction.find(&F);
  if (It == PerFunction.end())
    reportFatalError("no time analysis for function " + F.name());
  return It->second;
}

const NodeEstimates &TimeAnalysis::of(const Function &F, NodeId N) const {
  auto It = PerFunction.find(&F);
  if (It == PerFunction.end())
    reportFatalError("no time analysis for function " + F.name());
  return It->second.at(N);
}

double TimeAnalysis::functionTime(const Function &F) const {
  return of(F, PA->of(F).ecfg().start()).Time;
}

double TimeAnalysis::functionVariance(const Function &F) const {
  return of(F, PA->of(F).ecfg().start()).Var;
}

double TimeAnalysis::programTime() const {
  const Function *Entry = PA->program().entry();
  assert(Entry && "program has no entry");
  return functionTime(*Entry);
}

double TimeAnalysis::programStdDev() const {
  const Function *Entry = PA->program().entry();
  assert(Entry && "program has no entry");
  return std::sqrt(functionVariance(*Entry));
}
