//===--- cost/TimeAnalysis.cpp - Average times and variance ---------------===//

#include "cost/TimeAnalysis.h"

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

/// Computes the estimates of call-structure node \p Node bottom-up over
/// its FCDG: one reverse linear sweep over the FlowArena with dense
/// per-position TIME/VAR buffers, dense FREQ lookups and callees resolved
/// through the program's compiled call sites. The propagation loop
/// performs no heap allocation; the delta observed by HotpathAllocScope
/// is accumulated into \p HotpathAllocs (surfaced as the
/// cost.hotpath.allocs counter).
std::vector<NodeEstimates> computeFunction(
    const FunctionAnalysis &FA, const Frequencies &Freqs,
    const CostModel &CM, const TimeAnalysisOptions &Opts,
    const CallStructure &Calls, uint32_t Node,
    const std::vector<FunctionSummary> &Summaries,
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

  // Dense FREQ per arena group, as every producer lays it out.
  if (Freqs.GroupFreq.size() != A.numGroups())
    reportFatalError("frequencies of function " + F.name() +
                     " do not match its FCDG");
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
        // Rule 2 through the compiled call sites.
        uint32_t Callee = Calls.calleeAt(Node, U);
        if (Callee != CallStructure::NoNode) {
          EU.Cost += Summaries[Callee].Time;
          VarCost = Summaries[Callee].Var;
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
  ObsRegistry *Obs = Opts.Obs;
  TimingSpan RunSpan(Obs, "timeanalysis.run",
                     Previous ? "incremental" : "full");
  // The call graph over the analyzed functions, its components and every
  // call site's callee are the program's, compiled once by
  // ProgramAnalysis; a run only reads them. Calls into functions whose
  // analysis failed surface through the unresolved-callee diagnostics.
  const CallStructure &Calls = PA.calls();
  const unsigned NumNodes = Calls.numNodes();
  const unsigned NumComps = Calls.numComponents();
  TimeAnalysis Out;
  Out.PA = &PA;
  Out.Recursive = Calls.hasRecursion();
  Out.PerFunction.resize(NumNodes);

  // Every summary starts at zero: a recursive cycle's members read each
  // other's zero-valued initial summaries on the first fixpoint iteration
  // (the paper defers recursion; see DESIGN.md).
  std::vector<FunctionSummary> Summaries(NumNodes);

  // Incremental mode: a component is dirty if it contains a changed
  // function or calls into a dirty component. Components are numbered
  // callees-first, so one ascending sweep propagates dirtiness from
  // callees to callers (changed summaries invalidate every transitive
  // caller, nothing else).
  std::vector<char> DirtyComp(NumComps, Previous == nullptr);
  if (Previous) {
    std::vector<char> ChangedNode(NumNodes, 0);
    for (const Function *F : *Changed)
      if (uint32_t N = Calls.nodeOf(*F); N != CallStructure::NoNode)
        ChangedNode[N] = 1;
    for (unsigned Comp = 0; Comp < NumComps; ++Comp) {
      bool Dirty = false;
      for (uint32_t M : Calls.members(Comp)) {
        if (ChangedNode[M] || Previous->PerFunction[M].empty())
          Dirty = true;
        for (uint32_t Callee : Calls.callees(M)) {
          unsigned CalleeComp = Calls.componentOf(Callee);
          if (CalleeComp != Comp && DirtyComp[CalleeComp])
            Dirty = true;
        }
      }
      DirtyComp[Comp] = Dirty;
    }
    // Clean components reuse the previous estimates verbatim; their START
    // summaries feed dirty callers at the frontier.
    for (unsigned Comp = 0; Comp < NumComps; ++Comp) {
      if (DirtyComp[Comp])
        continue;
      for (uint32_t M : Calls.members(Comp)) {
        const std::vector<NodeEstimates> &Cached = Previous->PerFunction[M];
        NodeId Start = PA.of(Calls.function(M)).ecfg().start();
        Summaries[M] = {Cached[Start].Time, Cached[Start].Var};
        Out.PerFunction[M] = Cached;
      }
    }
  }

  std::set<std::string> Unresolved;
  uint64_t Evals = 0;
  uint64_t HotAllocs = 0;
  // Iterations of the recursive components that completed, counted once
  // after the sweep.
  uint64_t FixpointIterations = 0;
  CancelToken *Cancel = Opts.Cancel;

  auto Recompute = [&](uint32_t M) {
    const Function &F = Calls.function(M);
    auto It = FreqsByFunction.find(&F);
    if (It == FreqsByFunction.end())
      reportFatalError("no frequencies for function " + F.name());
    const FunctionAnalysis &FA = PA.of(F);
    std::vector<NodeEstimates> Est =
        computeFunction(FA, It->second, CM, Opts, Calls, M, Summaries,
                        Opts.Diags ? &Unresolved : nullptr, HotAllocs);
    NodeId Start = FA.ecfg().start();
    Summaries[M] = {Est[Start].Time, Est[Start].Var};
    Out.PerFunction[M] = std::move(Est);
    ++Evals;
  };

  // Evaluates one dirty component; false when the token expired first.
  // An acyclic component is a single function evaluation; a recursive
  // cycle iterates its members to the fixed iteration count.
  auto EvalComponent = [&](unsigned Comp) {
    std::span<const uint32_t> Members = Calls.members(Comp);
    if (Cancel && Cancel->checkpoint())
      return false;
    TimingSpan SccSpan(Obs, "timeanalysis.scc",
                       Calls.function(Members.front()).name());
    if (!Calls.cyclic(Comp)) {
      Recompute(Members.front());
      return true;
    }
    for (unsigned Iter = 0; Iter < RecursionIterations; ++Iter) {
      if (Iter > 0 && Cancel && Cancel->checkpoint())
        return false; // Partial fixpoint: abandon, members stay unfinished.
      for (uint32_t M : Members)
        Recompute(M);
    }
    FixpointIterations += RecursionIterations;
    return true;
  };

  // One ascending pass evaluates every component after all its callees'
  // summaries are final. Expiry is monotone: once a checkpoint trips,
  // that component and every later dirty one stay unfinished, and every
  // function that did finish saw only final callee summaries — its
  // estimates are bit-identical to an unbounded run.
  std::vector<char> UnfinishedNode;
  bool Stopped = false;
  for (unsigned Comp = 0; Comp < NumComps; ++Comp) {
    if (!DirtyComp[Comp])
      continue;
    Stopped = Stopped || !EvalComponent(Comp);
    if (Stopped) {
      UnfinishedNode.resize(NumNodes, 0);
      for (uint32_t M : Calls.members(Comp))
        UnfinishedNode[M] = 1;
    }
  }

  // Cut-short bookkeeping: unfinished functions lose their (zero-valued
  // or partial) slots entirely, so of() refuses to serve them and an
  // incremental rerun() sees them as dirty.
  if (!UnfinishedNode.empty()) {
    Out.CutReason = Cancel ? Cancel->reason() : CancelReason::Cancelled;
    for (uint32_t M = 0; M < NumNodes; ++M)
      if (UnfinishedNode[M]) {
        Out.Unfinished.push_back(&Calls.function(M));
        Out.PerFunction[M] = {};
      }
    if (Opts.Diags && Cancel)
      Opts.Diags->error(cancelMessage(*Cancel, "time analysis") + "; " +
                        std::to_string(Out.Unfinished.size()) + " of " +
                        std::to_string(NumNodes) + " functions unfinished");
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
    if (FixpointIterations)
      Obs->addCounter("timeanalysis.fixpoint_iterations", FixpointIterations);
    Obs->addCounter("timeanalysis.evaluations", Out.Evaluations);
    Obs->addCounter("cost.hotpath.allocs", HotAllocs);
  }
  return Out;
}

const std::vector<NodeEstimates> *
TimeAnalysis::find(const Function &F) const {
  uint32_t N = PA->calls().nodeOf(F);
  if (N == CallStructure::NoNode || PerFunction[N].empty())
    return nullptr;
  return &PerFunction[N];
}

const std::vector<NodeEstimates> &
TimeAnalysis::estimatesOf(const Function &F) const {
  const std::vector<NodeEstimates> *Est = find(F);
  if (!Est)
    reportFatalError("no time analysis for function " + F.name());
  return *Est;
}

const NodeEstimates &TimeAnalysis::of(const Function &F, NodeId N) const {
  return estimatesOf(F).at(N);
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
