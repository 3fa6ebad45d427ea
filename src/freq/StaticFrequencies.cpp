//===--- freq/StaticFrequencies.cpp - Compile-time frequencies ------------===//

#include "freq/StaticFrequencies.h"

#include "ir/ConstFold.h"
#include "support/Casting.h"

#include <cassert>

using namespace ptran;

double StaticFrequencies::exactFraction() const {
  unsigned Considered = 0, Decided = 0;
  for (const auto &[Cond, IsExact] : Exact) {
    if (Cond.Label == CfgLabel::Z)
      continue;
    ++Considered;
    Decided += IsExact;
  }
  return Considered == 0 ? 1.0
                         : static_cast<double>(Decided) / Considered;
}

StaticFrequencies
ptran::computeStaticFrequencies(const FunctionAnalysis &FA,
                                const StaticFrequencyOptions &Opts) {
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = FA.cfg();
  const Function &F = FA.function();

  const FlowArena &A = CD.arena();
  StaticFrequencies Out;
  Out.Freqs.Arena = &A;
  Out.Freqs.GroupFreq.assign(A.numGroups(), 0.0);
  Out.Freqs.NodeFreq.assign(A.numNodes(), 0.0);
  Out.Freqs.Invocations = 1.0;

  // Single-constant-assignment environment: lets the analysis see through
  // the common `n = 64; DO i = 1, n` idiom.
  const std::map<VarId, FoldedValue> Env = singleConstantAssignments(F);

  // Per-node loop frequency chosen for each header (needed again when
  // assigning the DO header's own branch probabilities).
  std::map<NodeId, double> LoopFreqOf; // keyed by preheader node.
  std::map<NodeId, bool> LoopExactOf;

  auto AssignLoop = [&](NodeId Ph) {
    NodeId H = E.headerOf(Ph);
    assert(H != InvalidNode);
    double Freq = Opts.DefaultLoopFrequency;
    bool Exact = false;
    StmtId S = C.origin(H);
    if (S != InvalidStmt) {
      if (const auto *Do = dyn_cast<DoStmt>(F.stmt(S))) {
        if (FA.intervals().isExitFreeDoLoop(C, H)) {
          std::optional<FoldedValue> Lo = foldConstant(Do->lo(), &Env);
          std::optional<FoldedValue> Hi = foldConstant(Do->hi(), &Env);
          std::optional<FoldedValue> Step =
              Do->step() ? foldConstant(Do->step(), &Env)
                         : std::optional(FoldedValue{Type::Integer, 1, 0.0});
          if (Lo && Hi && Step && Step->I != 0) {
            // Exit-free constant DO: the header runs Trip + 1 times.
            int64_t Trip = (Hi->I - Lo->I + Step->I) / Step->I;
            if (Trip < 0)
              Trip = 0;
            Freq = static_cast<double>(Trip + 1);
            Exact = true;
          }
        }
      }
    }
    LoopFreqOf[Ph] = Freq;
    LoopExactOf[Ph] = Exact;
    return std::pair(Freq, Exact);
  };

  // One pass over the arena's groups (each one condition), in
  // topological order and, per node, in label-first-appearance order.
  for (unsigned P = 0; P < A.numPositions(); ++P) {
    NodeId U = A.node(P);
    for (uint32_t Gi = A.groupsBegin(P); Gi != A.groupsEnd(P); ++Gi) {
      CfgLabel L = A.group(Gi).Label;
      ControlCondition Cond{U, L};
      double Freq = 0.0;
      bool Exact = false;

      if (L == CfgLabel::Z) {
        Freq = 0.0;
        Exact = true; // Pseudo edges are zero by construction.
      } else if (U == E.start()) {
        Freq = 1.0;
        Exact = true;
      } else if (E.headerOf(U) != InvalidNode) {
        std::tie(Freq, Exact) = AssignLoop(U);
      } else {
        StmtId S = C.origin(U);
        const Stmt *St = S == InvalidStmt ? nullptr : F.stmt(S);
        if (St && isa<IfGotoStmt>(St)) {
          const auto *If = cast<IfGotoStmt>(St);
          if (std::optional<FoldedValue> V = foldConstant(If->cond(), &Env)) {
            bool Taken = V->asBool();
            Freq = (L == CfgLabel::T) == Taken ? 1.0 : 0.0;
            Exact = true;
          } else if (FA.intervals().isHeader(U)) {
            // A conditional loop header (goto loop): its T/F split is
            // tied to the assumed loop frequency; leave heuristic.
            Freq = L == CfgLabel::T ? Opts.DefaultBranchTaken
                                    : 1.0 - Opts.DefaultBranchTaken;
          } else {
            Freq = L == CfgLabel::T ? Opts.DefaultBranchTaken
                                    : 1.0 - Opts.DefaultBranchTaken;
          }
        } else if (St && isa<DoStmt>(St)) {
          // The DO header's continue/exit probabilities follow from the
          // loop frequency chosen at its preheader: it takes F once per
          // entry and T the remaining (LoopFreq - 1) times.
          NodeId Ph = E.preheaderOf(U);
          auto It = LoopFreqOf.find(Ph);
          double LoopFreq = It != LoopFreqOf.end()
                                ? It->second
                                : AssignLoop(Ph).first;
          bool LoopExact = LoopExactOf[Ph];
          if (LoopFreq < 1.0)
            LoopFreq = 1.0;
          Freq = L == CfgLabel::T ? (LoopFreq - 1.0) / LoopFreq
                                  : 1.0 / LoopFreq;
          Exact = LoopExact;
        } else if (St && isa<ComputedGotoStmt>(St)) {
          const auto *Cg = cast<ComputedGotoStmt>(St);
          if (std::optional<FoldedValue> V = foldConstant(Cg->index(), &Env)) {
            int64_t Index = V->Ty == Type::Real
                                ? static_cast<int64_t>(V->R)
                                : V->I;
            bool InRange =
                Index >= 1 &&
                Index <= static_cast<int64_t>(Cg->targets().size());
            if (L == CfgLabel::U)
              Freq = InRange ? 0.0 : 1.0;
            else
              Freq = InRange && caseIndex(L) ==
                                    static_cast<unsigned>(Index)
                         ? 1.0
                         : 0.0;
            Exact = true;
          } else {
            // Uniform over the n arms plus the fallthrough.
            Freq = 1.0 / (static_cast<double>(Cg->targets().size()) + 1.0);
          }
        } else {
          // A node with a single real out-label (e.g. when only part of
          // a branch appears as a condition is impossible here, since
          // non-branch statements generate no conditions). Be safe.
          Freq = Opts.DefaultBranchTaken;
        }
      }
      Out.Freqs.GroupFreq[Gi] = Freq;
      Out.Exact[Cond] = Exact;
    }
  }

  // NODE_FREQ via equation 3 over the arena's raw edges (in FCDG
  // edge-insertion order).
  NodeId Start = E.start();
  if (Start < Out.Freqs.NodeFreq.size())
    Out.Freqs.NodeFreq[Start] = 1.0;
  for (unsigned P = 0; P < A.numPositions(); ++P) {
    NodeId U = A.node(P);
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
      const FlowArena::RawEdge &Ed = A.raw(R);
      Out.Freqs.NodeFreq[Ed.To] +=
          Out.Freqs.NodeFreq[U] * Out.Freqs.GroupFreq[Ed.Group];
    }
  }
  return Out;
}

Frequencies ptran::hybridFrequencies(const FunctionAnalysis &FA,
                                     const StaticFrequencies &Static,
                                     const FrequencyTotals *Totals) {
  if (Totals && Totals->Ok &&
      Totals->condTotal(
          FA.cd().conditionId({FA.ecfg().start(), CfgLabel::U})) > 0.0)
    return computeFrequencies(FA, *Totals);
  return Static.Freqs;
}
