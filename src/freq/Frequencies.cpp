//===--- freq/Frequencies.cpp - Relative frequency computation ------------===//

#include "freq/Frequencies.h"

#include <cassert>

using namespace ptran;

Frequencies ptran::computeFrequencies(const FunctionAnalysis &FA,
                                      const FrequencyTotals &Totals) {
  assert(Totals.Ok && "frequency computation requires recovered totals");
  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  NodeId Start = FA.ecfg().start();

  Frequencies Out;
  Out.Arena = &A;
  Out.NodeFreq.assign(A.numNodes(), 0.0);
  Out.GroupFreq.assign(A.numGroups(), 0.0);
  Out.Invocations = Totals.condTotal(CD.conditionId({Start, CfgLabel::U}));

  // Equation 1.
  if (Start < Out.NodeFreq.size())
    Out.NodeFreq[Start] = 1.0;

  // One top-down pass over the arena (positions are topological): FREQ at
  // a node needs its NODE_FREQ, which equation 3 provides from the
  // already-processed FCDG parents. Groups are in labelsOf() order and
  // the raw edges in FCDG edge-insertion order, which fixes the sequence
  // of every floating-point operation.
  for (unsigned P = 0; P < A.numPositions(); ++P) {
    NodeId U = A.node(P);
    double NodeFreqU = Out.NodeFreq[U];
    // Equation 2 per outgoing condition, with the division-by-zero guard.
    for (uint32_t Gi = A.groupsBegin(P); Gi != A.groupsEnd(P); ++Gi) {
      double Total = Totals.condTotal(A.group(Gi).Cond);
      double Denominator = Out.Invocations * NodeFreqU;
      Out.GroupFreq[Gi] = Denominator == 0.0 ? 0.0 : Total / Denominator;
    }
    // Equation 3: push frequency to the children.
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
      const FlowArena::RawEdge &Ed = A.raw(R);
      Out.NodeFreq[Ed.To] += NodeFreqU * Out.GroupFreq[Ed.Group];
    }
  }
  return Out;
}

double Frequencies::freqOf(const ControlCondition &C) const {
  if (!Arena)
    return 0.0;
  unsigned P = Arena->position(C.Node);
  if (P == FlowArena::InvalidPosition)
    return 0.0;
  for (uint32_t Gi = Arena->groupsBegin(P); Gi != Arena->groupsEnd(P); ++Gi)
    if (Arena->group(Gi).Label == C.Label)
      return Gi < GroupFreq.size() ? GroupFreq[Gi] : 0.0;
  return 0.0;
}
