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
      const FlowArena::Group &G = A.group(Gi);
      ControlCondition Cond{U, G.Label};
      double Total = Totals.condTotal(G.Cond);
      double Denominator = Out.Invocations * NodeFreqU;
      double Freq = Denominator == 0.0 ? 0.0 : Total / Denominator;
      Out.GroupFreq[Gi] = Freq;
      Out.Freq[Cond] = Freq;
    }
    // Equation 3: push frequency to the children.
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
      const FlowArena::RawEdge &Ed = A.raw(R);
      Out.NodeFreq[Ed.To] += NodeFreqU * Out.GroupFreq[Ed.Group];
    }
  }
  return Out;
}

void ptran::populateGroupFreq(Frequencies &F, const ControlDependence &CD) {
  const FlowArena &A = CD.arena();
  F.GroupFreq.assign(A.numGroups(), 0.0);
  for (unsigned P = 0; P < A.numPositions(); ++P) {
    NodeId U = A.node(P);
    for (uint32_t Gi = A.groupsBegin(P); Gi != A.groupsEnd(P); ++Gi)
      F.GroupFreq[Gi] = F.freqOf({U, A.group(Gi).Label});
  }
}
