//===--- profile/ConsistencyCheck.cpp - Profile sanity checking -----------===//

#include "profile/ConsistencyCheck.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace ptran;

std::vector<std::string>
ptran::checkFrequencyConsistency(const FunctionAnalysis &FA,
                                 const FrequencyTotals &Totals,
                                 double Tolerance) {
  std::vector<std::string> Findings;
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = FA.cfg();
  const Cfg &Ext = E.cfg();

  auto Report = [&](const std::string &Message) {
    Findings.push_back(FA.function().name() + ": " + Message);
  };
  auto Close = [&](double A, double B) {
    return std::fabs(A - B) <=
           Tolerance * std::max({1.0, std::fabs(A), std::fabs(B)});
  };

  if (!Totals.Ok) {
    Report("totals are not marked Ok");
    return Findings;
  }

  auto Total = [&](const ControlCondition &C) {
    return Totals.condTotal(CD.conditionId(C));
  };
  auto IsCond = [&](const ControlCondition &C) {
    return CD.conditionId(C) != ControlDependence::InvalidCondition;
  };

  if (Totals.Cond.size() != CD.conditions().size()) {
    Report("totals hold " + std::to_string(Totals.Cond.size()) +
           " condition totals, the FCDG has " +
           std::to_string(CD.conditions().size()));
    return Findings;
  }

  // Recompute node totals from the condition totals (equation 3) and
  // compare with the supplied ones.
  std::vector<double> Derived = nodeTotalsFromConds(FA, Totals.Cond);
  for (NodeId N : CD.topoOrder())
    if (N < Totals.Node.size() && Totals.Node[N] >= 0.0 &&
        !Close(Totals.Node[N], Derived[N]))
      Report("node total of " + Ext.nodeName(N) + " is " +
             formatDouble(Totals.Node[N]) + " but equation 3 gives " +
             formatDouble(Derived[N]));

  // Per-condition basics.
  for (const ControlCondition &Cond : CD.conditions()) {
    double T = Total(Cond);
    if (T < -Tolerance)
      Report("negative total for (" + Ext.nodeName(Cond.Node) + ", " +
             cfgLabelName(Cond.Label) + ")");
    if (Cond.Label == CfgLabel::Z && std::fabs(T) > Tolerance)
      Report("pseudo condition (" + Ext.nodeName(Cond.Node) +
             ", Z) has nonzero total " + formatDouble(T));
  }

  // Optimization 2's sum rule where it applies.
  std::map<NodeId, std::vector<CfgLabel>> ByNode;
  for (const ControlCondition &Cond : CD.conditions())
    if (Cond.Label != CfgLabel::Z && Cond.Node != E.start() &&
        E.headerOf(Cond.Node) == InvalidNode)
      ByNode[Cond.Node].push_back(Cond.Label);
  for (const auto &[U, Labels] : ByNode) {
    // All real out-labels of U present as conditions?
    std::set<CfgLabel> Present(Labels.begin(), Labels.end());
    bool All = true;
    unsigned RealLabels = 0;
    for (EdgeId Out : Ext.graph().outEdges(U)) {
      CfgLabel L = static_cast<CfgLabel>(Ext.graph().edge(Out).Label);
      if (L == CfgLabel::Z)
        continue;
      ++RealLabels;
      All &= Present.count(L) != 0;
    }
    double NodeTotal = Derived[U];
    double Sum = 0.0;
    for (CfgLabel L : Labels) {
      double T = Total({U, L});
      Sum += T;
      if (T > NodeTotal + Tolerance * std::max(1.0, NodeTotal))
        Report("branch total (" + Ext.nodeName(U) + ", " +
               cfgLabelName(L) + ") = " + formatDouble(T) +
               " exceeds the node's executions " +
               formatDouble(NodeTotal));
    }
    if (All && RealLabels == Labels.size() && !Close(Sum, NodeTotal))
      Report("branch totals of " + Ext.nodeName(U) + " sum to " +
             formatDouble(Sum) + ", expected " + formatDouble(NodeTotal));
  }

  // Loop identities.
  for (NodeId H : FA.intervals().headers()) {
    NodeId Ph = E.preheaderOf(H);
    ControlCondition LoopCond{Ph, CfgLabel::U};
    if (!IsCond(LoopCond))
      continue;
    double HeaderExecs = Total(LoopCond);
    double Entries = Derived[Ph];

    // Observation 1: exits sum to entries. Expressible only when every
    // exit's traversal count is known: a condition, or the sole label of
    // its source node.
    double ExitSum = 0.0;
    bool ExitsKnown = true;
    std::set<std::pair<NodeId, CfgLabel>> Seen;
    auto AddExit = [&](NodeId Src, CfgLabel L) {
      if (!Seen.insert({Src, L}).second)
        return;
      if (IsCond({Src, L})) {
        ExitSum += Total({Src, L});
        return;
      }
      // Sole-label sources traverse the exit once per execution; a DO
      // header's F branch equals executions minus its T branch.
      unsigned Real = 0;
      for (EdgeId Out : Ext.graph().outEdges(Src))
        Real += static_cast<CfgLabel>(Ext.graph().edge(Out).Label) !=
                CfgLabel::Z;
      if (Real == 1) {
        ExitSum += Derived[Src];
        return;
      }
      if (IsCond({Src, CfgLabel::T}) && L == CfgLabel::F && Real == 2) {
        ExitSum += Derived[Src] - Total({Src, CfgLabel::T});
        return;
      }
      ExitsKnown = false;
    };
    for (EdgeId Ed : FA.intervals().exitEdges(H)) {
      const Digraph::Edge &Edge = C.graph().edge(Ed);
      AddExit(Edge.From, static_cast<CfgLabel>(Edge.Label));
    }
    for (const Cfg::ExitBranch &B : FA.intervals().exitBranches(H))
      AddExit(B.Node, B.Label);
    if (ExitsKnown && !Close(ExitSum, Entries))
      Report("loop " + Ext.nodeName(H) + ": exits total " +
             formatDouble(ExitSum) + " but the loop was entered " +
             formatDouble(Entries) + " times (observation 1)");

    // Observation 2: header executions >= entries; equality only for
    // zero-iteration entries.
    if (HeaderExecs + Tolerance < Entries)
      Report("loop " + Ext.nodeName(H) + ": header executed " +
             formatDouble(HeaderExecs) + " times, fewer than its " +
             formatDouble(Entries) + " entries (observation 2)");
  }

  return Findings;
}
