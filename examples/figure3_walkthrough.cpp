//===--- examples/figure3_walkthrough.cpp - The paper's running example ---===//
//
// Reconstructs Figures 1-3 of the paper end to end: the statement-level
// CFG of the Fortran fragment, the extended CFG with PREHEADER / POSTEXIT
// / START / STOP nodes and pseudo edges, and the forward control
// dependence graph annotated with <FREQ, TOTAL_FREQ> and
// [COST, TIME, E[T^2], VAR, STD_DEV] tuples — ending at the paper's
// TIME(START) = 920 and STD_DEV(START) = 300.
//
// Build & run:  ./build/examples/figure3_walkthrough [--dot]
//   --dot also prints Graphviz sources for all three graphs.
//
//===----------------------------------------------------------------------===//

#include "cost/Estimator.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "support/FatalError.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace ptran;

namespace {

/// Builds the Figure 1 fragment (the loop's IF runs 10 times; the exit is
/// taken through IF (N .LT. 0), as in the paper's scenario).
std::unique_ptr<Program> makeFigure1(StmtId &A, StmtId &B, StmtId &C,
                                     StmtId &D, StmtId &E) {
  auto Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  {
    FunctionBuilder Fb(*Prog, "main", Diags);
    VarId M = Fb.intVar("m");
    VarId N = Fb.intVar("n");
    Fb.assign(M, Fb.lit(1));
    Fb.assign(N, Fb.lit(8));
    A = Fb.label(10).ifGoto(Fb.ge(Fb.var(M), Fb.lit(0)), 30);
    C = Fb.ifGoto(Fb.ge(Fb.var(N), Fb.lit(0)), 20);
    Fb.gotoLabel(40);
    B = Fb.label(30).ifGoto(Fb.lt(Fb.var(N), Fb.lit(0)), 20);
    D = Fb.label(40).callSub("foo", {Fb.var(M), Fb.var(N)});
    Fb.gotoLabel(10);
    E = Fb.label(20).cont();
    if (!Fb.finish())
      reportFatalError("figure 1 failed to build:\n" + Diags.str());
  }
  {
    FunctionBuilder Fb(*Prog, "foo", Diags);
    Fb.intParam("m");
    VarId N = Fb.intParam("n");
    Fb.assign(N, Fb.sub(Fb.var(N), Fb.lit(1)));
    if (!Fb.finish())
      reportFatalError("foo failed to build:\n" + Diags.str());
  }
  return Prog;
}

void printGraphEdges(const Cfg &C, const char *Title) {
  std::printf("--- %s ---\n", Title);
  const Digraph &G = C.graph();
  for (EdgeId EId = 0; EId < G.numEdgeSlots(); ++EId) {
    if (!G.isLive(EId))
      continue;
    const Digraph::Edge &Ed = G.edge(EId);
    std::printf("  %-34s --%s--> %s\n", C.nodeName(Ed.From).c_str(),
                cfgLabelName(static_cast<CfgLabel>(Ed.Label)).c_str(),
                C.nodeName(Ed.To).c_str());
  }
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  bool Dot = Argc > 1 && std::strcmp(Argv[1], "--dot") == 0;

  StmtId A, B, C, D, E;
  std::unique_ptr<Program> Prog = makeFigure1(A, B, C, D, E);

  std::printf("=== Figure 1: the Fortran fragment ===\n%s\n",
              printFunction(*Prog->entry()).c_str());

  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est =
      Estimator::create(*Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  if (!Est) {
    std::fprintf(stderr, "analysis failed:\n%s", Diags.str().c_str());
    return 1;
  }
  RunResult Run = Est->profiledRun();
  if (!Run.Ok) {
    std::fprintf(stderr, "run failed: %s\n", Run.Error.c_str());
    return 1;
  }

  const Function *Main = Prog->entry();
  const FunctionAnalysis &FA = Est->analysis().of(*Main);

  printGraphEdges(FA.cfg(), "Figure 1: statement-level CFG (GOTOs elided "
                            "into edges)");
  printGraphEdges(FA.ecfg().cfg(),
                  "Figure 2: extended CFG (PREHEADER/POSTEXIT/START/STOP, "
                  "Z = pseudo edge)");

  // Figure 3: the FCDG with the paper's annotation tuples.
  FrequencyTotals Totals = Est->totalsFor(*Main);
  Frequencies Freqs = computeFrequencies(FA, Totals);
  TimeAnalysisOptions Opts;
  // Figure 3's literal cost assignment: IF = 1, CALL body = 100, rest 0.
  Opts.LocalCostOverride =
      [](const Function &F, const Stmt *S) -> std::optional<double> {
    if (equalsLower(F.name(), "foo"))
      return S->kind() == StmtKind::Assign ? 100.0 : 0.0;
    return S->kind() == StmtKind::IfGoto ? 1.0 : 0.0;
  };
  TimeAnalysis TA = Est->analyze(Opts);

  std::printf("--- Figure 3: forward control dependence graph ---\n");
  std::printf("edge annotations: <FREQ, TOTAL_FREQ>; node annotations: "
              "[COST, TIME, E[T^2], VAR, STD_DEV]\n\n");
  const ControlDependence &CD = FA.cd();
  const Cfg &Ecfg = FA.ecfg().cfg();
  for (NodeId U : CD.topoOrder()) {
    const NodeEstimates &NE = TA.of(*Main, U);
    std::printf("%-34s [%s, %s, %s, %s, %s]\n", Ecfg.nodeName(U).c_str(),
                formatDouble(NE.Cost).c_str(), formatDouble(NE.Time).c_str(),
                formatDouble(NE.TimeSq).c_str(),
                formatDouble(NE.Var).c_str(),
                formatDouble(NE.StdDev).c_str());
    for (CfgLabel L : CD.labelsOf(U)) {
      ControlCondition Cond{U, L};
      std::printf("    --%s <%s, %s>-->", cfgLabelName(L).c_str(),
                  formatDouble(Freqs.freqOf(Cond), 4).c_str(),
                  formatDouble(Totals.condTotal(CD.conditionId(Cond))).c_str());
      for (NodeId V : CD.childrenOf(U, L))
        std::printf(" %s;", Ecfg.nodeName(V).c_str());
      std::printf("\n");
    }
  }

  std::printf("\nTIME(START)    = %s   (the paper reports 920)\n",
              formatDouble(TA.programTime()).c_str());
  std::printf("STD_DEV(START) = %s   (the paper reports 300)\n",
              formatDouble(TA.programStdDev()).c_str());

  if (Dot) {
    std::printf("\n=== Graphviz ===\n%s\n%s\n",
                FA.cfg().dot("CFG (Figure 1)").c_str(),
                FA.ecfg().cfg().dot("ECFG (Figure 2)").c_str());
  }
  return TA.programTime() == 920.0 && TA.programStdDev() == 300.0 ? 0 : 2;
}
