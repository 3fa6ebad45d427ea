//===--- bench/fig3_fcdg.cpp - Regenerate Figure 3 ------------------------===//
//
// Figure 3 of the paper shows the forward control dependence graph of the
// running example, annotated with <FREQ, TOTAL_FREQ> tuples per edge and
// [COST, TIME, E[T^2], VAR, STD_DEV] tuples per node, for the scenario
// where the loop's IF executes 10 times and the exit is taken through
// IF (N .LT. 0) — yielding TIME(START) = 920 and STD_DEV(START) = 300.
// This binary regenerates the annotated graph, checks the two headline
// numbers, and benchmarks the control dependence + estimation passes.
//
//===----------------------------------------------------------------------===//

#include "Figure1.h"

#include "cost/Estimator.h"
#include "support/FatalError.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

using namespace ptran;
using namespace ptran::bench;

namespace {

int printFigure3() {
  std::unique_ptr<Program> Prog = makeFigure1Program();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  if (!Est)
    reportFatalError("analysis failed:\n" + Diags.str());
  RunResult Run = Est->profiledRun();
  if (!Run.Ok)
    reportFatalError("run failed: " + Run.Error);

  const Function *Main = Prog->entry();
  const FunctionAnalysis &FA = Est->analysis().of(*Main);
  FrequencyTotals Totals = Est->totalsFor(*Main);
  Frequencies Freqs = computeFrequencies(FA, Totals);

  TimeAnalysisOptions Opts;
  Opts.LocalCostOverride =
      [](const Function &F, const Stmt *S) -> std::optional<double> {
    if (equalsLower(F.name(), "foo"))
      return S->kind() == StmtKind::Assign ? 100.0 : 0.0;
    return S->kind() == StmtKind::IfGoto ? 1.0 : 0.0;
  };
  TimeAnalysis TA = Est->analyze(Opts);

  std::printf("=== Figure 3: forward control dependence graph, FCDG ===\n");
  std::printf("edges: <FREQ, TOTAL_FREQ>; nodes: [COST, TIME, E[T^2], "
              "VAR, STD_DEV]\n\n");
  const ControlDependence &CD = FA.cd();
  const Cfg &E = FA.ecfg().cfg();
  for (NodeId U : CD.topoOrder()) {
    const NodeEstimates &NE = TA.of(*Main, U);
    std::printf("%-34s [%s, %s, %s, %s, %s]\n", E.nodeName(U).c_str(),
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
        std::printf(" %s;", E.nodeName(V).c_str());
      std::printf("\n");
    }
  }

  double Time = TA.programTime();
  double Sd = TA.programStdDev();
  std::printf("\nTIME(START)    = %s (paper: 920)  %s\n",
              formatDouble(Time).c_str(), Time == 920.0 ? "MATCH" : "OFF");
  std::printf("STD_DEV(START) = %s (paper: 300)  %s\n\n",
              formatDouble(Sd).c_str(), Sd == 300.0 ? "MATCH" : "OFF");
  return Time == 920.0 && Sd == 300.0 ? 0 : 2;
}

void benchControlDependence(benchmark::State &State, const Workload *W) {
  std::unique_ptr<Program> Prog = parseWorkload(*W);
  struct Prepared {
    Cfg C;
    IntervalStructure IS;
    Ecfg E;
  };
  std::vector<Prepared> Items;
  for (const auto &F : Prog->functions()) {
    Prepared P;
    P.C = buildCfg(*F);
    elideGotoNodes(P.C);
    DiagnosticEngine Diags;
    P.IS = std::move(*IntervalStructure::compute(P.C, Diags));
    P.E = buildEcfg(P.C, P.IS);
    Items.push_back(std::move(P));
  }
  for (auto _ : State) {
    for (const Prepared &P : Items) {
      ControlDependence CD(P.E, P.IS);
      benchmark::DoNotOptimize(CD.conditions().size());
    }
  }
}
BENCHMARK_CAPTURE(benchControlDependence, LOOPS, &livermoreLoops());
BENCHMARK_CAPTURE(benchControlDependence, SIMPLE, &simpleKernel());

void benchTimeAndVariance(benchmark::State &State, const Workload *W) {
  std::unique_ptr<Program> Prog = parseWorkload(*W);
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  if (!Est)
    reportFatalError("analysis failed");
  RunResult R = Est->profiledRun(W->MaxSteps);
  if (!R.Ok)
    reportFatalError("run failed: " + R.Error);
  for (auto _ : State) {
    TimeAnalysis TA = Est->analyze();
    benchmark::DoNotOptimize(TA.programTime());
  }
}
BENCHMARK_CAPTURE(benchTimeAndVariance, LOOPS, &livermoreLoops());
BENCHMARK_CAPTURE(benchTimeAndVariance, SIMPLE, &simpleKernel());

} // namespace

int main(int Argc, char **Argv) {
  int Rc = printFigure3();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return Rc;
}
