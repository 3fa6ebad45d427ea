//===--- tests/cost_test.cpp - TIME/VAR analysis unit tests ---------------===//
//
// Hand-computable cases for Sections 4-5: single branches, loop
// frequency variance modes, interprocedural propagation (including the
// recursion extension), and the product-variance identity the paper's
// Case 1 relies on.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "parser/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// Builds `main` with a single IF whose taken path costs TakenCost and
/// whose fallthrough costs 0, taken with probability P (driven by a
/// mutable literal threshold over 100 runs).
struct BranchFixture {
  std::unique_ptr<Program> Prog;
  StmtId If = 0;
  IntLiteral *Threshold = nullptr;
};

TEST(TimeAnalysisUnit, SingleBranchByHand) {
  // if (cond) acc = acc + 1   (cost c1), run with p = 0.25:
  // TIME(if) = cost_if + p * c1, VAR(if) = p(1-p) c1^2.
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId S = B.intVar("seed");
  VarId A = B.intVar("acc");
  B.assign(S, B.lit(int64_t(0)));
  StmtId If = B.ifGoto(B.ge(B.var(S), B.lit(0)), 10);
  StmtId Work = B.assign(A, B.add(B.var(A), B.lit(1)));
  B.label(10).cont();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();
  // Note: the T branch *skips* the work (jumps to 10); F falls through.

  auto PA = ProgramAnalysis::compute(Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  const Function *Main = Prog.entry();
  const FunctionAnalysis &FA = PA->of(*Main);
  const Ecfg &E = FA.ecfg();

  // Synthesize totals directly: 100 runs, T taken 25 times.
  FrequencyTotals Totals;
  Totals.Ok = true;
  NodeId IfNode = FA.cfg().nodeForStmt(If);
  for (const ControlCondition &C : FA.cd().conditions())
    Totals.Cond.push_back(C.Label == CfgLabel::Z ? 0 : 100);
  auto Set = [&](ControlCondition C, double V) {
    unsigned Id = FA.cd().conditionId(C);
    if (Id != ControlDependence::InvalidCondition)
      Totals.Cond[Id] = V;
  };
  Set({E.start(), CfgLabel::U}, 100);
  Set({IfNode, CfgLabel::T}, 25);
  Set({IfNode, CfgLabel::F}, 75);
  Totals.Node = nodeTotalsFromConds(FA, Totals.Cond);

  Frequencies Freqs = computeFrequencies(FA, Totals);
  // Only (If, F) is a control condition: the T branch jumps to the
  // postdominating CONTINUE, so nothing depends on it.
  EXPECT_DOUBLE_EQ(Freqs.freqOf({IfNode, CfgLabel::F}), 0.75);

  // Costs: IF = 2, work = 8, everything else 0.
  TimeAnalysisOptions Opts;
  Opts.LocalCostOverride = [&](const Function &,
                               const Stmt *St) -> std::optional<double> {
    if (St->kind() == StmtKind::IfGoto)
      return 2.0;
    if (St->kind() == StmtKind::Assign && St == Main->stmt(Work))
      return 8.0;
    return 0.0;
  };
  std::map<const Function *, Frequencies> FreqMap{{Main, Freqs}};
  TimeAnalysis TA = TimeAnalysis::run(*PA, FreqMap, CostModel::optimizing(),
                                      Opts);

  // TIME(if) = 2 + 0.75 * 8 = 8; VAR(if) = p(1-p) * 8^2 = 12.
  EXPECT_DOUBLE_EQ(TA.of(*Main, IfNode).Time, 8.0);
  EXPECT_DOUBLE_EQ(TA.of(*Main, IfNode).Var, 0.25 * 0.75 * 64.0);
  EXPECT_DOUBLE_EQ(TA.programTime(), 8.0);
  EXPECT_DOUBLE_EQ(TA.functionVariance(*Main), 12.0);
  // E[T^2] consistency at every node.
  for (NodeId N : FA.cd().topoOrder()) {
    const NodeEstimates &EN = TA.of(*Main, N);
    EXPECT_NEAR(EN.TimeSq, EN.Var + EN.Time * EN.Time, 1e-9);
    EXPECT_NEAR(EN.StdDev, std::sqrt(EN.Var), 1e-12);
  }
}

TEST(TimeAnalysisUnit, ProductVarianceIdentity) {
  // VAR(A*B) = VAR(A)VAR(B) + E(A)^2 VAR(B) + E(B)^2 VAR(A) for
  // independent A, B — checked by simulation, since Case 1 is built on it.
  Rng R(99);
  double MeanA = 4.0, VarA = 2.25, MeanB = 7.0, VarB = 1.5;
  double Sum = 0, SumSq = 0;
  const int N = 400000;
  for (int I = 0; I < N; ++I) {
    double A = R.normal(MeanA, std::sqrt(VarA));
    double B = R.normal(MeanB, std::sqrt(VarB));
    Sum += A * B;
    SumSq += A * B * A * B;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  double Formula = VarA * VarB + MeanA * MeanA * VarB + MeanB * MeanB * VarA;
  EXPECT_NEAR(Var, Formula, 0.05 * Formula);
}

/// Program: main calls mid 3x in a loop; mid calls leaf.
TEST(TimeAnalysisUnit, InterproceduralBottomUp) {
  Program Prog;
  DiagnosticEngine Diags;
  {
    FunctionBuilder B(Prog, "leaf", Diags);
    VarId X = B.intParam("x");
    B.assign(X, B.add(B.var(X), B.lit(1)));
    ASSERT_NE(B.finish(), nullptr);
  }
  {
    FunctionBuilder B(Prog, "mid", Diags);
    VarId X = B.intParam("x");
    B.callSub("leaf", {B.var(X)});
    B.callSub("leaf", {B.var(X)});
    ASSERT_NE(B.finish(), nullptr);
  }
  {
    FunctionBuilder B(Prog, "main", Diags);
    VarId X = B.intVar("x");
    VarId I = B.intVar("i");
    B.doLoop(I, B.lit(1), B.lit(3));
    B.callSub("mid", {B.var(X)});
    B.endDo();
    ASSERT_NE(B.finish(), nullptr);
  }

  DiagnosticEngine Diags2;
  auto Est = Estimator::create(Prog, CostModel::optimizing(), EstimatorOptions(Diags2));
  ASSERT_NE(Est, nullptr) << Diags2.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  TimeAnalysisOptions Opts;
  Opts.LocalCostOverride = [](const Function &,
                              const Stmt *S) -> std::optional<double> {
    if (S->kind() == StmtKind::Assign)
      return 5.0; // leaf body
    if (S->kind() == StmtKind::Call)
      return 1.0; // call linkage
    return 0.0;
  };
  TimeAnalysis TA = Est->analyze(Opts);

  const Function *Leaf = Prog.findFunction("leaf");
  const Function *Mid = Prog.findFunction("mid");
  EXPECT_DOUBLE_EQ(TA.functionTime(*Leaf), 5.0);
  EXPECT_DOUBLE_EQ(TA.functionTime(*Mid), 2.0 * (1.0 + 5.0));
  // main: DO executes 4x (3 iterations + exit test), body = call = 13.
  EXPECT_DOUBLE_EQ(TA.programTime(), 3.0 * 13.0);
  EXPECT_FALSE(TA.hasRecursion());
}

TEST(TimeAnalysisUnit, RecursionConvergesByFixedPoint) {
  // rec(n): if (n > 0) rec(n - 1). Called with n = 4: the true cost is
  // bounded; the fixed point must converge to a finite estimate with the
  // profiled branch probability.
  Program Prog;
  DiagnosticEngine Diags;
  {
    FunctionBuilder B(Prog, "rec", Diags);
    VarId N = B.intParam("n");
    VarId M = B.intVar("m");
    B.ifGoto(B.le(B.var(N), B.lit(0)), 10);
    B.assign(M, B.sub(B.var(N), B.lit(1)));
    B.callSub("rec", {B.var(M)});
    B.label(10).cont();
    ASSERT_NE(B.finish(), nullptr);
  }
  {
    FunctionBuilder B(Prog, "main", Diags);
    VarId N = B.intVar("n");
    B.assign(N, B.lit(4));
    B.callSub("rec", {B.var(N)});
    ASSERT_NE(B.finish(), nullptr);
  }

  DiagnosticEngine Diags2;
  auto Est = Estimator::create(Prog, CostModel::optimizing(), EstimatorOptions(Diags2));
  ASSERT_NE(Est, nullptr) << Diags2.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  TimeAnalysis TA = Est->analyze();
  EXPECT_TRUE(TA.hasRecursion());
  EXPECT_GT(TA.programTime(), 0.0);
  EXPECT_TRUE(std::isfinite(TA.programTime()));
  EXPECT_TRUE(std::isfinite(TA.functionVariance(*Prog.entry())));
}

TEST(TimeAnalysisUnit, LoopVarianceModesAreOrdered) {
  // A geometric-ish goto loop: variance should rank
  // Zero <= Profiled (positive) and Geometric/Uniform > 0.
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  auto VarianceWith = [&](LoopVarianceMode Mode) {
    TimeAnalysisOptions Opts = figure3CostOptions();
    Opts.LoopVariance = Mode;
    return Est->analyze(Opts).functionVariance(*Fix.Main);
  };

  double Zero = VarianceWith(LoopVarianceMode::Zero);
  double Profiled = VarianceWith(LoopVarianceMode::Profiled);
  double Geometric = VarianceWith(LoopVarianceMode::Geometric);
  double Uniform = VarianceWith(LoopVarianceMode::Uniform);

  EXPECT_DOUBLE_EQ(Zero, 90000.0); // The paper's Figure 3 number.
  // One observed loop entry: profiled per-entry variance is zero, so the
  // result collapses to the Zero mode.
  EXPECT_DOUBLE_EQ(Profiled, Zero);
  // Distribution assumptions add loop-frequency variance on top.
  EXPECT_GT(Geometric, Zero);
  EXPECT_GT(Uniform, Zero);
  // Case 1 at MAIN's preheader: m = FREQ = 10, and the loop body sums to
  // TIME = 92, VAR = 900, so VAR = m^2*900 + VAR(FREQ)*(92^2 + 900)
  // = 90000 + 9364*VAR(FREQ). Geometric: VAR(FREQ) = m^2 - m = 90.
  // Uniform on {1..2m-1}: VAR(FREQ) = ((2m-1)^2 - 1)/12 = 30.
  EXPECT_DOUBLE_EQ(Geometric, 932760.0);
  EXPECT_DOUBLE_EQ(Uniform, 370920.0);
}

/// Profiles \p Src once and reads the entry's VAR under the Profiled and
/// Zero loop-variance modes.
void profiledAndZeroVariance(const char *Src, double &Prof, double &Zero) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  auto Est = Estimator::create(*P, CostModel::optimizing(),
                               EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  TimeAnalysisOptions ProfOpts;
  ProfOpts.LoopVariance = LoopVarianceMode::Profiled;
  Prof = Est->analyze(ProfOpts).functionVariance(*P->entry());
  Zero = Est->analyze(TimeAnalysisOptions()).functionVariance(*P->entry());
}

TEST(TimeAnalysisUnit, ProfiledLoopVarianceUsesMoments) {
  // A loop whose trip count varies across entries: profiled mode must
  // exceed the zero assumption.
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId I = B.intVar("i"), J = B.intVar("j"), A = B.intVar("acc");
  B.doLoop(I, B.lit(1), B.lit(6));
  B.doLoop(J, B.lit(1), B.var(I)); // Trips 1..6: Var(F) > 0.
  B.assign(A, B.add(B.var(A), B.lit(1)));
  B.endDo();
  B.endDo();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  DiagnosticEngine Diags2;
  auto Est = Estimator::create(Prog, CostModel::optimizing(), EstimatorOptions(Diags2));
  ASSERT_NE(Est, nullptr) << Diags2.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  TimeAnalysisOptions ZeroOpts;
  TimeAnalysisOptions ProfOpts;
  ProfOpts.LoopVariance = LoopVarianceMode::Profiled;
  double VZero = Est->analyze(ZeroOpts).functionVariance(*Prog.entry());
  double VProf = Est->analyze(ProfOpts).functionVariance(*Prog.entry());
  EXPECT_GT(VProf, VZero);

  // And the moments themselves are right: inner loop header executions
  // per entry are 2..7, mean 4.5.
  const Function *Main = Prog.entry();
  const LoopFrequencyStats::Moments *M =
      Est->loopStats().momentsFor(*Main, /*HeaderStmt=*/1);
  ASSERT_NE(M, nullptr);
  EXPECT_DOUBLE_EQ(M->Entries, 6.0);
  EXPECT_DOUBLE_EQ(M->mean(), 4.5);
  EXPECT_NEAR(M->variance(), (49.0 - 1.0) / 12.0 - 0.0, 3.0); // ~2.9.

  // The same inner loop spelled twice: once with a plain back edge, once
  // entered through a GOTO that elision folds into an edge. The analysis
  // sees one CFG, so Profiled VAR must agree, and the moments must be
  // found under the elided header for it to exceed the Zero mode.
  double PlainProf = 0, PlainZero = 0, GotoProf = 0, GotoZero = 0;
  ASSERT_NO_FATAL_FAILURE(profiledAndZeroVariance(R"(
program main
  integer i, j
  do i = 1, 6
    j = 0
20  j = j + 1
    if (j .lt. i) goto 20
  enddo
end
)", PlainProf, PlainZero));
  ASSERT_NO_FATAL_FAILURE(profiledAndZeroVariance(R"(
program main
  integer i, j
  do i = 1, 6
    j = 0
10  goto 20
20  j = j + 1
    if (j .lt. i) goto 10
  enddo
end
)", GotoProf, GotoZero));
  EXPECT_EQ(GotoZero, PlainZero);
  EXPECT_EQ(GotoProf, PlainProf);
  EXPECT_GT(GotoProf, GotoZero);
}

TEST(FrequenciesUnit, ZeroDenominatorGuard) {
  // A function never executed: all frequencies 0, no division faults.
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Fix.Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  const FunctionAnalysis &FA = PA->of(*Fix.Main);

  FrequencyTotals Totals;
  Totals.Ok = true;
  Totals.Cond.assign(FA.cd().conditions().size(), 0.0);
  Totals.Node = nodeTotalsFromConds(FA, Totals.Cond);
  Frequencies Freqs = computeFrequencies(FA, Totals);
  EXPECT_DOUBLE_EQ(Freqs.Invocations, 0.0);
  ASSERT_FALSE(FA.cd().conditions().empty());
  for (const ControlCondition &C : FA.cd().conditions())
    EXPECT_DOUBLE_EQ(Freqs.freqOf(C), 0.0);
}

TEST(FrequenciesUnit, MultiRunAccumulationKeepsRatios) {
  // Running the same program twice doubles totals but preserves FREQ.
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  FrequencyTotals Once = Est->totalsFor(*Fix.Main);
  Frequencies FOnce = computeFrequencies(Est->analysis().of(*Fix.Main), Once);
  ASSERT_TRUE(Est->profiledRun().Ok);
  FrequencyTotals Twice = Est->totalsFor(*Fix.Main);
  Frequencies FTwice =
      computeFrequencies(Est->analysis().of(*Fix.Main), Twice);

  EXPECT_DOUBLE_EQ(FTwice.Invocations, 2.0 * FOnce.Invocations);
  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  ASSERT_FALSE(FA.cd().conditions().empty());
  for (const ControlCondition &C : FA.cd().conditions())
    EXPECT_NEAR(FTwice.freqOf(C), FOnce.freqOf(C), 1e-12);
  // Figure 3's estimate is invariant under accumulation.
  TimeAnalysis TA = Est->analyze(figure3CostOptions());
  EXPECT_DOUBLE_EQ(TA.programTime(), 920.0);
}

} // namespace
