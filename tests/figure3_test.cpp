//===--- tests/figure3_test.cpp - Golden numbers of Figures 1-3 -----------===//
//
// End-to-end reproduction of the paper's running example: the Figure 1
// fragment profiled under the Figure 3 scenario must yield
// TIME(START) = 920 and STD_DEV(START) = 300, along with the per-node
// <FREQ, TOTAL_FREQ> tuples of Figure 3.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

class Figure3Test : public ::testing::Test {
protected:
  void SetUp() override {
    Fix = makeFigure1();
    ASSERT_TRUE(verifyProgram(*Fix.Prog, Diags)) << Diags.str();
    Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
    ASSERT_NE(Est, nullptr) << Diags.str();
    RunResult R = Est->profiledRun();
    ASSERT_TRUE(R.Ok) << R.Error;
  }

  /// The ECFG node for a MAIN statement.
  NodeId node(StmtId S) const {
    return Est->analysis().of(*Fix.Main).cfg().nodeForStmt(S);
  }

  DiagnosticEngine Diags;
  Figure1Program Fix;
  std::unique_ptr<Estimator> Est;
};

TEST_F(Figure3Test, ScenarioCountsMatchThePaper) {
  // "The IF statement with label 10 is executed 10 times, and the loop is
  // exited by taking the IF (N .LT. 0) branch."
  FrequencyTotals T = Est->totalsFor(*Fix.Main);
  ASSERT_TRUE(T.Ok);

  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  const Ecfg &E = FA.ecfg();
  NodeId A = node(Fix.A), B = node(Fix.B), C = node(Fix.C), D = node(Fix.D);
  NodeId Header = A;
  NodeId Ph = E.preheaderOf(Header);
  ASSERT_NE(Ph, InvalidNode);
  auto Total = [&](NodeId U, CfgLabel L) {
    return T.condTotal(FA.cd().conditionId({U, L}));
  };

  EXPECT_DOUBLE_EQ(Total(E.start(), CfgLabel::U), 1.0);
  EXPECT_DOUBLE_EQ(Total(Ph, CfgLabel::U), 10.0); // A executed 10x.
  EXPECT_DOUBLE_EQ(Total(A, CfgLabel::T), 10.0);  // M >= 0 always.
  EXPECT_DOUBLE_EQ(Total(A, CfgLabel::F), 0.0);
  EXPECT_DOUBLE_EQ(Total(B, CfgLabel::T), 1.0);   // The final exit.
  EXPECT_DOUBLE_EQ(Total(B, CfgLabel::F), 9.0);   // 9 calls to FOO.
  EXPECT_DOUBLE_EQ(Total(C, CfgLabel::T), 0.0);
  EXPECT_DOUBLE_EQ(Total(C, CfgLabel::F), 0.0);
  EXPECT_DOUBLE_EQ(T.nodeTotal(D), 9.0);
}

TEST_F(Figure3Test, RelativeFrequenciesMatchFigure3) {
  FrequencyTotals T = Est->totalsFor(*Fix.Main);
  ASSERT_TRUE(T.Ok);
  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  Frequencies Freqs = computeFrequencies(FA, T);

  const Ecfg &E = FA.ecfg();
  NodeId A = node(Fix.A), B = node(Fix.B), C = node(Fix.C), D = node(Fix.D);
  NodeId Ph = E.preheaderOf(A);

  EXPECT_DOUBLE_EQ(Freqs.Invocations, 1.0);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({E.start(), CfgLabel::U}), 1.0);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({Ph, CfgLabel::U}), 10.0); // Loop frequency.
  EXPECT_DOUBLE_EQ(Freqs.freqOf({A, CfgLabel::T}), 1.0);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({A, CfgLabel::F}), 0.0);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({B, CfgLabel::T}), 0.1);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({B, CfgLabel::F}), 0.9);
  // C never executes; the footnote-2 guard forces its frequencies to 0.
  EXPECT_DOUBLE_EQ(Freqs.freqOf({C, CfgLabel::T}), 0.0);
  EXPECT_DOUBLE_EQ(Freqs.freqOf({C, CfgLabel::F}), 0.0);
  // NODE_FREQ(D): 9 executions per invocation (0.9 per loop iteration,
  // 10 iterations).
  EXPECT_DOUBLE_EQ(Freqs.NodeFreq[D], 9.0);
}

TEST_F(Figure3Test, TimeAndVarianceMatchFigure3) {
  TimeAnalysis TA = Est->analyze(figure3CostOptions());

  // The paper's headline numbers.
  EXPECT_DOUBLE_EQ(TA.programTime(), 920.0);
  EXPECT_DOUBLE_EQ(TA.programStdDev(), 300.0);
  EXPECT_DOUBLE_EQ(TA.functionVariance(*Fix.Main), 90000.0);
  EXPECT_DOUBLE_EQ(TA.functionTime(*Fix.Foo), 100.0);
  EXPECT_DOUBLE_EQ(TA.functionVariance(*Fix.Foo), 0.0);

  // Per-node tuples.
  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  const Ecfg &E = FA.ecfg();
  NodeId A = node(Fix.A), B = node(Fix.B), C = node(Fix.C), D = node(Fix.D);
  NodeId Ph = E.preheaderOf(A);

  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, D).Time, 100.0); // CALL FOO.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, D).Var, 0.0);
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, B).Cost, 1.0);
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, B).Time, 91.0); // 1 + 0.9 * 100.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, B).Var, 900.0);
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, C).Time, 1.0);  // Never-taken branches.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, A).Time, 92.0); // 1 + 1.0 * 91.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, A).Var, 900.0);
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, Ph).Time, 920.0); // 10 * 92.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, Ph).Var, 90000.0);
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, Ph).StdDev, 300.0);
  // E[T^2] = VAR + TIME^2 at the preheader.
  EXPECT_DOUBLE_EQ(TA.of(*Fix.Main, Ph).TimeSq, 90000.0 + 920.0 * 920.0);
}

TEST_F(Figure3Test, FcdgHasFigure3Shape) {
  // Structural checks against Figure 3: B and C are control dependent on
  // A's T/F branches, D on (B, F) and (C, F), A on the preheader's U
  // label, and the final CONTINUE (node E) directly on START.
  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  NodeId A = node(Fix.A), B = node(Fix.B), C = node(Fix.C), D = node(Fix.D);
  NodeId Cont = node(Fix.E);
  NodeId Ph = E.preheaderOf(A);

  auto Has = [&](NodeId U, CfgLabel L, NodeId V) {
    std::vector<NodeId> Kids = CD.childrenOf(U, L);
    return std::find(Kids.begin(), Kids.end(), V) != Kids.end();
  };
  EXPECT_TRUE(Has(E.start(), CfgLabel::U, Ph));
  EXPECT_TRUE(Has(E.start(), CfgLabel::U, Cont));
  EXPECT_TRUE(Has(Ph, CfgLabel::U, A));
  EXPECT_TRUE(Has(A, CfgLabel::T, B));
  EXPECT_TRUE(Has(A, CfgLabel::F, C));
  EXPECT_TRUE(Has(B, CfgLabel::F, D));
  EXPECT_TRUE(Has(C, CfgLabel::F, D));
  // The loop body must not be control dependent on START directly.
  EXPECT_FALSE(Has(E.start(), CfgLabel::U, A));
  EXPECT_FALSE(Has(E.start(), CfgLabel::U, D));
}

TEST_F(Figure3Test, SmartPlanUsesFewCounters) {
  // MAIN: entry + latch + (A,T) + (B,T) and at most one more; the rest
  // must come from derivations (optimizations 1+2).
  const FunctionPlan &Plan = Est->plan().of(*Fix.Main);
  EXPECT_LE(Plan.numCounters(), 5u);

  // Every condition must be recoverable from those counters.
  EXPECT_TRUE(Plan.recoverable());
}

} // namespace
