//===--- tests/multiway_test.cpp - Computed GOTO and DO WHILE -------------===//
//
// The framework on general label sets: Fortran's computed GOTO gives a
// node n+1 branch labels (C1..Cn plus the out-of-range fallthrough U),
// exercising Definition 1's arbitrary label set and the "n-1 of n
// counters" form of the second profiling optimization. Plus the DO WHILE
// front-end sugar.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "profile/ProfileRuntime.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

TEST(ComputedGoto, InterpreterSemantics) {
  const char *Src = R"(
program main
  integer i, r
  do 20 i = 0, 4
    goto (10, 11, 12), i
    r = 99
    goto 19
10  r = 1
    goto 19
11  r = 2
    goto 19
12  r = 3
19  print r
20 continue
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  Interpreter I(*P, CostModel::optimizing());
  RunResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  // i = 0 and i = 4 are out of range -> fallthrough arm (99).
  EXPECT_EQ(R.Output, "99\n1\n2\n3\n99\n");
}

TEST(ComputedGoto, CfgEdgesCarryCaseLabels) {
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId I = B.intVar("i");
  StmtId Cg = B.computedGoto(B.var(I), {10, 20, 10});
  B.assign(I, B.lit(0));
  B.label(10).cont();
  B.label(20).cont();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  Cfg C = buildCfg(*Prog.findFunction("main"));
  NodeId N = C.nodeForStmt(Cg);
  EXPECT_EQ(C.graph().outDegree(N), 4u); // 3 arms + fallthrough.
  // Arms 1 and 3 target the same node under distinct labels (multigraph).
  NodeId T10 = C.nodeForStmt(2);
  EXPECT_NE(C.graph().findEdge(N, T10, static_cast<LabelId>(caseLabel(1))),
            InvalidEdge);
  EXPECT_NE(C.graph().findEdge(N, T10, static_cast<LabelId>(caseLabel(3))),
            InvalidEdge);
  EXPECT_EQ(cfgLabelName(caseLabel(3)), "C3");
}

TEST(ComputedGoto, PrintsAndRoundTrips) {
  const char *Src = R"(
program main
  integer k
  k = 2
  goto (10, 20), k
10 continue
20 continue
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  const Function *F = P->entry();
  EXPECT_EQ(printStmt(*F, F->stmt(1)), "GOTO (10, 20), k");
  std::string Printed = printProgram(*P);
  auto P2 = parseProgram(Printed, Diags);
  ASSERT_NE(P2, nullptr) << Diags.str() << Printed;
  EXPECT_EQ(printProgram(*P2), Printed);
}

TEST(ComputedGoto, NwaySumComplementDropsOneCounter) {
  // A 3-arm computed GOTO whose arms all carry distinct work: all four
  // labels (C1, C2, C3, U) become conditions; opt2 must measure only
  // three of them and derive the fourth — and recovery must still match
  // the exact oracle.
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId S = B.intVar("seed"), R = B.intVar("rnd"), A = B.intVar("acc");
  VarId I = B.intVar("i");
  B.assign(S, B.lit(321));
  B.doLoop(I, B.lit(1), B.lit(50));
  B.assign(S, B.intrinsic(Intrinsic::Mod,
                          {B.add(B.mul(B.var(S), B.lit(1103)), B.lit(7919)),
                           B.lit(100003)}));
  B.assign(R, B.intrinsic(Intrinsic::Mod, {B.var(S), B.lit(4)}));
  StmtId Cg = B.computedGoto(B.var(R), {10, 20, 30});
  B.assign(A, B.add(B.var(A), B.lit(100))); // Fallthrough (r == 0).
  B.gotoLabel(40);
  B.label(10).assign(A, B.add(B.var(A), B.lit(1)));
  B.gotoLabel(40);
  B.label(20).assign(A, B.add(B.var(A), B.lit(2)));
  B.gotoLabel(40);
  B.label(30).assign(A, B.add(B.var(A), B.lit(3)));
  B.label(40).cont();
  B.endDo();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  auto PA = ProgramAnalysis::compute(Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  const Function *Main = Prog.entry();
  const FunctionAnalysis &FA = PA->of(*Main);
  NodeId CgNode = FA.cfg().nodeForStmt(Cg);

  // All four labels are conditions.
  unsigned CondsAtCg = 0;
  for (const ControlCondition &C : FA.cd().conditions())
    CondsAtCg += C.Node == CgNode;
  EXPECT_EQ(CondsAtCg, 4u);

  // The smart plan derives exactly one of them by sum-complement.
  FunctionPlan Plan = FunctionPlan::build(FA, ProfileMode::Smart);
  unsigned Measured = 0, Complemented = 0;
  for (size_t Id = 0; Id < Plan.resolutions().size(); ++Id) {
    const Resolution &R2 = Plan.resolutions()[Id];
    if (FA.cd().conditions()[Id].Node != CgNode)
      continue;
    Measured += R2.K == Resolution::Kind::Measured;
    Complemented += R2.K == Resolution::Kind::SumComplement ||
                    R2.K == Resolution::Kind::ExitComplement;
  }
  EXPECT_EQ(Measured, 3u);
  EXPECT_EQ(Complemented, 1u);

  // End-to-end: recovery equals the exact oracle.
  CostModel CM = CostModel::optimizing();
  ProgramPlan PPlan = ProgramPlan::build(*PA, ProfileMode::Smart);
  ProfileRuntime Rt(*PA, PPlan, CM);
  ExactProfile Exact(*PA);
  Interpreter Interp(Prog, CM);
  Interp.addObserver(&Rt);
  Interp.addObserver(&Exact);
  ASSERT_TRUE(Interp.run().Ok);
  FrequencyTotals Got = Rt.recover(*Main);
  FrequencyTotals Truth = Exact.totals(*Main);
  ASSERT_TRUE(Got.Ok);
  for (size_t C = 0; C < FA.cd().conditions().size(); ++C)
    EXPECT_NEAR(Got.condTotal(C), Truth.condTotal(C), 1e-9)
        << cfgLabelName(FA.cd().conditions()[C].Label);
}

TEST(DoWhile, ParsesAndRuns) {
  const char *Src = R"(
program main
  integer w, s
  w = 0
  s = 0
  do while (w .lt. 5)
    w = w + 1
    s = s + w
  enddo
  print w, s
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  Interpreter I(*P, CostModel::optimizing());
  RunResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "5 15\n");
}

TEST(DoWhile, NestsWithCountedDo) {
  const char *Src = R"(
program main
  integer i, w, s
  s = 0
  do i = 1, 3
    w = 0
    do while (w .lt. i)
      w = w + 1
      s = s + 1
    enddo
  enddo
  print s
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  Interpreter I(*P, CostModel::optimizing());
  RunResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "6\n");
}

TEST(DoWhile, IsALoopForTheAnalysis) {
  const char *Src = R"(
program main
  integer w
  w = 0
  do while (w .lt. 7)
    w = w + 1
  enddo
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  const Function *Main = P->entry();
  const FunctionAnalysis &FA = Est->analysis().of(*Main);
  ASSERT_EQ(FA.intervals().headers().size(), 1u);
  // Loop frequency: the test executes 8 times (7 iterations + exit).
  FrequencyTotals T = Est->totalsFor(*Main);
  ASSERT_TRUE(T.Ok);
  NodeId Ph = FA.ecfg().preheaderOf(FA.intervals().headers()[0]);
  EXPECT_DOUBLE_EQ(T.condTotal(FA.cd().conditionId({Ph, CfgLabel::U})), 8.0);
}

TEST(DoWhile, MissingEnddoIsDiagnosed) {
  const char *Src = R"(
program main
  do while (1 .lt. 2)
end
)";
  DiagnosticEngine Diags;
  EXPECT_EQ(parseProgram(Src, Diags), nullptr);
  EXPECT_NE(Diags.str().find("DO WHILE without matching ENDDO"),
            std::string::npos)
      << Diags.str();
}

} // namespace
