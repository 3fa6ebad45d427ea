//===--- tests/consistency_test.cpp - Profile identity checking -----------===//
//
// The Section 3 identities as a validation tool: exact profiles pass on
// every workload and random program; targeted corruptions are detected.
// Also the opt-1 motivating example from the paper: identically control
// dependent statements share one counter.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "parser/Parser.h"
#include "ir/Printer.h"
#include "profile/ConsistencyCheck.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

TEST(ConsistencyCheck, ExactProfilesAreConsistentOnWorkloads) {
  for (const Workload *W : table1Workloads()) {
    std::unique_ptr<Program> P = parseWorkload(*W);
    DiagnosticEngine Diags;
    auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
    ASSERT_NE(Est, nullptr) << Diags.str();
    ASSERT_TRUE(Est->profiledRun(W->MaxSteps).Ok);
    for (const auto &F : P->functions()) {
      std::vector<std::string> Findings = checkFrequencyConsistency(
          Est->analysis().of(*F), Est->totalsFor(*F));
      EXPECT_TRUE(Findings.empty())
          << W->Name << "/" << F->name() << ":\n"
          << join(Findings, "\n");
    }
  }
}

class RandomProgramConsistency : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomProgramConsistency, RecoveredTotalsPass) {
  std::unique_ptr<Program> P =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  for (const auto &F : P->functions()) {
    std::vector<std::string> Findings = checkFrequencyConsistency(
        Est->analysis().of(*F), Est->totalsFor(*F));
    EXPECT_TRUE(Findings.empty()) << join(Findings, "\n");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramConsistency,
                         ::testing::Range<uint64_t>(500, 515));

TEST(ConsistencyCheck, DetectsCorruptedTotals) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  FrequencyTotals Good = Est->totalsFor(*Fix.Main);
  ASSERT_TRUE(checkFrequencyConsistency(FA, Good).empty());

  // Corrupt a branch total: the sum rule at the node must fire.
  {
    FrequencyTotals Bad = Good;
    NodeId B = FA.cfg().nodeForStmt(Fix.B);
    Bad.Cond.at(FA.cd().conditionId({B, CfgLabel::F})) += 3.0;
    Bad.Node = nodeTotalsFromConds(FA, Bad.Cond);
    std::vector<std::string> Findings =
        checkFrequencyConsistency(FA, Bad);
    EXPECT_FALSE(Findings.empty());
  }

  // Nonzero pseudo edge.
  {
    FrequencyTotals Bad = Good;
    const std::vector<ControlCondition> &Conds = FA.cd().conditions();
    for (size_t C = 0; C < Conds.size(); ++C)
      if (Conds[C].Label == CfgLabel::Z) {
        Bad.Cond[C] = 5.0;
        break;
      }
    std::vector<std::string> Findings =
        checkFrequencyConsistency(FA, Bad);
    EXPECT_FALSE(Findings.empty());
  }

  // Loop header executing fewer times than its entries.
  {
    FrequencyTotals Bad = Good;
    NodeId Ph = FA.ecfg().preheaderOf(FA.intervals().headers().at(0));
    Bad.Cond.at(FA.cd().conditionId({Ph, CfgLabel::U})) = 0.25;
    std::vector<std::string> Findings =
        checkFrequencyConsistency(FA, Bad);
    EXPECT_FALSE(Findings.empty());
  }

  // Negative total.
  {
    FrequencyTotals Bad = Good;
    NodeId A = FA.cfg().nodeForStmt(Fix.A);
    Bad.Cond.at(FA.cd().conditionId({A, CfgLabel::T})) = -1.0;
    std::vector<std::string> Findings =
        checkFrequencyConsistency(FA, Bad);
    EXPECT_FALSE(Findings.empty());
  }
}

TEST(ConsistencyCheck, StaleNodeTotalsAreFlagged) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  const FunctionAnalysis &FA = Est->analysis().of(*Fix.Main);
  FrequencyTotals Bad = Est->totalsFor(*Fix.Main);
  NodeId D = FA.cfg().nodeForStmt(Fix.D);
  Bad.Node[D] += 4.0; // Node totals no longer satisfy equation 3.
  EXPECT_FALSE(checkFrequencyConsistency(FA, Bad).empty());
}

TEST(IdenticalControlDependence, OneCounterServesSeveralStatements) {
  // The paper's opt-1 example: I=1 and K=3 are identically control
  // dependent on the C1 condition even though they sit in different
  // basic blocks; one counter tracks both.
  const char *Src = R"(
program main
  integer c1, i, j, k, l
  c1 = 1
  if (c1 .eq. 1) then
    i = 1
    j = 2
    if (j .eq. 2) l = 4
    k = 3
  endif
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
  FrequencyTotals T = Est->totalsFor(*Main);
  Frequencies Freqs = computeFrequencies(FA, T);

  // Find the statements by their printed form.
  auto NodeOf = [&](const std::string &Text) {
    for (StmtId S = 0; S < Main->numStmts(); ++S)
      if (printStmt(*Main, Main->stmt(S)) == Text)
        return FA.cfg().nodeForStmt(S);
    return InvalidNode;
  };
  NodeId I1 = NodeOf("i = 1");
  NodeId K3 = NodeOf("k = 3");
  NodeId J2 = NodeOf("j = 2");
  ASSERT_NE(I1, InvalidNode);
  ASSERT_NE(K3, InvalidNode);

  // Identical frequencies and identical FCDG parents.
  EXPECT_DOUBLE_EQ(Freqs.NodeFreq[I1], Freqs.NodeFreq[K3]);
  EXPECT_DOUBLE_EQ(Freqs.NodeFreq[I1], Freqs.NodeFreq[J2]);
  auto Parents = [&](NodeId N) {
    std::set<std::pair<NodeId, CfgLabel>> Out;
    const FlowArena &A = FA.cd().arena();
    unsigned P = A.position(N);
    for (uint32_t I = A.inBegin(P); I != A.inEnd(P); ++I) {
      const ControlCondition &C =
          FA.cd().conditions()[A.group(A.inGroup(I)).Cond];
      Out.insert({C.Node, C.Label});
    }
    return Out;
  };
  EXPECT_EQ(Parents(I1), Parents(K3));

  // The smart plan spends at most one counter on that whole region: the
  // number of counters is far below the statement count.
  EXPECT_LE(Est->plan().of(*Main).numCounters(), 4u);
}

} // namespace
