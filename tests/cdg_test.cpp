//===--- tests/cdg_test.cpp - Control dependence tests --------------------===//
//
// Validates the Ferrante-Ottenstein-Warren computation against a literal
// brute-force implementation of Definition 2 (on the forward ECFG), and
// checks the FCDG's structural guarantees: acyclic, rooted at START,
// interval nesting under preheaders.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "TestPrograms.h"

#include "core/Analysis.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// Collects the FCDG edge set of \p FA as (From, To, Label) triples.
std::set<std::tuple<NodeId, NodeId, LabelId>>
fcdgEdges(const FunctionAnalysis &FA) {
  std::set<std::tuple<NodeId, NodeId, LabelId>> Out;
  const FlowArena &A = FA.cd().arena();
  for (unsigned P = 0; P < A.numPositions(); ++P)
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R)
      Out.insert({A.node(P), A.raw(R).To,
                  static_cast<LabelId>(A.group(A.raw(R).Group).Label)});
  return Out;
}

void expectMatchesDefinition2(const FunctionAnalysis &FA,
                              const std::string &Context) {
  std::set<std::tuple<NodeId, NodeId, LabelId>> Got = fcdgEdges(FA);
  std::set<std::tuple<NodeId, NodeId, LabelId>> Truth =
      bruteForceControlDependence(
          buildForwardGraph(FA.ecfg(), FA.intervals()), FA.ecfg().stop());

  for (const auto &[X, Y, L] : Truth)
    EXPECT_TRUE(Got.count({X, Y, L}))
        << Context << ": missing CD (" << FA.ecfg().cfg().nodeName(X) << ", "
        << FA.ecfg().cfg().nodeName(Y) << ", "
        << cfgLabelName(static_cast<CfgLabel>(L)) << ")";
  for (const auto &[X, Y, L] : Got)
    EXPECT_TRUE(Truth.count({X, Y, L}))
        << Context << ": spurious CD (" << FA.ecfg().cfg().nodeName(X)
        << ", " << FA.ecfg().cfg().nodeName(Y) << ", "
        << cfgLabelName(static_cast<CfgLabel>(L)) << ")";
}

TEST(ControlDependenceTest, MatchesDefinition2OnFigure1) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto FA = FunctionAnalysis::compute(*Fix.Main, Diags);
  ASSERT_NE(FA, nullptr) << Diags.str();
  expectMatchesDefinition2(*FA, "figure1");
}

class RandomProgramCd : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramCd, MatchesDefinition2) {
  std::unique_ptr<Program> Prog =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  for (const auto &F : Prog->functions())
    expectMatchesDefinition2(PA->of(*F), F->name());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCd,
                         ::testing::Range<uint64_t>(400, 425));

TEST(ControlDependenceTest, FcdgIsRootedAndAcyclicOnWorkloads) {
  for (const Workload *W : table1Workloads()) {
    std::unique_ptr<Program> Prog = parseWorkload(*W);
    DiagnosticEngine Diags;
    auto PA = ProgramAnalysis::compute(*Prog, Diags);
    ASSERT_NE(PA, nullptr) << Diags.str();
    for (const auto &F : Prog->functions()) {
      const FunctionAnalysis &FA = PA->of(*F);
      // Acyclic and rooted: every edge goes forward in the topological
      // order and every node but START has an in-edge. The in-edge CSR
      // lists exactly the out-edges into each node.
      const FlowArena &A = FA.cd().arena();
      std::vector<std::multiset<uint32_t>> In(A.numPositions()),
          Out(A.numPositions());
      for (unsigned P = 0; P < A.numPositions(); ++P) {
        for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
          EXPECT_GT(A.position(A.raw(R).To), P)
              << W->Name << "/" << F->name() << " edge into "
              << FA.ecfg().cfg().nodeName(A.raw(R).To);
          Out[A.position(A.raw(R).To)].insert(A.raw(R).Group);
        }
        for (uint32_t I = A.inBegin(P); I != A.inEnd(P); ++I)
          In[P].insert(A.inGroup(I));
        if (P != 0) {
          EXPECT_FALSE(In[P].empty())
              << W->Name << "/" << F->name() << " node "
              << FA.ecfg().cfg().nodeName(A.node(P)) << " has no in-edge";
        }
      }
      EXPECT_EQ(In, Out) << W->Name << "/" << F->name();
      // START comes first.
      ASSERT_FALSE(FA.cd().topoOrder().empty());
      EXPECT_EQ(FA.cd().topoOrder().front(), FA.ecfg().start());
    }
  }
}

TEST(ControlDependenceTest, IntervalsNestUnderPreheaders) {
  // Every node of a loop body must be directly or indirectly control
  // dependent on the loop's preheader (the property the pseudo edges were
  // introduced for).
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto FA = FunctionAnalysis::compute(*Fix.Main, Diags);
  ASSERT_NE(FA, nullptr) << Diags.str();

  ASSERT_EQ(FA->intervals().headers().size(), 1u);
  NodeId H = FA->intervals().headers()[0];
  NodeId Ph = FA->ecfg().preheaderOf(H);

  // BFS in the FCDG from the preheader.
  const FlowArena &A = FA->cd().arena();
  std::vector<bool> Reach(A.numNodes(), false);
  std::vector<NodeId> Worklist = {Ph};
  Reach[Ph] = true;
  while (!Worklist.empty()) {
    unsigned P = A.position(Worklist.back());
    Worklist.pop_back();
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
      NodeId S = A.raw(R).To;
      if (!Reach[S]) {
        Reach[S] = true;
        Worklist.push_back(S);
      }
    }
  }
  for (NodeId N : FA->intervals().loopBody(H))
    EXPECT_TRUE(Reach[N]) << FA->ecfg().cfg().nodeName(N);
}

TEST(ControlDependenceTest, ConditionsOnlyAtBranchPoints) {
  std::unique_ptr<Program> Prog = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  for (const auto &F : Prog->functions()) {
    const FunctionAnalysis &FA = PA->of(*F);
    for (const ControlCondition &C : FA.cd().conditions()) {
      const Cfg &E = FA.ecfg().cfg();
      CfgNodeType Ty = E.nodeType(C.Node);
      bool IsBranchStmt = false;
      if (E.origin(C.Node) != InvalidStmt) {
        StmtKind K = F->stmt(E.origin(C.Node))->kind();
        IsBranchStmt = K == StmtKind::IfGoto || K == StmtKind::DoStart;
      }
      EXPECT_TRUE(Ty == CfgNodeType::Start || Ty == CfgNodeType::Preheader ||
                  Ty == CfgNodeType::Iterate || IsBranchStmt)
          << F->name() << ": condition at " << E.nodeName(C.Node);
    }
  }
}

} // namespace
