//===--- tests/interval_test.cpp - Interval structure tests ---------------===//
//
// The paper's HDR / HDR_PARENT / HDR_LCA mappings, loop bodies, entry /
// back / exit edges, exit-free-DO detection, irreducibility rejection and
// node splitting.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "graph/Dominators.h"
#include "interval/Intervals.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// main with a triple-nested DO and a sibling DO:
///   do i ...          (outer)
///     do j ...        (middle)
///       do k ...      (inner)
///   do m ...          (sibling)
struct NestedLoops {
  std::unique_ptr<Program> Prog;
  StmtId Outer, Middle, Inner, Sibling;
};

NestedLoops makeNested() {
  NestedLoops Out;
  Out.Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  FunctionBuilder B(*Out.Prog, "main", Diags);
  VarId A = B.intVar("acc");
  VarId I = B.intVar("i"), J = B.intVar("j"), K = B.intVar("k"),
        M = B.intVar("m");
  Out.Outer = B.doLoop(I, B.lit(1), B.lit(3));
  Out.Middle = B.doLoop(J, B.lit(1), B.lit(3));
  Out.Inner = B.doLoop(K, B.lit(1), B.lit(3));
  B.assign(A, B.add(B.var(A), B.lit(1)));
  B.endDo();
  B.endDo();
  B.endDo();
  Out.Sibling = B.doLoop(M, B.lit(1), B.lit(3));
  B.assign(A, B.add(B.var(A), B.lit(2)));
  B.endDo();
  EXPECT_NE(B.finish(), nullptr) << Diags.str();
  return Out;
}

TEST(Intervals, NestedDoLoops) {
  NestedLoops Fix = makeNested();
  const Function *F = Fix.Prog->findFunction("main");
  Cfg C = buildCfg(*F);
  DiagnosticEngine Diags;
  auto IS = IntervalStructure::compute(C, Diags);
  ASSERT_TRUE(IS.has_value()) << Diags.str();

  NodeId Outer = C.nodeForStmt(Fix.Outer);
  NodeId Middle = C.nodeForStmt(Fix.Middle);
  NodeId Inner = C.nodeForStmt(Fix.Inner);
  NodeId Sibling = C.nodeForStmt(Fix.Sibling);

  ASSERT_EQ(IS->headers().size(), 4u);
  EXPECT_TRUE(IS->isHeader(Outer));
  EXPECT_TRUE(IS->isHeader(Sibling));

  // HDR: a header is in its own interval.
  EXPECT_EQ(IS->hdr(Outer), Outer);
  EXPECT_EQ(IS->hdr(Inner), Inner);
  // The assignment inside the innermost loop maps to the inner header.
  EXPECT_EQ(IS->hdr(C.nodeForStmt(Fix.Inner + 1)), Inner);

  // HDR_PARENT chains and the virtual outermost interval.
  EXPECT_EQ(IS->hdrParent(Inner), Middle);
  EXPECT_EQ(IS->hdrParent(Middle), Outer);
  EXPECT_EQ(IS->hdrParent(Outer), InvalidNode);
  EXPECT_EQ(IS->hdrParent(Sibling), InvalidNode);

  // HDR_LCA.
  EXPECT_EQ(IS->hdrLca(Inner, Middle), Middle);
  EXPECT_EQ(IS->hdrLca(Inner, Inner), Inner);
  EXPECT_EQ(IS->hdrLca(Inner, Sibling), InvalidNode);
  EXPECT_EQ(IS->hdrLca(InvalidNode, Inner), InvalidNode);

  // Depths and containment.
  EXPECT_EQ(IS->loopDepth(Inner), 3u);
  EXPECT_EQ(IS->loopDepth(Sibling), 1u);
  EXPECT_TRUE(IS->contains(Outer, Inner));
  EXPECT_FALSE(IS->contains(Inner, Outer));
  EXPECT_FALSE(IS->contains(Outer, Sibling));

  // Bodies are nested by size.
  EXPECT_GT(IS->loopBody(Outer).size(), IS->loopBody(Middle).size());
  EXPECT_GT(IS->loopBody(Middle).size(), IS->loopBody(Inner).size());

  // Headers are reported outermost-first.
  const std::vector<NodeId> &Hs = IS->headers();
  auto PosOf = [&](NodeId H) {
    return std::find(Hs.begin(), Hs.end(), H) - Hs.begin();
  };
  EXPECT_LT(PosOf(Outer), PosOf(Middle));
  EXPECT_LT(PosOf(Middle), PosOf(Inner));

  // Every loop here is an exit-free DO loop.
  for (NodeId H : Hs)
    EXPECT_TRUE(IS->isExitFreeDoLoop(C, H));

  // Entry and back edges: one each for the inner loop.
  EXPECT_EQ(IS->entryEdges(Inner).size(), 1u);
  EXPECT_EQ(IS->backEdges(Inner).size(), 1u);
  // The only exit edge of the inner loop is its own F branch.
  ASSERT_EQ(IS->exitEdges(Inner).size(), 1u);
  EXPECT_EQ(C.graph().edge(IS->exitEdges(Inner)[0]).From, Inner);
}

TEST(Intervals, LoopWithConditionalExitIsNotExitFree) {
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId A = B.intVar("acc");
  VarId I = B.intVar("i");
  StmtId Loop = B.doLoop(I, B.lit(1), B.lit(10));
  B.ifGoto(B.gt(B.var(A), B.lit(3)), 99); // Premature exit.
  B.assign(A, B.add(B.var(A), B.lit(1)));
  B.endDo();
  B.label(99).cont();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  Cfg C = buildCfg(*Prog.findFunction("main"));
  auto IS = IntervalStructure::compute(C, Diags);
  ASSERT_TRUE(IS.has_value());
  EXPECT_FALSE(IS->isExitFreeDoLoop(C, C.nodeForStmt(Loop)));
  // Two exit edges: the conditional exit and the DO's F branch.
  EXPECT_EQ(IS->exitEdges(C.nodeForStmt(Loop)).size(), 2u);
}

TEST(Intervals, ReturnInsideLoopIsAnExitBranch) {
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId A = B.intVar("acc");
  VarId I = B.intVar("i");
  StmtId Loop = B.doLoop(I, B.lit(1), B.lit(10));
  B.ifGoto(B.gt(B.var(A), B.lit(3)), 50);
  B.gotoLabel(60);
  StmtId Ret = B.label(50).ret();
  B.label(60).cont();
  B.endDo();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  Cfg C = buildCfg(*Prog.findFunction("main"));
  auto IS = IntervalStructure::compute(C, Diags);
  ASSERT_TRUE(IS.has_value());
  NodeId H = C.nodeForStmt(Loop);
  // The RETURN node cannot reach the latch, so it sits *outside* the
  // natural loop body; the loop's premature exit is the IF's T edge
  // leading to it. The DO's F branch falls off the end of the function
  // and is the loop's only procedure-exit branch.
  EXPECT_FALSE(IS->contains(H, C.nodeForStmt(Ret)));
  bool SawExitToReturn = false;
  for (EdgeId E : IS->exitEdges(H))
    SawExitToReturn |= C.graph().edge(E).To == C.nodeForStmt(Ret);
  EXPECT_TRUE(SawExitToReturn);
  ASSERT_EQ(IS->exitBranches(H).size(), 1u);
  EXPECT_EQ(IS->exitBranches(H)[0].Node, H);
  EXPECT_EQ(IS->exitBranches(H)[0].Label, CfgLabel::F);
  EXPECT_FALSE(IS->isExitFreeDoLoop(C, H));
}

TEST(Intervals, GotoLoopIsRecognized) {
  Program Prog;
  DiagnosticEngine Diags;
  FunctionBuilder B(Prog, "main", Diags);
  VarId W = B.intVar("w");
  B.assign(W, B.lit(0));
  StmtId Head = B.label(10).assign(W, B.add(B.var(W), B.lit(1)));
  B.ifGoto(B.le(B.var(W), B.lit(5)), 10);
  ASSERT_NE(B.finish(), nullptr) << Diags.str();

  Cfg C = buildCfg(*Prog.findFunction("main"));
  auto IS = IntervalStructure::compute(C, Diags);
  ASSERT_TRUE(IS.has_value());
  ASSERT_EQ(IS->headers().size(), 1u);
  EXPECT_EQ(IS->headers()[0], C.nodeForStmt(Head));
  EXPECT_FALSE(IS->isExitFreeDoLoop(C, IS->headers()[0]));
}

TEST(Intervals, RejectsIrreducibleGraphs) {
  // Synthetic irreducible CFG: 0 -> 1, 0 -> 2, 1 <-> 2.
  Cfg C;
  for (int I = 0; I < 3; ++I)
    C.createNode(CfgNodeType::Other);
  C.setEntry(0);
  C.addEdge(0, 1, CfgLabel::T);
  C.addEdge(0, 2, CfgLabel::F);
  C.addEdge(1, 2, CfgLabel::U);
  C.addEdge(2, 1, CfgLabel::U);
  C.addExitBranch(1, CfgLabel::U);

  DiagnosticEngine Diags;
  EXPECT_FALSE(IntervalStructure::compute(C, Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("irreducible"), std::string::npos);
}

TEST(NodeSplitting, MakesIrreducibleGraphsReducible) {
  Cfg C;
  for (int I = 0; I < 3; ++I)
    C.createNode(CfgNodeType::Other);
  C.setEntry(0);
  C.addEdge(0, 1, CfgLabel::T);
  C.addEdge(0, 2, CfgLabel::F);
  C.addEdge(1, 2, CfgLabel::U);
  C.addEdge(2, 1, CfgLabel::U);

  DiagnosticEngine Diags;
  unsigned Copies = splitNodes(C, Diags);
  EXPECT_GT(Copies, 0u);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(isReducible(CsrGraph(C.graph()).view(), C.entry()));
  // And the interval structure now computes.
  EXPECT_TRUE(IntervalStructure::compute(C, Diags).has_value())
      << Diags.str();
}

TEST(NodeSplitting, NoOpOnReducibleGraphs) {
  Cfg C;
  for (int I = 0; I < 3; ++I)
    C.createNode(CfgNodeType::Other);
  C.setEntry(0);
  C.addEdge(0, 1, CfgLabel::U);
  C.addEdge(1, 2, CfgLabel::U);
  C.addEdge(2, 1, CfgLabel::U);
  DiagnosticEngine Diags;
  EXPECT_EQ(splitNodes(C, Diags), 0u);
}

TEST(NodeSplitting, RefusesFunctionBackedCfgs) {
  Figure1Program Fix = makeFigure1();
  Cfg C = buildCfg(*Fix.Main);
  DiagnosticEngine Diags;
  splitNodes(C, Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

class RandomProgramIntervals : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramIntervals, StructuralInvariantsHold) {
  std::unique_ptr<Program> Prog =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  DiagnosticEngine Diags;
  for (const auto &F : Prog->functions()) {
    Cfg C = buildCfg(*F);
    elideGotoNodes(C);
    auto IS = IntervalStructure::compute(C, Diags);
    ASSERT_TRUE(IS.has_value()) << Diags.str();
    for (NodeId H : IS->headers()) {
      // Headers belong to their own body; bodies are within parents.
      EXPECT_TRUE(IS->contains(H, H));
      NodeId P = IS->hdrParent(H);
      if (P != InvalidNode)
        for (NodeId N : IS->loopBody(H)) {
          EXPECT_TRUE(IS->contains(P, N));
        }
      // Back edges come from inside, entry edges from outside.
      for (EdgeId E : IS->backEdges(H))
        EXPECT_TRUE(IS->contains(H, C.graph().edge(E).From));
      for (EdgeId E : IS->entryEdges(H))
        EXPECT_FALSE(IS->contains(H, C.graph().edge(E).From));
      for (EdgeId E : IS->exitEdges(H)) {
        EXPECT_TRUE(IS->contains(H, C.graph().edge(E).From));
        EXPECT_FALSE(IS->contains(H, C.graph().edge(E).To));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramIntervals,
                         ::testing::Range<uint64_t>(200, 220));

} // namespace
