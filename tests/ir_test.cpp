//===--- tests/ir_test.cpp - MiniIR construction and verification ---------===//

#include "cfg/Cfg.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace ptran;

namespace {

TEST(Casting, IsaCastDynCast) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  Expr *I = B.lit(int64_t(4));
  Expr *R = B.lit(2.5);
  EXPECT_TRUE(isa<IntLiteral>(I));
  EXPECT_FALSE(isa<IntLiteral>(R));
  EXPECT_EQ(cast<IntLiteral>(I)->value(), 4);
  EXPECT_EQ(dyn_cast<RealLiteral>(I), nullptr);
  EXPECT_NE(dyn_cast<RealLiteral>(R), nullptr);
}

TEST(Builder, BuildsAndFinalizes) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId N = B.intVar("n");
  VarId X = B.realArray("x", {4});
  B.assign(N, B.lit(4));
  VarId I = B.intVar("i");
  B.doLoop(I, B.lit(1), B.var(N));
  B.assignElem(X, B.var(I), B.mul(B.lit(2.0), B.var(I)));
  B.endDo();
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();
  EXPECT_TRUE(F->isFinalized());
  EXPECT_TRUE(verifyProgram(P, Diags)) << Diags.str();
}

TEST(Program, FindsFunctionsByAnySpelling) {
  Program P;
  DiagnosticEngine Diags;
  Function *Main = P.createFunction("Main", Diags);
  Function *Sub = P.createFunction("sub_TWO", Diags);
  ASSERT_NE(Main, nullptr);
  ASSERT_NE(Sub, nullptr);
  EXPECT_EQ(P.findFunction("main"), Main);
  EXPECT_EQ(P.findFunction("MAIN"), Main);
  EXPECT_EQ(P.findFunction("SUB_two"), Sub);
  EXPECT_EQ(P.findFunction("sub_two"), Sub);
  EXPECT_EQ(P.findFunction("sub"), nullptr);
  EXPECT_EQ(P.findFunction(""), nullptr);
  EXPECT_EQ(Main->index(), 0u);
  EXPECT_EQ(Sub->index(), 1u);
  EXPECT_EQ(P.entry(), Main); // The entry name "main", any spelling.
  // A name that differs only in case is a duplicate.
  EXPECT_EQ(P.createFunction("MAIN", Diags), nullptr);
  EXPECT_NE(Diags.str().find("duplicate procedure name MAIN"),
            std::string::npos)
      << Diags.str();
  EXPECT_EQ(P.functions().size(), 2u);
}

TEST(Builder, ReportsDanglingLabel) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  B.cont();
  B.label(10);
  EXPECT_EQ(B.finish(), nullptr);
  EXPECT_NE(Diags.str().find("dangling label"), std::string::npos);
}

TEST(Builder, ReportsDuplicateVariables) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  B.intVar("x");
  B.realVar("x");
  B.cont();
  B.finish();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(DoStmtTripCount, ConstantAndNonConstant) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId I = B.intVar("i");
  VarId N = B.intVar("n");
  StmtId ConstLoop = B.doLoop(I, B.lit(1), B.lit(10));
  B.endDo();
  StmtId SteppedLoop = B.doLoop(I, B.lit(1), B.lit(10), B.lit(3));
  B.endDo();
  StmtId EmptyLoop = B.doLoop(I, B.lit(5), B.lit(1));
  B.endDo();
  StmtId DynLoop = B.doLoop(I, B.lit(1), B.var(N));
  B.endDo();
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();

  int64_t Trip = -1;
  EXPECT_TRUE(cast<DoStmt>(F->stmt(ConstLoop))->constantTripCount(Trip));
  EXPECT_EQ(Trip, 10);
  EXPECT_TRUE(cast<DoStmt>(F->stmt(SteppedLoop))->constantTripCount(Trip));
  EXPECT_EQ(Trip, 4); // 1, 4, 7, 10.
  EXPECT_TRUE(cast<DoStmt>(F->stmt(EmptyLoop))->constantTripCount(Trip));
  EXPECT_EQ(Trip, 0);
  EXPECT_FALSE(cast<DoStmt>(F->stmt(DynLoop))->constantTripCount(Trip));
}

TEST(Verifier, TypeAnnotationsAndPromotion) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId X = B.realVar("x");
  VarId N = B.intVar("n");
  Expr *Mixed = B.add(B.var(N), B.lit(1.5));
  B.assign(X, Mixed);
  Expr *Cmp = B.lt(B.var(N), B.lit(3));
  B.ifGoto(Cmp, 10);
  B.label(10).cont();
  ASSERT_NE(B.finish(), nullptr) << Diags.str();
  ASSERT_TRUE(verifyProgram(P, Diags)) << Diags.str();
  EXPECT_EQ(Mixed->type(), Type::Real);
  EXPECT_EQ(Cmp->type(), Type::Logical);
}

void expectVerifyError(void (*Build)(FunctionBuilder &),
                       std::string_view Needle) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  Build(B);
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();
  EXPECT_FALSE(verifyProgram(P, Diags));
  EXPECT_NE(Diags.str().find(Needle), std::string::npos)
      << "diagnostics:\n"
      << Diags.str();
}

TEST(Verifier, RejectsArrayUsedAsScalar) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        VarId A = B.realArray("a", {4});
        VarId X = B.realVar("x");
        B.assign(X, B.var(A));
      },
      "used without subscripts");
}

TEST(Verifier, RejectsScalarSubscripts) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        VarId X = B.realVar("x");
        B.assign(X, B.idx(X, B.lit(1)));
      },
      "used with subscripts");
}

TEST(Verifier, RejectsWrongSubscriptCount) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        VarId A = B.realArray("a", {4, 4});
        VarId X = B.realVar("x");
        B.assign(X, B.idx(A, B.lit(1)));
      },
      "expects 2 subscripts");
}

TEST(Verifier, RejectsLogicalAssignment) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        VarId X = B.intVar("x");
        B.assign(X, B.lt(B.lit(1), B.lit(2)));
      },
      "logical");
}

TEST(Verifier, RejectsNonLogicalIfCondition) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        B.ifGoto(B.add(B.lit(1), B.lit(2)), 10);
        B.label(10).cont();
      },
      "IF condition must be logical");
}

TEST(Verifier, RejectsRealDoIndex) {
  expectVerifyError(
      [](FunctionBuilder &B) {
        VarId X = B.realVar("x");
        B.doLoop(X, B.lit(1), B.lit(3));
        B.endDo();
      },
      "must be an integer scalar");
}

TEST(Verifier, RejectsCallToUndefined) {
  expectVerifyError([](FunctionBuilder &B) { B.callSub("nosuch", {}); },
                    "undefined procedure");
}

TEST(Verifier, RejectsScalarForArrayParameter) {
  Program P;
  DiagnosticEngine Diags;
  {
    FunctionBuilder B(P, "callee", Diags);
    B.realArrayParam("a", {4});
    B.ret();
    ASSERT_NE(B.finish(), nullptr);
  }
  {
    FunctionBuilder B(P, "main", Diags);
    VarId X = B.realVar("x");
    B.callSub("callee", {B.var(X)});
    ASSERT_NE(B.finish(), nullptr);
  }
  EXPECT_FALSE(verifyProgram(P, Diags));
  EXPECT_NE(Diags.str().find("whole array"), std::string::npos);
}

TEST(Verifier, RejectsMissingEntry) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "helper", Diags);
  B.ret();
  ASSERT_NE(B.finish(), nullptr);
  EXPECT_FALSE(verifyProgram(P, Diags));
  EXPECT_NE(Diags.str().find("no entry procedure"), std::string::npos);
}

TEST(Printer, RendersStatements) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId N = B.intVar("n");
  VarId A = B.realArray("a", {8});
  B.label(5).assign(N, B.lit(8));
  B.ifGoto(B.logicalAnd(B.ge(B.var(N), B.lit(0)),
                        B.lt(B.var(N), B.lit(9))),
           5);
  B.assignElem(A, B.var(N), B.intrinsic(Intrinsic::Sqrt, {B.lit(2.0)}));
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();

  EXPECT_EQ(printStmt(*F, F->stmt(0)), "n = 8");
  EXPECT_EQ(printStmt(*F, F->stmt(1)),
            "IF (n .GE. 0 .AND. n .LT. 9) GOTO 5");
  EXPECT_EQ(printStmt(*F, F->stmt(2)), "a(n) = SQRT(2.0)");
  std::string Fn = printFunction(*F);
  EXPECT_NE(Fn.find("5 n = 8"), std::string::npos);
  EXPECT_NE(Fn.find("real a(8)"), std::string::npos);
}

TEST(Printer, ParenthesizesByPrecedence) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId X = B.realVar("x");
  // (1 + 2) * 3 needs parens; 1 + 2 * 3 does not.
  B.assign(X, B.mul(B.add(B.lit(1.0), B.lit(2.0)), B.lit(3.0)));
  B.assign(X, B.add(B.lit(1.0), B.mul(B.lit(2.0), B.lit(3.0))));
  // 1 - (2 - 3): right operand of left-associative minus needs parens.
  B.assign(X, B.sub(B.lit(1.0), B.sub(B.lit(2.0), B.lit(3.0))));
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();
  EXPECT_EQ(printStmt(*F, F->stmt(0)), "x = (1.0 + 2.0) * 3.0");
  EXPECT_EQ(printStmt(*F, F->stmt(1)), "x = 1.0 + 2.0 * 3.0");
  EXPECT_EQ(printStmt(*F, F->stmt(2)), "x = 1.0 - (2.0 - 3.0)");
}

TEST(CfgBuild, EdgesFollowStatementSemantics) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId N = B.intVar("n");
  StmtId S0 = B.assign(N, B.lit(0));
  StmtId If = B.ifGoto(B.lt(B.var(N), B.lit(3)), 20);
  StmtId Ret = B.ret();
  StmtId Cont = B.label(20).cont();
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();

  Cfg C = buildCfg(*F);
  EXPECT_EQ(C.entry(), C.nodeForStmt(S0));
  EXPECT_NE(C.graph().findEdge(C.nodeForStmt(If), C.nodeForStmt(Cont),
                               static_cast<LabelId>(CfgLabel::T)),
            InvalidEdge);
  EXPECT_NE(C.graph().findEdge(C.nodeForStmt(If), C.nodeForStmt(Ret),
                               static_cast<LabelId>(CfgLabel::F)),
            InvalidEdge);
  // RETURN and the trailing CONTINUE are both procedure exits.
  EXPECT_EQ(C.exitBranches().size(), 2u);
}

TEST(CfgBuild, GotoElisionRedirectsEdges) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  VarId N = B.intVar("n");
  B.assign(N, B.lit(0));
  StmtId Jump = B.gotoLabel(30);
  B.label(20).cont();
  StmtId Target = B.label(30).assign(N, B.lit(1));
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();

  Cfg C = buildCfg(*F);
  const Cfg Before = C;
  unsigned Elided = elideGotoNodes(C);
  EXPECT_EQ(Elided, 1u);
  NodeId GotoNode = C.nodeForStmt(Jump);
  EXPECT_EQ(C.graph().outDegree(GotoNode), 0u);
  EXPECT_EQ(C.graph().inDegree(GotoNode), 0u);
  // The assignment now flows straight to the target.
  EXPECT_NE(C.graph().findEdge(0, C.nodeForStmt(Target),
                               static_cast<LabelId>(CfgLabel::U)),
            InvalidEdge);

  // Statement ids are stable across elision (run-time loop tracking keys
  // on them): every node keeps its origin, and the nodes left detached
  // are exactly the elided GOTO statements.
  ASSERT_EQ(C.numNodes(), Before.numNodes());
  for (NodeId N = 0; N < C.numNodes(); ++N) {
    EXPECT_EQ(C.origin(N), Before.origin(N)) << "node " << N;
    StmtId S = C.origin(N);
    bool IsGoto = S != InvalidStmt && isa<GotoStmt>(F->stmt(S));
    bool Detached =
        C.graph().inDegree(N) == 0 && C.graph().outDegree(N) == 0;
    EXPECT_EQ(Detached, IsGoto) << "node " << N;
  }
}

TEST(CfgBuild, SelfLoopGotoIsKept) {
  Program P;
  DiagnosticEngine Diags;
  FunctionBuilder B(P, "main", Diags);
  B.label(10).gotoLabel(10);
  Function *F = B.finish();
  ASSERT_NE(F, nullptr) << Diags.str();
  Cfg C = buildCfg(*F);
  EXPECT_EQ(elideGotoNodes(C), 0u);
}

} // namespace
