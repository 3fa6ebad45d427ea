//===--- tests/csr_test.cpp - CSR kernels and the GraphView API -----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the flat graph layer introduced with the GraphView redesign:
//
//   - CsrGraph reproduces a Digraph's adjacency (both directions) in
//     insertion order with stable EdgeIds, and GraphView::reversed() is an
//     exact role swap;
//   - the CSR TIME/VAR sweep agrees with an independent absorbing-Markov-
//     chain oracle (tests/Reference.h) built from interpreter transition
//     counts: TIME on every executed function of the Figure 1 program,
//     random reducible programs and the many-function workload, TIME and
//     VAR on loop-free functions, and a pinned Case-1 divergence on
//     Figure 1 — at one and many jobs;
//   - run() and rerun(), which read the call structure ProgramAnalysis
//     compiled once, agree bit for bit (estimates, recursion flag and
//     sorted unresolved-callee warnings) with a reference pass that builds
//     the call graph, its SCCs and its callee tables on every run.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "freq/StaticFrequencies.h"
#include "graph/DepthFirst.h"
#include "graph/Dominators.h"
#include "graph/Scc.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "support/Casting.h"
#include "support/FatalError.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

using namespace ptran;
using namespace ptran::testing;

namespace {

//===----------------------------------------------------------------------===//
// CSR structure: adjacency, order, EdgeIds, reversal
//===----------------------------------------------------------------------===//

Digraph randomDigraph(Rng &R, unsigned N, double P) {
  Digraph G(N);
  for (NodeId U = 0; U < N; ++U)
    for (NodeId V = 0; V < N; ++V)
      if (R.bernoulli(P))
        G.addEdge(U, V, static_cast<LabelId>(R.uniformInt(0, 2)));
  return G;
}

/// Succ/pred runs of \p View must list exactly \p G's live edges in
/// insertion order, with the original labels and EdgeIds.
void expectMirrorsDigraph(const Digraph &G, const GraphView &View) {
  ASSERT_EQ(View.numNodes(), G.numNodes());
  ASSERT_EQ(View.numEdgeSlots(), G.numEdgeSlots());
  ASSERT_EQ(View.numEdges(), G.numEdges());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    std::vector<EdgeId> Out = G.outEdges(N);
    GraphView::Range Succs = View.succs(N);
    ASSERT_EQ(Succs.size(), Out.size()) << "node " << N;
    for (size_t I = 0; I < Out.size(); ++I) {
      const Digraph::Edge &E = G.edge(Out[I]);
      EXPECT_EQ(Succs[I].Edge, Out[I]);
      EXPECT_EQ(Succs[I].Node, E.To);
      EXPECT_EQ(Succs[I].Label, E.Label);
    }
    std::vector<EdgeId> In = G.inEdges(N);
    GraphView::Range Preds = View.preds(N);
    ASSERT_EQ(Preds.size(), In.size()) << "node " << N;
    for (size_t I = 0; I < In.size(); ++I) {
      const Digraph::Edge &E = G.edge(In[I]);
      EXPECT_EQ(Preds[I].Edge, In[I]);
      EXPECT_EQ(Preds[I].Node, E.From); // preds carry the source node
      EXPECT_EQ(Preds[I].Label, E.Label);
    }
    EXPECT_EQ(View.outDegree(N), G.outDegree(N));
    EXPECT_EQ(View.inDegree(N), G.inDegree(N));
  }
}

TEST(CsrGraph, MirrorsDigraphAdjacencyOrderAndEdgeIds) {
  Rng R(7);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Digraph G = randomDigraph(R, 1 + Trial % 12, 0.3);
    CsrGraph Csr(G);
    expectMirrorsDigraph(G, Csr.view());
  }
}

TEST(CsrGraph, ErasedEdgesAreDroppedButKeepTheirSlots) {
  Digraph G(3);
  EdgeId AB = G.addEdge(0, 1, 0);
  EdgeId AC = G.addEdge(0, 2, 1);
  EdgeId BC = G.addEdge(1, 2, 0);
  G.eraseEdge(AC);
  CsrGraph Csr(G);
  const GraphView View = Csr.view();
  // The erased edge vanishes from adjacency but its id slot survives, so
  // EdgeId-indexed side tables stay correctly sized.
  EXPECT_EQ(View.numEdges(), 2u);
  EXPECT_EQ(View.numEdgeSlots(), 3u);
  ASSERT_EQ(View.succs(0).size(), 1u);
  EXPECT_EQ(View.succs(0)[0].Edge, AB);
  ASSERT_EQ(View.preds(2).size(), 1u);
  EXPECT_EQ(View.preds(2)[0].Edge, BC);
  expectMirrorsDigraph(G, View);
}

TEST(GraphView, ReversedSwapsRolesAndPreservesEdgeIds) {
  Rng R(11);
  Digraph G = randomDigraph(R, 9, 0.3);
  CsrGraph Csr(G);
  const GraphView Fwd = Csr.view();
  const GraphView Rev = Fwd.reversed();
  ASSERT_EQ(Rev.numNodes(), Fwd.numNodes());
  ASSERT_EQ(Rev.numEdges(), Fwd.numEdges());
  for (NodeId N = 0; N < Fwd.numNodes(); ++N) {
    GraphView::Range A = Fwd.succs(N);
    GraphView::Range B = Rev.preds(N);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Edge, B[I].Edge);
      EXPECT_EQ(A[I].Node, B[I].Node);
    }
    // Double reversal is the identity.
    GraphView::Range C = Rev.reversed().succs(N);
    ASSERT_EQ(C.size(), A.size());
    for (size_t I = 0; I < A.size(); ++I)
      EXPECT_EQ(C[I].Edge, A[I].Edge);
  }
}

TEST(GraphView, EmptyAndIsolatedGraphs) {
  Digraph Empty;
  CsrGraph CsrEmpty(Empty);
  EXPECT_EQ(CsrEmpty.view().numNodes(), 0u);
  EXPECT_EQ(CsrEmpty.view().numEdges(), 0u);

  Digraph Isolated(4); // nodes, no edges
  CsrGraph CsrIso(Isolated);
  for (NodeId N = 0; N < 4; ++N) {
    EXPECT_TRUE(CsrIso.view().succs(N).empty());
    EXPECT_TRUE(CsrIso.view().preds(N).empty());
  }
}

//===----------------------------------------------------------------------===//
// MarkovOracle: the TIME/VAR sweep against an absorbing-chain model
//===----------------------------------------------------------------------===//

/// Relative agreement: |A - B| <= Tol * max(|A|, |B|).
void expectRelNear(double A, double B, double Tol, const std::string &What) {
  EXPECT_LE(std::fabs(A - B), Tol * std::max(std::fabs(A), std::fabs(B)))
      << What << ": sweep " << A << " vs chain " << B;
}

/// The chain oracle's moments for one interpreter run of \p Prog.
std::map<const Function *, ChainMoments>
chainMoments(const Program &Prog, const StmtCostOverride &Override = {}) {
  ChainObserver Observed;
  Interpreter Interp(Prog, CostModel::optimizing());
  Interp.addObserver(&Observed);
  EXPECT_TRUE(Interp.run().Ok);
  return markovMoments(Prog, Observed, CostModel::optimizing(), Override);
}

/// TIME/VAR of every function from the profiled pipeline's sweep over
/// \p Prog at \p Jobs workers.
std::map<const Function *, FunctionSummary>
sweepAt(const Program &Prog, unsigned Jobs,
        TimeAnalysisOptions Opts = TimeAnalysisOptions()) {
  DiagnosticEngine Diags;
  auto Est = Estimator::create(Prog, CostModel::optimizing(),
                               EstimatorOptions(Diags).jobs(Jobs));
  if (!Est)
    reportFatalError("estimator creation failed:\n" + Diags.str());
  EXPECT_TRUE(Est->profiledRun().Ok);
  TimeAnalysis TA = Est->analyze(Opts);
  std::map<const Function *, FunctionSummary> Out;
  for (const auto &F : Prog.functions())
    Out[F.get()] = {TA.functionTime(*F), TA.functionVariance(*F)};
  return Out;
}

/// TIME of every executed function must match the chain's mean; with
/// profiled frequencies both equal the observed cost per activation.
void expectTimesAgree(const Program &Prog) {
  std::map<const Function *, ChainMoments> Chain = chainMoments(Prog);
  ASSERT_FALSE(Chain.empty());
  for (unsigned Jobs : {1u, 4u}) {
    std::map<const Function *, FunctionSummary> Sweep = sweepAt(Prog, Jobs);
    for (const auto &[F, M] : Chain)
      expectRelNear(Sweep[F].Time, M.Time, 1e-9,
                    "TIME of " + F->name() + " at jobs " +
                        std::to_string(Jobs));
  }
}

TEST(MarkovOracle, Figure1TimeAgrees) {
  Figure1Program Fix = makeFigure1();
  expectTimesAgree(*Fix.Prog);
}

class MarkovOracleRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarkovOracleRandom, RandomProgramTimesAgree) {
  std::unique_ptr<Program> Prog =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  ASSERT_NE(Prog, nullptr);
  expectTimesAgree(*Prog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkovOracleRandom,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(MarkovOracle, ManyFunctionWorkloadTimesAgree) {
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(31, 2);
  expectTimesAgree(*Prog);
}

TEST(MarkovOracle, LoopFreeFunctionsAgreeOnTimeAndVariance) {
  // Without loops every statement runs at most once per activation, and
  // the paper's Case 2 (each branch an independent FREQ-weighted draw)
  // is exactly the chain's model, so VAR must agree as well. An
  // in-program LCG drives 240 activations of each callee; nest() calls
  // the branch-only leaf() on one path, pick() is a computed GOTO.
  const char *Src = R"(
program main
  integer i, seed, r
  seed = 7
  do 10 i = 1, 240
    seed = mod(seed * 1103 + 7919, 100003)
    r = mod(seed, 100)
    call nest(r)
    call pick(r)
10 continue
end

subroutine nest(r)
  integer r, x
  x = 0
  if (r .lt. 30) goto 20
  x = x + 1
  if (r .lt. 70) goto 30
  x = x + 2
  call leaf(r)
  goto 40
30 x = x + 3
  x = x * 2
  goto 40
20 if (mod(r, 2) .eq. 0) goto 25
  x = x - 1
25 x = x + 5
40 x = x + 1
end

subroutine leaf(r)
  integer r, y
  y = r
  if (mod(r, 3) .eq. 0) goto 50
  y = y + 1
  if (mod(r, 5) .eq. 0) goto 50
  y = y * 3
50 y = y - 2
end

subroutine pick(r)
  integer r, k, z
  k = mod(r, 4)
  goto (10, 20, 30), k
  z = 0
  goto 40
10 z = 1
  goto 40
20 z = 2
  z = z + 1
  goto 40
30 z = 3
40 z = z + k
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseProgram(Src, Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  std::map<const Function *, ChainMoments> Chain = chainMoments(*Prog);
  for (unsigned Jobs : {1u, 4u}) {
    std::map<const Function *, FunctionSummary> Sweep = sweepAt(*Prog, Jobs);
    for (const char *Name : {"nest", "leaf", "pick"}) {
      const Function *F = Prog->findFunction(Name);
      ASSERT_TRUE(F && Chain.count(F)) << Name;
      ASSERT_GT(Chain[F].Var, 0.0) << Name;
      expectRelNear(Sweep[F].Time, Chain[F].Time, 1e-9,
                    std::string("TIME of ") + Name);
      expectRelNear(Sweep[F].Var, Chain[F].Var, 1e-9,
                    std::string("VAR of ") + Name);
    }
  }
}

TEST(MarkovOracle, Figure1LoopVarianceDiffersByDesign) {
  // Case 1 is where the models part. The chain draws the loop's exit
  // test afresh on every iteration, so the trip count is geometric and
  // coupled to the body's draws; the paper's product-variance rule takes
  // FREQ and the body time as independent, with VAR(FREQ) from the
  // configured model. The means agree; the variances do not.
  Figure1Program Fix = makeFigure1();
  TimeAnalysisOptions Opts = figure3CostOptions();
  std::map<const Function *, ChainMoments> Chain =
      chainMoments(*Fix.Prog, Opts.LocalCostOverride);
  ASSERT_TRUE(Chain.count(Fix.Main));
  EXPECT_NEAR(Chain[Fix.Main].Time, 920.0, 920.0 * 1e-12);
  EXPECT_NEAR(Chain[Fix.Main].Var, 936360.0, 936360.0 * 1e-12);

  for (unsigned Jobs : {1u, 4u}) {
    FunctionSummary Paper = sweepAt(*Fix.Prog, Jobs, Opts)[Fix.Main];
    EXPECT_DOUBLE_EQ(Paper.Time, 920.0);
    EXPECT_DOUBLE_EQ(Paper.Var, 90000.0); // STD_DEV 300, as in Figure 3.
    TimeAnalysisOptions GeoOpts = Opts;
    GeoOpts.LoopVariance = LoopVarianceMode::Geometric;
    FunctionSummary Geo = sweepAt(*Fix.Prog, Jobs, GeoOpts)[Fix.Main];
    EXPECT_DOUBLE_EQ(Geo.Time, 920.0);
    EXPECT_DOUBLE_EQ(Geo.Var, 932760.0);
  }
}

//===----------------------------------------------------------------------===//
// The compiled call structure against a per-run call graph
//===----------------------------------------------------------------------===//

/// Static frequencies of every analyzed function, with undecidable
/// branches taken with probability \p Taken.
std::map<const Function *, Frequencies> staticFreqsOf(const ProgramAnalysis &PA,
                                                      double Taken) {
  StaticFrequencyOptions SOpts;
  SOpts.DefaultBranchTaken = Taken;
  std::map<const Function *, Frequencies> Out;
  for (const Function *F : PA.analyzed())
    Out[F] = computeStaticFrequencies(PA.of(*F), SOpts).Freqs;
  return Out;
}

std::vector<std::string> sortedWarnings(const DiagnosticEngine &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Severity == DiagSeverity::Warning)
      Out.push_back(D.Message);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// \p TA (whose warnings went to \p Diags) must equal the reference pass
/// on the same inputs bit for bit; \p Changed is what a rerun was told.
void expectMatchesReference(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &Freqs,
    const TimeAnalysisOptions &Opts, const TimeAnalysis &TA,
    const DiagnosticEngine &Diags, const std::string &What,
    const std::vector<const Function *> *Changed = nullptr) {
  ReferenceTimes Ref = referenceTimeAnalysis(
      PA, Freqs, CostModel::optimizing(), Opts, Changed);
  EXPECT_EQ(TA.hasRecursion(), Ref.Recursive) << What;
  EXPECT_EQ(sortedWarnings(Diags), Ref.Warnings) << What;
  ASSERT_EQ(Ref.PerFunction.size(), PA.analyzed().size()) << What;
  for (const Function *F : PA.analyzed()) {
    const std::vector<NodeEstimates> &Got = TA.estimatesOf(*F);
    const std::vector<NodeEstimates> &Want = Ref.PerFunction.at(F);
    ASSERT_EQ(Got.size(), Want.size()) << What << ": " << F->name();
    EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                          Got.size() * sizeof(NodeEstimates)),
              0)
        << What << ": estimates of " << F->name() << " differ";
  }
}

/// A cold run, then one incremental rerun per analyzed function (its
/// frequencies switched to another branch default), each checked against
/// the reference on that step's inputs.
void expectRunsMatchReference(const ProgramAnalysis &PA) {
  TimeAnalysisOptions Opts;
  Opts.LoopVariance = LoopVarianceMode::Geometric;
  std::map<const Function *, Frequencies> Freqs = staticFreqsOf(PA, 0.5);
  DiagnosticEngine ColdDiags;
  Opts.Diags = &ColdDiags;
  TimeAnalysis Prev =
      TimeAnalysis::run(PA, Freqs, CostModel::optimizing(), Opts);
  expectMatchesReference(PA, Freqs, Opts, Prev, ColdDiags, "run");

  std::map<const Function *, Frequencies> Other = staticFreqsOf(PA, 0.3);
  for (const Function *F : PA.analyzed()) {
    Freqs[F] = Other[F];
    DiagnosticEngine Diags;
    Opts.Diags = &Diags;
    const std::vector<const Function *> Changed = {F};
    TimeAnalysis Next = TimeAnalysis::rerun(
        PA, Freqs, CostModel::optimizing(), Opts, Prev, Changed);
    expectMatchesReference(PA, Freqs, Opts, Next, Diags,
                           "rerun after " + F->name() + " changed",
                           &Changed);
    Prev = std::move(Next);
  }
}

std::unique_ptr<ProgramAnalysis> analyzeSource(const char *Src,
                                               DiagnosticEngine &Diags,
                                               std::unique_ptr<Program> &Prog) {
  Prog = parseProgram(Src, Diags);
  if (!Prog)
    reportFatalError("test program does not parse:\n" + Diags.str());
  return ProgramAnalysis::compute(*Prog, Diags);
}

class CallStructureOracleRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CallStructureOracleRandom, RandomProgramsMatchThePerRunCallGraph) {
  std::unique_ptr<Program> Prog =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  ASSERT_NE(Prog, nullptr);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_TRUE(PA->allOk()) << Diags.str();
  expectRunsMatchReference(*PA);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallStructureOracleRandom,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(CallStructureOracle, ManyFunctionWorkloadMatches) {
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(31, 2);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_TRUE(PA->allOk()) << Diags.str();
  EXPECT_FALSE(PA->calls().hasRecursion());
  expectRunsMatchReference(*PA);
}

TEST(CallStructureOracle, SelfAndMutualRecursionMatch) {
  const char *Src = R"(
program main
  integer n
  n = 4
  call rec(n)
  call ping(n)
end

subroutine rec(n)
  integer n, m
  if (n .le. 0) goto 10
  m = n - 1
  call rec(m)
10 continue
end

subroutine ping(n)
  integer n, m
  if (n .le. 0) goto 10
  m = n - 1
  call pong(m)
10 continue
end

subroutine pong(n)
  integer n, m
  if (n .le. 0) goto 10
  m = n - 1
  call ping(m)
10 continue
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog;
  auto PA = analyzeSource(Src, Diags, Prog);
  ASSERT_TRUE(PA->allOk()) << Diags.str();
  const CallStructure &CS = PA->calls();
  EXPECT_TRUE(CS.hasRecursion());
  // main, {rec}, {ping, pong}: three components, two of them cycles.
  ASSERT_EQ(CS.numComponents(), 3u);
  unsigned Cyclic = 0;
  for (unsigned C = 0; C < CS.numComponents(); ++C)
    Cyclic += CS.cyclic(C);
  EXPECT_EQ(Cyclic, 2u);
  EXPECT_EQ(CS.componentOf(CS.nodeOf(*Prog->findFunction("ping"))),
            CS.componentOf(CS.nodeOf(*Prog->findFunction("pong"))));
  // Callees first: main's component comes last.
  EXPECT_EQ(CS.componentOf(CS.nodeOf(*Prog->findFunction("main"))), 2u);
  expectRunsMatchReference(*PA);
}

TEST(CallStructureOracle, UndefinedAndFailedCalleesStayUnresolved) {
  // bad() is the textbook irreducible GOTO weave, so its analysis fails;
  // nosuch() is not defined at all (the parser refuses such a call, so
  // stray() is built directly). Neither call contributes callee time.
  const char *Src = R"(
program main
  integer a
  a = 0
  call good(a)
  call bad(a)
end

subroutine good(a)
  integer a
  a = a + 1
end

subroutine bad(a)
  integer a
  if (a .gt. 0) goto 20
10 a = a + 1
  goto 30
20 a = a + 2
30 if (a .lt. 5) goto 20
  if (a .lt. 9) goto 10
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseProgram(Src, Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  {
    FunctionBuilder B(*Prog, "stray", Diags);
    VarId A = B.intVar("a");
    B.callSub("nosuch", {});
    B.callSub("good", {B.var(A)});
    ASSERT_NE(B.finish(), nullptr) << Diags.str();
  }
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  const Function *Main = Prog->findFunction("main");
  const Function *Bad = Prog->findFunction("bad");
  ASSERT_TRUE(PA->failed(*Bad)) << Diags.str();
  const CallStructure &CS = PA->calls();
  EXPECT_EQ(CS.numNodes(), 3u);
  EXPECT_EQ(CS.nodeOf(*Bad), CallStructure::NoNode);

  // main's call to good resolves; its call to bad has no callee node.
  const uint32_t MainNode = CS.nodeOf(*Main);
  const Cfg &C = PA->of(*Main).ecfg().cfg();
  ASSERT_EQ(CS.sites(MainNode).size(), 2u);
  for (const CallStructure::Site &S : CS.sites(MainNode)) {
    const auto *Call = cast<CallStmt>(Main->stmt(C.origin(S.Node)));
    EXPECT_EQ(S.Callee == CallStructure::NoNode, Call->callee() == "bad")
        << Call->callee();
    EXPECT_EQ(CS.calleeAt(MainNode, S.Node), S.Callee);
  }

  expectRunsMatchReference(*PA);
  DiagnosticEngine RunDiags;
  TimeAnalysisOptions Opts;
  Opts.Diags = &RunDiags;
  TimeAnalysis TA = TimeAnalysis::run(*PA, staticFreqsOf(*PA, 0.5),
                                      CostModel::optimizing(), Opts);
  std::vector<std::string> Warnings = sortedWarnings(RunDiags);
  ASSERT_EQ(Warnings.size(), 2u);
  EXPECT_NE(Warnings[0].find("'bad'"), std::string::npos) << Warnings[0];
  EXPECT_NE(Warnings[1].find("'nosuch'"), std::string::npos) << Warnings[1];
  for (const CallStructure::Site &S : CS.sites(MainNode)) {
    const NodeEstimates &E = TA.of(*Main, S.Node);
    if (S.Callee == CallStructure::NoNode) {
      EXPECT_EQ(E.Cost, E.SelfCost);
    } else {
      EXPECT_GT(E.Cost, E.SelfCost);
    }
  }
}

} // namespace
