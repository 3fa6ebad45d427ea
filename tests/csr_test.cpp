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
//     Figure 1 — at one and many jobs.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "graph/DepthFirst.h"
#include "graph/Dominators.h"
#include "graph/Scc.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "support/FatalError.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
  Opts.Exec.Jobs = Jobs;
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

} // namespace
