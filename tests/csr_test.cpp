//===--- tests/csr_test.cpp - CSR kernels and the GraphView API -----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the flat graph layer introduced with the GraphView redesign:
//
//   - CsrGraph reproduces a Digraph's adjacency (both directions) in
//     insertion order with stable EdgeIds, and GraphView::reversed() is an
//     exact role swap;
//   - the CSR TIME/VAR kernel is bit-identical (memcmp of every node
//     estimate) to the node-object reference kernel across the Figure 1/3
//     program, random reducible programs, the many-function workload, a
//     program with an irreducible function, and the quarantine-degrade
//     path, at one and many jobs.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "graph/DepthFirst.h"
#include "graph/Dominators.h"
#include "graph/Scc.h"
#include "parser/Parser.h"
#include "session/EstimationSession.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

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
// Kernel bit-identity: Csr vs NodeObjects
//===----------------------------------------------------------------------===//

// Synthetic but structurally valid frequencies, identical for every run
// (same construction as parallel_test's). Functions whose analysis failed
// (irreducible) are skipped, as TimeAnalysis itself skips them.
std::map<const Function *, Frequencies>
syntheticFrequencies(const Program &Prog, const ProgramAnalysis &PA) {
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : Prog.functions()) {
    const FunctionAnalysis *FA = PA.tryOf(*F);
    if (!FA)
      continue;
    FrequencyTotals Totals;
    Totals.Ok = true;
    for (const ControlCondition &C : FA->cd().conditions()) {
      double V = 1.0;
      if (C.Label == CfgLabel::Z)
        V = 0.0;
      else if (FA->ecfg().headerOf(C.Node) != InvalidNode)
        V = 3.0;
      Totals.Cond[C] = V;
    }
    Totals.Cond[{FA->ecfg().start(), CfgLabel::U}] = 1.0;
    Totals.Node = nodeTotalsFromConds(*FA, Totals.Cond);
    Freqs[F.get()] = computeFrequencies(*FA, Totals);
  }
  return Freqs;
}

/// Every analyzable function's node estimates must be byte-identical
/// between the two analyses.
void expectKernelsBitIdentical(const Program &Prog, const ProgramAnalysis &PA,
                               const TimeAnalysis &Csr,
                               const TimeAnalysis &Ref) {
  for (const auto &F : Prog.functions()) {
    if (!PA.tryOf(*F))
      continue;
    const std::vector<NodeEstimates> &EA = Csr.estimatesOf(*F);
    const std::vector<NodeEstimates> &EB = Ref.estimatesOf(*F);
    ASSERT_EQ(EA.size(), EB.size()) << F->name();
    EXPECT_EQ(std::memcmp(EA.data(), EB.data(),
                          EA.size() * sizeof(NodeEstimates)),
              0)
        << "kernels disagree bitwise on " << F->name();
  }
}

/// Runs both kernels on \p Prog with synthetic frequencies at \p Jobs and
/// asserts bit-identity.
void compareKernels(const Program &Prog, unsigned Jobs,
                    TimeAnalysisOptions Base) {
  DiagnosticEngine Diags;
  AnalysisOptions AOpts;
  AOpts.Exec.Jobs = Jobs;
  auto PA = ProgramAnalysis::compute(Prog, Diags, AOpts);
  ASSERT_NE(PA, nullptr) << Diags.str();
  std::map<const Function *, Frequencies> Freqs =
      syntheticFrequencies(Prog, *PA);

  Base.Exec.Jobs = Jobs;
  Base.Kernel = TimeKernel::Csr;
  TimeAnalysis Csr =
      TimeAnalysis::run(*PA, Freqs, CostModel::optimizing(), Base);
  Base.Kernel = TimeKernel::NodeObjects;
  TimeAnalysis Ref =
      TimeAnalysis::run(*PA, Freqs, CostModel::optimizing(), Base);

  expectKernelsBitIdentical(Prog, *PA, Csr, Ref);
  EXPECT_EQ(Csr.programTime(), Ref.programTime());
  EXPECT_EQ(Csr.programStdDev(), Ref.programStdDev());
}

TEST(KernelBitIdentity, Figure1AtOneAndManyJobs) {
  Figure1Program Fix = makeFigure1();
  for (unsigned Jobs : {1u, 4u})
    compareKernels(*Fix.Prog, Jobs, figure3CostOptions());
}

TEST(KernelBitIdentity, Figure3ExactValuesThroughTheCsrKernel) {
  // The full profiled pipeline (default kernel = Csr) must still land on
  // the paper's Figure 3 numbers exactly, and a NodeObjects re-analysis of
  // the same estimator state must agree to the bit.
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(),
                               EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);

  TimeAnalysisOptions CsrOpts = figure3CostOptions();
  CsrOpts.Kernel = TimeKernel::Csr;
  TimeAnalysis Csr = Est->analyze(CsrOpts);
  TimeAnalysisOptions RefOpts = figure3CostOptions();
  RefOpts.Kernel = TimeKernel::NodeObjects;
  TimeAnalysis Ref = Est->analyze(RefOpts);

  EXPECT_EQ(Csr.programTime(), Ref.programTime());
  EXPECT_EQ(Csr.programStdDev(), Ref.programStdDev());
  for (const auto &F : Fix.Prog->functions()) {
    const std::vector<NodeEstimates> &EA = Csr.estimatesOf(*F);
    const std::vector<NodeEstimates> &EB = Ref.estimatesOf(*F);
    ASSERT_EQ(EA.size(), EB.size());
    EXPECT_EQ(std::memcmp(EA.data(), EB.data(),
                          EA.size() * sizeof(NodeEstimates)),
              0)
        << F->name();
  }
}

class KernelBitIdentityRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelBitIdentityRandom, RandomProgramsAtOneAndManyJobs) {
  std::unique_ptr<Program> Prog =
      makeRandomProgram(GetParam(), RandomProgramConfig());
  ASSERT_NE(Prog, nullptr);
  for (unsigned Jobs : {1u, 4u})
    compareKernels(*Prog, Jobs, TimeAnalysisOptions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBitIdentityRandom,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(KernelBitIdentity, ManyFunctionWorkloadAcrossJobs) {
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(31, 2);
  for (unsigned Jobs : {1u, 8u})
    compareKernels(*Prog, Jobs, TimeAnalysisOptions());
}

TEST(KernelBitIdentity, SurvivesAnIrreducibleFunction) {
  // bad() is the textbook irreducible GOTO weave; the partial analysis
  // skips it and both kernels must agree on the survivors.
  const char *Src = R"(
program main
  integer a
  a = 0
  call good(a)
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
  for (unsigned Jobs : {1u, 4u})
    compareKernels(*Prog, Jobs, TimeAnalysisOptions());
}

TEST(KernelBitIdentity, LoopVarianceModelsAgree) {
  // The Case 1 VAR(FREQ) models go through loopFreqVariance in both
  // kernels; cover the closed-form ones on the Figure 1 loop.
  Figure1Program Fix = makeFigure1();
  for (LoopVarianceMode Mode :
       {LoopVarianceMode::Geometric, LoopVarianceMode::Uniform}) {
    TimeAnalysisOptions Opts = figure3CostOptions();
    Opts.LoopVariance = Mode;
    compareKernels(*Fix.Prog, 1, Opts);
  }
}

TEST(KernelBitIdentity, QuarantineDegradePathsAgree) {
  // Two sessions differing only in kernel choice ingest the same corrupt
  // profile under BadProfilePolicy::Quarantine: the degraded (static-
  // frequency) estimates must also be bit-identical between kernels.
  const char *Src = R"FTN(
program main
  x = 0.0
  call mid(x)
  print x
end
subroutine mid(x)
  call leaf(x)
end
subroutine leaf(x)
  do 10 i = 1, 4
    x = x + 1.0
10 continue
end
)FTN";
  DiagnosticEngine ParseDiags;
  std::unique_ptr<Program> Prog = parseProgram(Src, ParseDiags);
  ASSERT_NE(Prog, nullptr) << ParseDiags.str();

  // Produce a profile, then corrupt the mid section.
  DiagnosticEngine ProdDiags;
  auto Producer = EstimationSession::create(
      *Prog, CostModel::optimizing(),
      EstimatorOptions(ProdDiags).onBadProfile(BadProfilePolicy::Quarantine));
  ASSERT_NE(Producer, nullptr) << ProdDiags.str();
  ASSERT_TRUE(Producer->profiledRun().Ok);
  ProfileFile Corrupt = Producer->captureProfile();
  bool Poisoned = false;
  for (FunctionSection &S : Corrupt.sectionsMutable()) {
    if (S.Name == "mid") {
      S.Valid = false;
      S.Issue = "section checksum mismatch (corrupt data)";
      S.Counters.clear();
      S.Loops.clear();
      Poisoned = true;
    }
  }
  ASSERT_TRUE(Poisoned);

  auto IngestAndEstimate = [&](TimeKernel K, DiagnosticEngine &Diags) {
    auto S = EstimationSession::create(
        *Prog, CostModel::optimizing(),
        EstimatorOptions(Diags)
            .kernel(K)
            .onBadProfile(BadProfilePolicy::Quarantine));
    EXPECT_NE(S, nullptr) << Diags.str();
    ProfileIngestReport Report = S->ingestProfile(Corrupt);
    EXPECT_TRUE(Report.Ok) << Report.Error;
    EXPECT_EQ(Report.Quarantined, std::vector<std::string>{"mid"});
    return S;
  };
  DiagnosticEngine D1, D2;
  auto CsrSession = IngestAndEstimate(TimeKernel::Csr, D1);
  auto RefSession = IngestAndEstimate(TimeKernel::NodeObjects, D2);
  ASSERT_TRUE(CsrSession && RefSession);

  // The quarantined function's own query carries the tag in both kernels.
  EstimateResult CsrMid = CsrSession->estimate(EstimateRequest("mid"));
  EstimateResult RefMid = RefSession->estimate(EstimateRequest("mid"));
  ASSERT_TRUE(CsrMid.Ok) << CsrMid.Error;
  ASSERT_TRUE(RefMid.Ok) << RefMid.Error;
  EXPECT_TRUE(CsrMid.Quarantined);
  EXPECT_TRUE(RefMid.Quarantined);
  EXPECT_EQ(CsrMid.Time, RefMid.Time);
  EXPECT_EQ(CsrMid.Var, RefMid.Var);

  EstimateResult CsrRes = CsrSession->estimateEntry();
  EstimateResult RefRes = RefSession->estimateEntry();
  ASSERT_TRUE(CsrRes.Ok) << CsrRes.Error;
  ASSERT_TRUE(RefRes.Ok) << RefRes.Error;
  EXPECT_EQ(CsrRes.Time, RefRes.Time);
  EXPECT_EQ(CsrRes.Var, RefRes.Var);
  for (const auto &F : Prog->functions()) {
    const std::vector<NodeEstimates> &EA = CsrRes.Analysis->estimatesOf(*F);
    const std::vector<NodeEstimates> &EB = RefRes.Analysis->estimatesOf(*F);
    ASSERT_EQ(EA.size(), EB.size()) << F->name();
    EXPECT_EQ(std::memcmp(EA.data(), EB.data(),
                          EA.size() * sizeof(NodeEstimates)),
              0)
        << "degraded estimates of " << F->name() << " differ between kernels";
  }
}

} // namespace
