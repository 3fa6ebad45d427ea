//===--- tests/misc_test.cpp - Annotated listings, splitting, goldens -----===//
//
// Odds and ends with teeth: the annotated profiler listing ("Statement S
// was executed n times"), node splitting as a random-graph property, a
// golden output for the SIMPLE workload guarding interpreter semantics,
// and the FCDG DOT export.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "cost/Report.h"
#include "interp/Interpreter.h"
#include "graph/Dominators.h"
#include "interval/Intervals.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

TEST(AnnotatedListing, ShowsCountsTimesAndDeviations) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  TimeAnalysis TA = Est->analyze(figure3CostOptions());

  std::string Listing = annotatedListing(
      Est->analysis().of(*Fix.Main), Est->totalsFor(*Fix.Main), TA);

  // The loop's IF ran 10 times with TIME 92, the CALL 9 times with TIME
  // 100; the elided GOTOs show as '-'.
  EXPECT_NE(Listing.find("         10 |         92 |         30 | 10 IF"),
            std::string::npos)
      << Listing;
  EXPECT_NE(Listing.find("          9 |        100 |          0 | 40 CALL"),
            std::string::npos)
      << Listing;
  EXPECT_NE(Listing.find("          - |          - |          - | GOTO"),
            std::string::npos)
      << Listing;
}

TEST(NodeSplittingProperty, RandomIrreducibleGraphsBecomeReducible) {
  for (uint64_t Seed = 600; Seed < 620; ++Seed) {
    Rng R(Seed);
    unsigned N = static_cast<unsigned>(R.uniformInt(4, 10));
    Cfg C;
    for (unsigned I = 0; I < N; ++I)
      C.createNode(CfgNodeType::Other);
    C.setEntry(0);
    // A spine plus random extra edges: frequently irreducible.
    for (NodeId I = 0; I + 1 < N; ++I)
      C.addEdge(I, I + 1, CfgLabel::U);
    for (unsigned E = 0; E < N; ++E) {
      NodeId A = static_cast<NodeId>(R.uniformInt(0, N - 1));
      NodeId B = static_cast<NodeId>(R.uniformInt(0, N - 1));
      if (A != B)
        C.addEdge(A, B, CfgLabel::T);
    }

    DiagnosticEngine Diags;
    unsigned Copies = splitNodes(C, Diags);
    if (Diags.hasErrors())
      continue; // Growth budget exceeded: allowed, just not silent.
    EXPECT_TRUE(isReducible(CsrGraph(C.graph()).view(), C.entry()))
        << "seed " << Seed << " after " << Copies << " copies";
    EXPECT_TRUE(IntervalStructure::compute(C, Diags).has_value())
        << "seed " << Seed << "\n"
        << Diags.str();
  }
}

TEST(WorkloadGolden, SimpleOutputIsStable) {
  // Guards the interpreter's arithmetic end to end: SIMPLE prints its
  // final kinetic and internal energy.
  std::unique_ptr<Program> P = parseWorkload(simpleKernel());
  Interpreter I(*P, CostModel::optimizing());
  RunResult R = I.run(simpleKernel().MaxSteps);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "1.71012e-05 25000\n");
}

TEST(WorkloadGolden, LoopsIsDeterministic) {
  std::unique_ptr<Program> P = parseWorkload(livermoreLoops());
  RunResult A = Interpreter(*P, CostModel::optimizing()).run();
  RunResult B = Interpreter(*P, CostModel::optimizing()).run();
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.StatementsExecuted, B.StatementsExecuted);
}

TEST(StrictParsing, ParseUnsigned) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("42"), 42u);
  EXPECT_EQ(parseUnsigned("4294967295"), 4294967295u);
  // Everything atoi would silently mangle must be rejected.
  EXPECT_FALSE(parseUnsigned(""));
  EXPECT_FALSE(parseUnsigned("ten"));
  EXPECT_FALSE(parseUnsigned("3x"));
  EXPECT_FALSE(parseUnsigned("-1"));
  EXPECT_FALSE(parseUnsigned("+1"));
  EXPECT_FALSE(parseUnsigned(" 1"));
  EXPECT_FALSE(parseUnsigned("4294967296")); // UINT_MAX + 1
  EXPECT_FALSE(parseUnsigned("99999999999999999999"));
}

TEST(StrictParsing, ParseDouble) {
  EXPECT_EQ(parseDouble("0"), 0.0);
  EXPECT_EQ(parseDouble("2.5"), 2.5);
  EXPECT_EQ(parseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(parseDouble(""));
  EXPECT_FALSE(parseDouble("abc"));
  EXPECT_FALSE(parseDouble("2.5x"));
  EXPECT_FALSE(parseDouble("1e999")); // overflows to infinity
  EXPECT_FALSE(parseDouble("nan"));
}

TEST(FcdgDot, RendersNodesAndPseudoEdges) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Fix.Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  const FunctionAnalysis &FA = PA->of(*Fix.Main);
  std::string Dot = FA.cd().dot(FA.ecfg().cfg(), "fig3");
  EXPECT_NE(Dot.find("digraph \"fig3\""), std::string::npos);
  EXPECT_NE(Dot.find("START"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"Z\", style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("CALL foo"), std::string::npos);
}

} // namespace
