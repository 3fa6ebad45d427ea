//===--- tests/parallel_test.cpp - Parallel pipeline & robustness ---------===//
//
// Covers the parallel analysis drivers (per-function fan-out and the
// SCC-wave interprocedural pass): job-count determinism on the Figure 1/3
// programs and the many-function synthetic workload, plus regression tests
// for the robustness sweep — oversized counter vectors, programs with one
// irreducible function, and calls to unresolved procedures.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "cost/Estimator.h"
#include "freq/Frequencies.h"
#include "parser/Parser.h"
#include "profile/CounterPlan.h"
#include "profile/Recovery.h"
#include "support/Cancellation.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>

using namespace ptran;
using namespace ptran::testing;

namespace {

// Synthetic but structurally valid frequencies, identical for every run.
std::map<const Function *, Frequencies>
syntheticFrequencies(const Program &Prog, const ProgramAnalysis &PA) {
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : Prog.functions()) {
    const FunctionAnalysis &FA = PA.of(*F);
    FrequencyTotals Totals;
    Totals.Ok = true;
    for (const ControlCondition &C : FA.cd().conditions()) {
      double V = 1.0;
      if (C.Label == CfgLabel::Z)
        V = 0.0;
      else if (FA.ecfg().headerOf(C.Node) != InvalidNode)
        V = 3.0;
      Totals.Cond.push_back(V);
    }
    Totals.Cond[FA.cd().conditionId({FA.ecfg().start(), CfgLabel::U})] = 1.0;
    Totals.Node = nodeTotalsFromConds(FA, Totals.Cond);
    Freqs[F.get()] = computeFrequencies(FA, Totals);
  }
  return Freqs;
}

// Every function's TIME/VAR under the given job count.
std::vector<double> estimatesAtJobs(const Program &Prog, unsigned Jobs,
                                    const TimeAnalysisOptions &Base) {
  DiagnosticEngine Diags;
  AnalysisOptions AOpts;
  AOpts.Exec.Jobs = Jobs;
  auto PA = ProgramAnalysis::compute(Prog, Diags, AOpts);
  EXPECT_TRUE(PA && PA->allOk()) << Diags.str();
  std::map<const Function *, Frequencies> Freqs =
      syntheticFrequencies(Prog, *PA);
  TimeAnalysisOptions Opts = Base;
  Opts.Exec.Jobs = Jobs;
  TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CostModel::optimizing(),
                                      Opts);
  std::vector<double> Out;
  for (const auto &F : Prog.functions()) {
    Out.push_back(TA.functionTime(*F));
    Out.push_back(TA.functionVariance(*F));
  }
  return Out;
}

} // namespace

TEST(ThreadPool, RunsTasksAndPropagatesResults) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPool, InlineModeRunsOnSubmittingThread) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 0u);
  std::thread::id Submitter = std::this_thread::get_id();
  std::future<std::thread::id> F =
      Pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(F.get(), Submitter);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool Pool(2);
  std::future<void> F = Pool.submit(
      [] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(F.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Futures;
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Futures.push_back(Pool.submit([&Ran] { ++Ran; }));
  }
  // No broken_promise: every submitted task ran before join.
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPool, TokenAwareSubmitSkipsAfterCancel) {
  ThreadPool Pool(2);
  CancelToken Token;
  std::atomic<int> Ran{0};

  // A live token runs the body normally.
  Pool.submit(&Token, [&Ran] { ++Ran; }).get();
  EXPECT_EQ(Ran.load(), 1);
  EXPECT_EQ(Pool.skippedCount(), 0u);

  // After cancellation every not-yet-started task of the group is skipped:
  // bodies never run, but the futures still complete (no hang, no
  // broken_promise on waitAll-style barriers).
  Token.requestCancel();
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit(&Token, [&Ran] { ++Ran; }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Ran.load(), 1);
  EXPECT_EQ(Pool.skippedCount(), 32u);
}

TEST(ThreadPool, DestructionDrainsACancelledGroupCleanly) {
  // Regression: destroying the pool while a cancelled group is still
  // queued must complete every future without running the bodies and
  // without hanging in join.
  CancelToken Token;
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Futures;
  uint64_t Skipped = 0;
  {
    ThreadPool Pool(2);
    // Park the workers so the group is still queued when we cancel.
    for (int I = 0; I < 2; ++I)
      Futures.push_back(Pool.submit(&Token, [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }));
    for (int I = 0; I < 64; ++I)
      Futures.push_back(Pool.submit(&Token, [&Ran] { ++Ran; }));
    Token.requestCancel();
    // Pool destruction drains the queue here.
  }
  for (std::future<void> &F : Futures)
    F.get(); // Throws broken_promise if any task was dropped.
  Skipped = 64 - static_cast<uint64_t>(Ran.load());
  EXPECT_LE(Ran.load(), 64);
  EXPECT_GT(Skipped, 0u) << "cancellation raced ahead of every dequeue";
}

TEST(ParallelDeterminism, Figure1SameNumbersAtAnyJobCount) {
  Figure1Program Fix = makeFigure1();
  std::vector<double> Serial =
      estimatesAtJobs(*Fix.Prog, 1, figure3CostOptions());
  for (unsigned Jobs : {2u, 8u}) {
    std::vector<double> Parallel =
        estimatesAtJobs(*Fix.Prog, Jobs, figure3CostOptions());
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I < Serial.size(); ++I)
      EXPECT_EQ(Serial[I], Parallel[I]) << "jobs=" << Jobs << " slot " << I;
  }
}

TEST(ParallelDeterminism, ManyFunctionWorkloadBitIdenticalAcrossJobs) {
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(63, 2);
  TimeAnalysisOptions Base;
  std::vector<double> Serial = estimatesAtJobs(*Prog, 1, Base);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    std::vector<double> Parallel = estimatesAtJobs(*Prog, Jobs, Base);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I < Serial.size(); ++I)
      EXPECT_EQ(Serial[I], Parallel[I]) << "jobs=" << Jobs << " slot " << I;
  }
}

TEST(ParallelDeterminism, EstimatorEndToEndMatchesSerial) {
  // Full pipeline on the Figure 1 program: profiled run + analysis with 8
  // workers must reproduce the serial estimate exactly.
  auto RunAt = [](unsigned Jobs) {
    Figure1Program Fix = makeFigure1();
    DiagnosticEngine Diags;
    auto Est = Estimator::create(
        *Fix.Prog, CostModel::optimizing(),
        EstimatorOptions(Diags).mode(ProfileMode::Smart).jobs(Jobs));
    EXPECT_NE(Est, nullptr) << Diags.str();
    EXPECT_TRUE(Est->profiledRun().Ok);
    TimeAnalysis TA = Est->analyze(figure3CostOptions());
    return std::pair(TA.programTime(), TA.programStdDev());
  };
  auto [SerialTime, SerialDev] = RunAt(1);
  auto [ParallelTime, ParallelDev] = RunAt(8);
  EXPECT_EQ(SerialTime, ParallelTime);
  EXPECT_EQ(SerialDev, ParallelDev);
}

TEST(ParallelDeterminism, RecursiveProgramsStableAcrossJobs) {
  // Mutual recursion: the SCC fixpoint must stay inside one task and keep
  // its serial iteration order at every job count.
  const char *Src = R"(
program main
  integer n
  n = 3
  call ping(n)
end

subroutine ping(n)
  integer n
  if (n .le. 0) goto 10
  n = n - 1
  call pong(n)
10 continue
end

subroutine pong(n)
  integer n
  call ping(n)
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseProgram(Src, Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  TimeAnalysisOptions Base;
  std::vector<double> Serial = estimatesAtJobs(*Prog, 1, Base);
  std::vector<double> Parallel = estimatesAtJobs(*Prog, 8, Base);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I)
    EXPECT_EQ(Serial[I], Parallel[I]);
}

TEST(RecoveryRobustness, MismatchedCounterVectorFailsCleanly) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Fix.Prog, Diags);
  ASSERT_TRUE(PA && PA->allOk()) << Diags.str();
  ProgramPlan Plan = ProgramPlan::build(*PA, ProfileMode::Smart);
  const FunctionPlan &FP = Plan.of(*Fix.Main);
  ASSERT_GT(FP.numCounters(), 0u);

  // Oversized and undersized vectors: Ok=false plus a diagnostic, no
  // out-of-bounds read (previously only an assert guarded this).
  for (size_t Size : {size_t(0), size_t(FP.numCounters() + 7)}) {
    DiagnosticEngine RecDiags;
    std::vector<double> Bad(Size, 1.0);
    FrequencyTotals Totals =
        recoverTotals(PA->of(*Fix.Main), FP, Bad, &RecDiags);
    EXPECT_FALSE(Totals.Ok) << "size " << Size;
    EXPECT_TRUE(RecDiags.hasErrors()) << "size " << Size;
    EXPECT_NE(RecDiags.str().find("counter vector"), std::string::npos)
        << RecDiags.str();
  }

  // The matching size still recovers (with the optional sink attached).
  DiagnosticEngine RecDiags;
  std::vector<double> Zeros(FP.numCounters(), 0.0);
  FrequencyTotals Totals =
      recoverTotals(PA->of(*Fix.Main), FP, Zeros, &RecDiags);
  EXPECT_TRUE(Totals.Ok) << RecDiags.str();
  EXPECT_FALSE(RecDiags.hasErrors());
}

TEST(PartialAnalysis, OneBadFunctionDoesNotSinkTheProgram) {
  // good() is a plain reducible function; bad() is the textbook
  // irreducible GOTO weave.
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

  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr);
  EXPECT_FALSE(PA->allOk());
  EXPECT_NE(Diags.str().find("irreducible"), std::string::npos)
      << Diags.str();

  const Function *Main = Prog->findFunction("main");
  const Function *Good = Prog->findFunction("good");
  const Function *Bad = Prog->findFunction("bad");
  ASSERT_TRUE(Main && Good && Bad);

  // Successfully analyzed functions stay usable ...
  EXPECT_NE(PA->tryOf(*Main), nullptr);
  EXPECT_NE(PA->tryOf(*Good), nullptr);
  EXPECT_FALSE(PA->failed(*Main));
  // ... and the failed one is recorded as failed, distinct from unknown.
  EXPECT_EQ(PA->tryOf(*Bad), nullptr);
  EXPECT_TRUE(PA->failed(*Bad));
  ASSERT_EQ(PA->failures().size(), 1u);
  EXPECT_EQ(PA->failures().front(), Bad);

  // A function that was never part of the program is "unknown", not
  // "failed".
  Program Other;
  DiagnosticEngine D2;
  FunctionBuilder B(Other, "stranger", D2);
  B.ret();
  Function *Stranger = B.finish();
  ASSERT_NE(Stranger, nullptr);
  EXPECT_FALSE(PA->failed(*Stranger));
  EXPECT_EQ(PA->tryOf(*Stranger), nullptr);

  // The whole-program estimator refuses partial coverage.
  DiagnosticEngine D3;
  auto Est = Estimator::create(*Prog, CostModel::optimizing(), EstimatorOptions(D3));
  EXPECT_EQ(Est, nullptr);
}

TEST(UnresolvedCallee, DiagnosedOncePerCalleeAndTreatedAsZero) {
  // Builder-made program calling two procedures that do not exist (the
  // parser would reject this, but programmatic construction and future
  // separate-compilation flows can produce it).
  Program Prog;
  DiagnosticEngine Diags;
  {
    FunctionBuilder B(Prog, "main", Diags);
    VarId I = B.intVar("i");
    B.doLoop(I, B.lit(1), B.lit(4));
    B.callSub("extern1", {});
    B.callSub("extern1", {});
    B.callSub("extern2", {});
    B.endDo();
    ASSERT_NE(B.finish(), nullptr) << Diags.str();
  }

  auto PA = ProgramAnalysis::compute(Prog, Diags);
  ASSERT_TRUE(PA && PA->allOk()) << Diags.str();
  std::map<const Function *, Frequencies> Freqs =
      syntheticFrequencies(Prog, *PA);

  DiagnosticEngine TADiags;
  TimeAnalysisOptions Opts;
  Opts.Diags = &TADiags;
  TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CostModel::optimizing(),
                                      Opts);
  (void)TA;

  std::string Rendered = TADiags.str();
  // One warning per distinct callee, even though extern1 is called twice
  // per iteration and the loop body is evaluated repeatedly.
  size_t First = Rendered.find("extern1");
  ASSERT_NE(First, std::string::npos) << Rendered;
  EXPECT_EQ(Rendered.find("extern1", First + 1), std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("extern2"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("zero callee time"), std::string::npos)
      << Rendered;

  // Resolved calls stay silent.
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine D2;
  auto PA2 = ProgramAnalysis::compute(*Fix.Prog, D2);
  ASSERT_TRUE(PA2 && PA2->allOk()) << D2.str();
  DiagnosticEngine TAD2;
  TimeAnalysisOptions Opts2 = figure3CostOptions();
  Opts2.Diags = &TAD2;
  TimeAnalysis::run(*PA2, syntheticFrequencies(*Fix.Prog, *PA2),
                    CostModel::optimizing(), Opts2);
  EXPECT_TRUE(TAD2.diagnostics().empty()) << TAD2.str();
}
