//===--- tests/profile_property_test.cpp - Recovery == ground truth -------===//
//
// The central property of Section 3: the optimized counter placements
// (opt1 / opt1+2 / smart) must recover exactly the TOTAL_FREQ values that
// an exhaustive profiler observes, on randomly generated programs and on
// the Table 1 workloads, while using fewer counters and fewer dynamic
// updates.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "TestPrograms.h"

#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "profile/ProfileRuntime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

using namespace ptran;
using namespace ptran::testing;

namespace {

struct ProfiledProgram {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ProgramAnalysis> PA;
  ProgramPlan Plans[3];
  std::unique_ptr<ProfileRuntime> Runtimes[3];
  std::unique_ptr<ExactProfile> Exact;
  RunResult Result;
};

constexpr ProfileMode OptimizedModes[3] = {ProfileMode::Opt1,
                                           ProfileMode::Opt12,
                                           ProfileMode::Smart};

/// Runs \p Prog once with an exact profiler and all three optimized
/// runtimes attached simultaneously.
ProfiledProgram profileOnce(std::unique_ptr<Program> Prog) {
  ProfiledProgram Out;
  Out.Prog = std::move(Prog);
  DiagnosticEngine Diags;
  Out.PA = ProgramAnalysis::compute(*Out.Prog, Diags);
  EXPECT_NE(Out.PA, nullptr) << Diags.str();
  if (!Out.PA)
    return Out;

  CostModel CM = CostModel::optimizing();
  Interpreter Interp(*Out.Prog, CM);
  Out.Exact = std::make_unique<ExactProfile>(*Out.PA);
  Interp.addObserver(Out.Exact.get());
  for (int M = 0; M < 3; ++M) {
    Out.Plans[M] = ProgramPlan::build(*Out.PA, OptimizedModes[M]);
    Out.Runtimes[M] =
        std::make_unique<ProfileRuntime>(*Out.PA, Out.Plans[M], CM);
    Interp.addObserver(Out.Runtimes[M].get());
  }
  Out.Result = Interp.run();
  return Out;
}

void expectRecoveryMatchesExact(const ProfiledProgram &P) {
  ASSERT_TRUE(P.Result.Ok) << P.Result.Error;
  for (const auto &F : P.Prog->functions()) {
    const FunctionAnalysis &FA = P.PA->of(*F);
    FrequencyTotals Truth = P.Exact->totals(*F);
    for (int M = 0; M < 3; ++M) {
      FrequencyTotals Got = P.Runtimes[M]->recover(*F);
      ASSERT_TRUE(Got.Ok) << profileModeName(OptimizedModes[M])
                          << " recovery failed for " << F->name();
      for (unsigned Id = 0; Id < FA.cd().conditions().size(); ++Id) {
        const ControlCondition &C = FA.cd().conditions()[Id];
        EXPECT_NEAR(Got.condTotal(Id), Truth.condTotal(Id), 1e-6)
            << profileModeName(OptimizedModes[M]) << " condition ("
            << FA.ecfg().cfg().nodeName(C.Node) << ", "
            << cfgLabelName(C.Label) << ") in " << F->name() << "\n"
            << printFunction(*F);
      }
      for (NodeId N : FA.cd().topoOrder()) {
        EXPECT_NEAR(Got.nodeTotal(N), Truth.nodeTotal(N), 1e-6)
            << profileModeName(OptimizedModes[M]) << " node total of "
            << FA.ecfg().cfg().nodeName(N) << " in " << F->name();
      }
    }
  }
}

/// A random counter value: mostly small integers and fractions, with NaN,
/// infinities, negatives and huge values mixed in when \p Poison is set.
double randomCounter(Rng &R, bool Poison) {
  if (Poison && R.bernoulli(0.15)) {
    static const double Bad[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 -1.0, -0.5, -0.0, 1e300};
    return Bad[R.uniformInt(0, 6)];
  }
  // Integers keep recovery exact; fractions of mixed magnitude make the
  // rounding of every sum depend on its order.
  if (R.bernoulli(0.4))
    return static_cast<double>(R.uniformInt(0, 40));
  return R.uniformReal() * std::ldexp(1.0, static_cast<int>(
                                               R.uniformInt(-4, 20)));
}

/// Recovery over the compiled schedule must equal the fixpoint oracle bit
/// for bit: on the counters \p P's run produced, and on \p Vectors random
/// counter vectors per function and mode (every other one poisoned).
/// \returns how many comparisons ended Ok and how many failed.
std::pair<unsigned, unsigned>
expectScheduleMatchesFixpoint(const ProfiledProgram &P, uint64_t Seed,
                              unsigned Vectors) {
  unsigned Ok = 0, Failed = 0;
  Rng R(Seed);
  for (const auto &F : P.Prog->functions()) {
    const FunctionAnalysis &FA = P.PA->of(*F);
    for (int M = 0; M < 3; ++M) {
      const FunctionPlan &Plan = P.Plans[M].of(*F);
      std::vector<std::vector<double>> Inputs = {
          P.Runtimes[M]->countersFor(*F)};
      for (unsigned V = 0; V < Vectors; ++V) {
        std::vector<double> &C = Inputs.emplace_back(Plan.numCounters());
        for (double &X : C)
          X = randomCounter(R, V % 2 == 1);
      }
      for (const std::vector<double> &C : Inputs) {
        EXPECT_EQ(compareWithFixpoint(FA, Plan, C), "")
            << profileModeName(OptimizedModes[M]);
        (recoverTotals(FA, Plan, C).Ok ? Ok : Failed) += 1;
      }
    }
  }
  return {Ok, Failed};
}

class RandomProgramRecovery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramRecovery, ScheduleMatchesFixpointOracle) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  ProfiledProgram P = profileOnce(std::move(Prog));
  ASSERT_TRUE(P.Result.Ok) << P.Result.Error;
  // Clean vectors always recover.
  EXPECT_GT(expectScheduleMatchesFixpoint(P, GetParam(), 16).first, 0u);
}

TEST_P(RandomProgramRecovery, AllOptimizedModesMatchExactCounts) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyProgram(*Prog, Diags)) << Diags.str();
  ProfiledProgram P = profileOnce(std::move(Prog));
  expectRecoveryMatchesExact(P);
}

TEST_P(RandomProgramRecovery, PlansAreSymbolicallyRecoverable) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  for (const auto &F : Prog->functions())
    for (ProfileMode M : OptimizedModes) {
      FunctionPlan Plan = FunctionPlan::build(PA->of(*F), M);
      EXPECT_TRUE(Plan.recoverable())
          << profileModeName(M) << " plan unrecoverable for " << F->name();
      // The fixpoint oracle agrees: it resolves everything on zeros.
      std::vector<double> Zeros(Plan.numCounters(), 0.0);
      EXPECT_TRUE(fixpointRecoverTotals(PA->of(*F), Plan, Zeros).Ok)
          << profileModeName(M) << " plan unrecoverable for " << F->name();
    }
}

TEST_P(RandomProgramRecovery, OptimizationMonotonicallyReducesCounters) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();

  ProgramPlan Naive = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProgramPlan Opt1 = ProgramPlan::build(*PA, ProfileMode::Opt1);
  ProgramPlan Opt12 = ProgramPlan::build(*PA, ProfileMode::Opt12);
  ProgramPlan Smart = ProgramPlan::build(*PA, ProfileMode::Smart);

  // Static counter counts: each optimization level may only help.
  EXPECT_LE(Opt12.totalCounters(), Opt1.totalCounters());
  EXPECT_LE(Smart.totalCounters(), Opt12.totalCounters());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramRecovery,
                         ::testing::Range<uint64_t>(1, 41));

TEST(WorkloadRecovery, LivermoreLoops) {
  ProfiledProgram P = profileOnce(parseWorkload(livermoreLoops()));
  expectRecoveryMatchesExact(P);
}

TEST(WorkloadRecovery, SimpleKernel) {
  ProfiledProgram P = profileOnce(parseWorkload(simpleKernel()));
  expectRecoveryMatchesExact(P);
}

TEST(WorkloadRecovery, ScheduleMatchesFixpointOnLivermoreAndSimple) {
  for (const Workload *W : {&livermoreLoops(), &simpleKernel()}) {
    ProfiledProgram P = profileOnce(parseWorkload(*W));
    ASSERT_TRUE(P.Result.Ok) << W->Name << ": " << P.Result.Error;
    auto [Ok, Failed] = expectScheduleMatchesFixpoint(P, 7, 8);
    // Clean vectors always recover; poisoned ones mostly do not.
    EXPECT_GT(Ok, 0u) << W->Name;
    EXPECT_GT(Failed, 0u) << W->Name;
  }
}

TEST(WorkloadRecovery, ScheduleKeepsTheInEdgeSummationOrder) {
  // "y = 1" is control dependent on three IF branches, so its node total
  // sums three nonzero condition totals, and with fractional counters the
  // order of that sum shows in the last bits.
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseProgram(R"FTN(
program main
  integer a, b, c, y
  a = 1
  b = 0
  c = 1
  y = 0
  if (a .gt. 0) goto 10
  if (b .gt. 0) goto 10
  if (c .gt. 0) goto 10
  goto 20
10 y = 1
20 continue
  print y
end
)FTN",
                                               Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  ProfiledProgram P = profileOnce(std::move(Prog));
  ASSERT_TRUE(P.Result.Ok) << P.Result.Error;
  const FlowArena &A = P.PA->of(*P.Prog->entry()).cd().arena();
  unsigned MostInEdges = 0;
  for (unsigned Q = 0; Q < A.numPositions(); ++Q)
    MostInEdges = std::max(MostInEdges, A.inEnd(Q) - A.inBegin(Q));
  ASSERT_GE(MostInEdges, 3u);
  expectScheduleMatchesFixpoint(P, 11, 64);
}

TEST(WorkloadRecovery, SmartBeatsNaiveDynamically) {
  // The Table 1 claim, in update counts: smart profiling performs fewer
  // dynamic counter updates than naive per-block profiling.
  std::unique_ptr<Program> Prog = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  CostModel CM = CostModel::optimizing();

  ProgramPlan NaivePlan = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProgramPlan SmartPlan = ProgramPlan::build(*PA, ProfileMode::Smart);
  ProfileRuntime NaiveRt(*PA, NaivePlan, CM);
  ProfileRuntime SmartRt(*PA, SmartPlan, CM);

  Interpreter Interp(*Prog, CM);
  Interp.addObserver(&NaiveRt);
  Interp.addObserver(&SmartRt);
  RunResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  uint64_t NaiveUpdates = NaiveRt.dynamicIncrements() + NaiveRt.dynamicAdds();
  uint64_t SmartUpdates = SmartRt.dynamicIncrements() + SmartRt.dynamicAdds();
  EXPECT_LT(SmartUpdates, NaiveUpdates);
  EXPECT_LT(SmartRt.overheadCycles(), NaiveRt.overheadCycles());
}

TEST(NaiveProfile, BlockCountsMatchExactExecution) {
  // The naive plan's block counters must equal the leader statement's
  // exact execution count.
  std::unique_ptr<Program> Prog = makeRandomProgram(7, RandomProgramConfig());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  CostModel CM = CostModel::optimizing();

  ProgramPlan Plan = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProfileRuntime Rt(*PA, Plan, CM);
  ExactProfile Exact(*PA);

  Interpreter Interp(*Prog, CM);
  Interp.addObserver(&Rt);
  Interp.addObserver(&Exact);
  RunResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  for (const auto &F : Prog->functions()) {
    const FunctionAnalysis &FA = PA->of(*F);
    const FunctionPlan &FP = Plan.of(*F);
    std::vector<double> Counters = Rt.countersFor(*F);
    for (unsigned B = 0; B < FP.naiveBlocks().size(); ++B) {
      NodeId Leader = FP.naiveBlocks()[B][0];
      StmtId LeaderStmt = FA.cfg().origin(Leader);
      if (LeaderStmt == InvalidStmt)
        continue;
      EXPECT_DOUBLE_EQ(Counters[B], Exact.stmtCount(*F, LeaderStmt))
          << "block " << B << " in " << F->name();
    }
  }
}

} // namespace
