//===--- tests/session_test.cpp - Incremental estimation sessions ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the EstimationSession subsystem: summary-cache invalidation (a
// changed leaf re-evaluates exactly the leaf and its call-graph
// ancestors), bit-identity of incremental vs cold recomputation, the
// batch query API with per-request configuration overrides, determinism
// across job counts, a session holding no threads once created, and
// lock-free reads racing ingests (rerun under TSan as session_test_tsan).
//
//===----------------------------------------------------------------------===//

#include "freq/StaticFrequencies.h"
#include "obs/Observability.h"
#include "parser/Parser.h"
#include "session/EstimationSession.h"
#include "support/FaultInjection.h"
#include "workloads/Workloads.h"

#include "TestPrograms.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>
#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// A diamond call graph with an extra edge:
///
///   main -> mid -> {leafa, leafb},  main -> leafb
///
/// so dirtying leafa must re-evaluate {leafa, mid, main} and nothing
/// else: leafb is reachable from main but not a caller of leafa.
const char DiamondSource[] = R"FTN(
program main
  x = 0.0
  call mid(x)
  call leafb(x)
  print x
end
subroutine mid(x)
  call leafa(x)
  call leafb(x)
end
subroutine leafa(x)
  do 10 i = 1, 4
    x = x + 1.0
10 continue
end
subroutine leafb(x)
  x = x + 2.0
end
)FTN";

std::unique_ptr<Program> parseDiamond() {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(DiamondSource, Diags);
  EXPECT_NE(P, nullptr) << Diags.str();
  return P;
}

/// Byte-level equality of every node estimate of every function.
void expectBitIdentical(const Program &Prog, const TimeAnalysis &A,
                        const TimeAnalysis &B) {
  for (const auto &F : Prog.functions()) {
    const std::vector<NodeEstimates> &EA = A.estimatesOf(*F);
    const std::vector<NodeEstimates> &EB = B.estimatesOf(*F);
    ASSERT_EQ(EA.size(), EB.size()) << F->name();
    EXPECT_EQ(std::memcmp(EA.data(), EB.data(),
                          EA.size() * sizeof(NodeEstimates)),
              0)
        << "estimates of " << F->name() << " differ bitwise";
  }
}

/// One synthetic totals delta for a straight-line leaf: bump its
/// invocation condition, which changes its accumulated totals (and hence
/// its input fingerprint) without touching any other function.
FrequencyTotals invocationDelta(const EstimationSession &S, const Function &F,
                                double Total = 1.0) {
  return ptran::testing::invocationDelta(S.estimator().analysis().of(F),
                                         Total);
}

TEST(EstimationSession, ColdQueryThenCacheHit) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  ASSERT_NE(S, nullptr) << Diags.str();
  ASSERT_TRUE(S->profiledRun().Ok);

  EstimateResult R1 = S->estimateEntry();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  // Four functions, no recursion: one bottom-up evaluation each.
  EXPECT_EQ(S->lastEvaluations(), 4u);
  EXPECT_GT(R1.Time, 0.0);
  EXPECT_EQ(R1.F, Prog->entry());

  // Nothing changed: the second query is a pure cache hit — same analysis
  // object, zero evaluations.
  uint64_t HitsBefore = S->cacheHits();
  EstimateResult R2 = S->estimateEntry();
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(S->lastEvaluations(), 0u);
  EXPECT_EQ(S->cacheHits(), HitsBefore + 1);
  EXPECT_EQ(R2.Analysis, R1.Analysis);
  EXPECT_EQ(R2.Time, R1.Time);
  EXPECT_EQ(R2.Var, R1.Var);
}

TEST(EstimationSession, LeafChangeInvalidatesExactlyItsAncestors) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  ASSERT_NE(S, nullptr) << Diags.str();
  ASSERT_TRUE(S->profiledRun().Ok);
  ASSERT_TRUE(S->estimateEntry().Ok);

  // Dirty only leafa's accumulated totals. The write refreshes the
  // published view, so the write+read pair is what gets counted.
  const Function *LeafA = Prog->findFunction("leafa");
  ASSERT_NE(LeafA, nullptr);
  uint64_t EvalsBefore = S->totalEvaluations();
  S->accumulateTotals(*LeafA, invocationDelta(*S, *LeafA));

  EstimateResult R = S->estimateEntry();
  ASSERT_TRUE(R.Ok) << R.Error;
  // The dirty closure is {leafa, mid, main}; leafb has no path to leafa
  // in the caller direction and must be served from cache.
  EXPECT_EQ(S->totalEvaluations() - EvalsBefore, 3u);

  // Bit-identity: a cold analysis over the session's exact accumulated
  // inputs must match the incremental result byte for byte.
  const Estimator &Est = S->estimator();
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : Prog->functions()) {
    FrequencyTotals Totals = Est.runtime().recover(*F);
    ASSERT_TRUE(Totals.Ok) << F->name();
    if (F.get() == LeafA) {
      FrequencyTotals Delta = invocationDelta(*S, *LeafA);
      for (size_t C = 0; C < Delta.Cond.size(); ++C)
        Totals.Cond[C] += Delta.Cond[C];
      Totals.Node = nodeTotalsFromConds(Est.analysis().of(*F), Totals.Cond);
    }
    Freqs[F.get()] = computeFrequencies(Est.analysis().of(*F), Totals);
  }
  TimeAnalysis Cold =
      TimeAnalysis::run(Est.analysis(), Freqs, CostModel::optimizing());
  expectBitIdentical(*Prog, *R.Analysis, Cold);
  EXPECT_EQ(Cold.functionEvaluations(), 4u);
}

TEST(EstimationSession, IncrementalMatchesColdAfterMoreRuns) {
  // Accumulating runs dirties every executed function; the incremental
  // path then re-evaluates everything and must still be bit-identical to
  // an estimator that saw the same runs cold.
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(31, 2);
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(
      *Prog, CostModel::optimizing(),
      EstimatorOptions(Diags).loopVariance(LoopVarianceMode::Profiled));
  ASSERT_NE(S, nullptr) << Diags.str();

  ASSERT_TRUE(S->profiledRun().Ok);
  ASSERT_TRUE(S->estimateEntry().Ok);
  ASSERT_TRUE(S->profiledRun().Ok);
  ASSERT_TRUE(S->profiledRun().Ok);
  EstimateResult Inc = S->estimateEntry();
  ASSERT_TRUE(Inc.Ok) << Inc.Error;

  DiagnosticEngine Diags2;
  auto Est = Estimator::create(
      *Prog, CostModel::optimizing(),
      EstimatorOptions(Diags2).loopVariance(LoopVarianceMode::Profiled));
  ASSERT_NE(Est, nullptr) << Diags2.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  ASSERT_TRUE(Est->profiledRun().Ok);
  ASSERT_TRUE(Est->profiledRun().Ok);
  TimeAnalysis Cold = Est->analyze();

  expectBitIdentical(*Prog, *Inc.Analysis, Cold);
  EXPECT_EQ(Inc.Time, Cold.programTime());
}

TEST(EstimationSession, BatchRequestsAndPerRequestOverrides) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  ASSERT_NE(S, nullptr) << Diags.str();
  ASSERT_TRUE(S->profiledRun().Ok);

  EstimateRequest Entry;                // defaults: program entry
  EstimateRequest Mid("mid");           // named function
  EstimateRequest Unknown("nosuch");    // error, not fatal
  EstimateRequest Expensive("leafb");   // distinct cost model
  Expensive.Cost = CostModel::nonOptimizing();

  std::vector<EstimateResult> Res =
      S->estimate({Entry, Mid, Unknown, Expensive});
  ASSERT_EQ(Res.size(), 4u);

  ASSERT_TRUE(Res[0].Ok) << Res[0].Error;
  ASSERT_TRUE(Res[1].Ok) << Res[1].Error;
  EXPECT_GT(Res[0].Time, Res[1].Time); // entry subsumes mid's work
  EXPECT_EQ(Res[0].Analysis, Res[1].Analysis); // same configuration

  EXPECT_FALSE(Res[2].Ok);
  EXPECT_NE(Res[2].Error.find("unknown function 'nosuch'"),
            std::string::npos)
      << Res[2].Error;

  ASSERT_TRUE(Res[3].Ok) << Res[3].Error;
  EXPECT_NE(Res[3].Analysis, Res[0].Analysis); // separate config cache
  const Function *LeafB = Prog->findFunction("leafb");
  ASSERT_NE(LeafB, nullptr);
  // The non-optimizing model charges more per operation.
  EXPECT_GT(Res[3].Time, Res[0].Analysis->functionTime(*LeafB));

  // Re-asking for both configurations re-runs nothing.
  uint64_t EvalsBefore = S->totalEvaluations();
  std::vector<EstimateResult> Again = S->estimate({Entry, Expensive});
  ASSERT_TRUE(Again[0].Ok);
  ASSERT_TRUE(Again[1].Ok);
  EXPECT_EQ(S->totalEvaluations(), EvalsBefore);
  EXPECT_EQ(S->lastEvaluations(), 0u);
}

TEST(EstimationSession, VarianceModeOverridesGetTheirOwnCache) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Fix.Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  ASSERT_NE(S, nullptr) << Diags.str();
  ASSERT_TRUE(S->profiledRun().Ok);

  EstimateRequest Zero;
  Zero.LoopVariance = LoopVarianceMode::Zero;
  EstimateRequest Profiled;
  Profiled.LoopVariance = LoopVarianceMode::Profiled;

  std::vector<EstimateResult> Res = S->estimate({Zero, Profiled});
  ASSERT_TRUE(Res[0].Ok) << Res[0].Error;
  ASSERT_TRUE(Res[1].Ok) << Res[1].Error;
  EXPECT_NE(Res[0].Analysis, Res[1].Analysis);
  // Same frequencies, same times; the variance model only affects VAR.
  EXPECT_EQ(Res[0].Time, Res[1].Time);
  EXPECT_GE(Res[1].Var, Res[0].Var);
}

TEST(EstimationSession, DeterministicAcrossJobCounts) {
  // The job count only sizes the analysis fan-out; results must be
  // bit-identical to the serial session at any worker count.
  auto RunAt = [](unsigned Jobs) {
    std::unique_ptr<Program> Prog = makeManyFunctionProgram(63, 2);
    DiagnosticEngine Diags;
    auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                       EstimatorOptions(Diags).jobs(Jobs));
    EXPECT_NE(S, nullptr) << Diags.str();
    EXPECT_TRUE(S->profiledRun().Ok);
    EstimateResult R = S->estimateEntry();
    EXPECT_TRUE(R.Ok) << R.Error;
    return std::pair(R.Time, R.StdDev);
  };
  auto [SerialTime, SerialDev] = RunAt(1);
  auto [ParallelTime, ParallelDev] = RunAt(8);
  EXPECT_EQ(SerialTime, ParallelTime);
  EXPECT_EQ(SerialDev, ParallelDev);
}

/// Threads of this process: the entries of /proc/self/task.
size_t processThreadCount() {
  size_t N = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)Entry;
    ++N;
  }
  return N;
}

/// A joined worker can linger in /proc/self/task for a moment after its
/// join returns, so this polls for up to a second until the thread count
/// reaches \p Expected, and returns the last count seen.
size_t threadCountSettlingAt(size_t Expected) {
  size_t N = processThreadCount();
  for (int Try = 0; Try < 100 && N != Expected; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    N = processThreadCount();
  }
  return N;
}

TEST(EstimationSession, HoldsNoThreadsOnceCreated) {
  // The analysis fan-out's workers are joined before create() returns and
  // every later pass runs on the caller's thread, so a resident session
  // costs no threads at any job count.
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(63, 2);
  DiagnosticEngine Diags;
  const size_t Before = processThreadCount();
  auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags).jobs(4));
  ASSERT_NE(S, nullptr) << Diags.str();
  EXPECT_EQ(threadCountSettlingAt(Before), Before);
  ASSERT_TRUE(S->profiledRun().Ok);
  EstimateResult R = S->estimateEntry();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(threadCountSettlingAt(Before), Before);
}

TEST(EstimationSession, RecursiveProgramsStayIncremental) {
  // Recursion keeps its fixpoint inside one SCC evaluation; the
  // session must still cache and invalidate around the recursive SCC.
  const char RecSource[] = R"FTN(
program main
  x = 6.0
  call fact(x)
  call leaf(x)
  print x
end
subroutine fact(x)
  if (x .gt. 1.0) then
    x = x - 1.0
    call fact(x)
  endif
end
subroutine leaf(x)
  x = x * 2.0
end
)FTN";
  DiagnosticEngine PD;
  std::unique_ptr<Program> Prog = parseProgram(RecSource, PD);
  ASSERT_NE(Prog, nullptr) << PD.str();

  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Prog, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  ASSERT_NE(S, nullptr) << Diags.str();
  ASSERT_TRUE(S->profiledRun().Ok);

  EstimateResult R1 = S->estimateEntry();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_TRUE(R1.Analysis->hasRecursion());
  uint64_t ColdEvals = S->lastEvaluations();
  EXPECT_GT(ColdEvals, 3u); // fixpoint iterations count per evaluation

  // Dirty the non-recursive leaf: the recursive SCC is NOT an ancestor
  // of leaf, so only {leaf, main} re-evaluate — main once, leaf once.
  const Function *Leaf = Prog->findFunction("leaf");
  ASSERT_NE(Leaf, nullptr);
  uint64_t EvalsBefore = S->totalEvaluations();
  S->accumulateTotals(*Leaf, invocationDelta(*S, *Leaf));
  EstimateResult R2 = S->estimateEntry();
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(S->totalEvaluations() - EvalsBefore, 2u);
  EXPECT_EQ(R2.Time, R1.Time); // the delta scales totals, not frequencies
}

//===--- fault-tolerant profile ingestion ---------------------------------===//

/// A session with \p Runs profiled runs accumulated.
std::unique_ptr<EstimationSession>
runSession(const Program &Prog, unsigned Runs, DiagnosticEngine &Diags,
           BadProfilePolicy Policy = BadProfilePolicy::Quarantine,
           ObsRegistry *Obs = nullptr) {
  EstimatorOptions Opts = EstimatorOptions(Diags)
                              .loopVariance(LoopVarianceMode::Profiled)
                              .onBadProfile(Policy);
  if (Obs)
    Opts.observability(*Obs);
  auto S = EstimationSession::create(Prog, CostModel::optimizing(), Opts);
  EXPECT_NE(S, nullptr) << Diags.str();
  for (unsigned R = 0; R < Runs; ++R)
    EXPECT_TRUE(S->profiledRun().Ok);
  return S;
}

// The acceptance criterion for the quarantine design: corrupt k of the N
// function sections of a saved profile, ingest it into a fresh session,
// and the diagnostics must name exactly those k functions, their
// estimates must degrade to static frequencies (tagged), and the
// remaining N-k functions' estimates must be bit-identical to a session
// that ingested the uncorrupted profile.
TEST(EstimationSession, CorruptSectionsQuarantineExactlyAndOthersBitIdentical) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine RunDiags;
  auto Producer = runSession(*Prog, 2, RunDiags);
  ASSERT_NE(Producer, nullptr);
  ProfileFile Clean = Producer->captureProfile();
  ASSERT_EQ(Clean.sections().size(), 4u);

  // Corrupt k=2 of N=4 sections in memory, exactly as a failed CRC check
  // would present them after a load. main and mid are chosen so the two
  // clean functions are pure callees: a caller's estimates legitimately
  // reflect a degraded callee, but callee estimates must not move when a
  // caller is quarantined.
  ProfileFile Corrupt = Clean;
  std::set<std::string> Bad;
  for (const char *Name : {"main", "mid"}) {
    for (FunctionSection &S : Corrupt.sectionsMutable()) {
      if (S.Name == Name) {
        S.Valid = false;
        S.Issue = "section checksum mismatch (corrupt data)";
        S.Counters.clear();
        S.Loops.clear();
        Bad.insert(Name);
      }
    }
  }
  ASSERT_EQ(Bad.size(), 2u);

  DiagnosticEngine D1, D2;
  auto Reference = runSession(*Prog, 0, D1);
  auto Victim = runSession(*Prog, 0, D2);
  ASSERT_NE(Reference, nullptr);
  ASSERT_NE(Victim, nullptr);

  ProfileIngestReport CleanReport = Reference->ingestProfile(Clean);
  ASSERT_TRUE(CleanReport.Ok) << CleanReport.Error;
  EXPECT_EQ(CleanReport.Accepted, 4u);
  EXPECT_TRUE(CleanReport.Quarantined.empty());

  ProfileIngestReport Report = Victim->ingestProfile(Corrupt);
  ASSERT_TRUE(Report.Ok) << Report.Error;
  EXPECT_EQ(Report.Accepted, 2u);
  // Exactly the k corrupted functions, by name.
  EXPECT_EQ(std::set<std::string>(Report.Quarantined.begin(),
                                  Report.Quarantined.end()),
            Bad);
  for (const std::string &Finding : Report.Findings)
    EXPECT_TRUE(Finding.find("main") == 0 || Finding.find("mid") == 0)
        << Finding;

  EstimateResult CleanRes = Reference->estimateEntry();
  ASSERT_TRUE(CleanRes.Ok) << CleanRes.Error;
  EstimateResult VictimRes = Victim->estimateEntry();
  ASSERT_TRUE(VictimRes.Ok) << VictimRes.Error;

  // Quarantined functions: tagged, reason preserved, estimates from
  // static frequencies. The entry itself is quarantined here, so the
  // entry query carries the tag; the clean session's does not.
  const Function *Mid = Prog->findFunction("mid");
  ASSERT_NE(Mid, nullptr);
  EXPECT_TRUE(Victim->isQuarantined(*Mid));
  EstimateResult QRes = Victim->estimate(EstimateRequest("mid"));
  ASSERT_TRUE(QRes.Ok) << QRes.Error;
  EXPECT_TRUE(QRes.Quarantined);
  EXPECT_NE(QRes.QuarantineReason.find("checksum"), std::string::npos)
      << QRes.QuarantineReason;
  EXPECT_TRUE(VictimRes.Quarantined);
  EXPECT_FALSE(CleanRes.Quarantined);
  // frequencies() reports what the estimate read: static for Mid.
  EXPECT_EQ(Victim->frequencies().at(Mid).NodeFreq,
            computeStaticFrequencies(Victim->estimator().analysis().of(*Mid))
                .Freqs.NodeFreq);

  // The clean functions' node estimates are bit-identical between the two
  // sessions; the quarantined ones differ (static vs profiled branches
  // would only coincide by accident on this program shape).
  for (const auto &F : Prog->functions()) {
    if (Bad.count(F->name()))
      continue;
    const std::vector<NodeEstimates> &EA =
        CleanRes.Analysis->estimatesOf(*F);
    const std::vector<NodeEstimates> &EB =
        VictimRes.Analysis->estimatesOf(*F);
    ASSERT_EQ(EA.size(), EB.size()) << F->name();
    EXPECT_EQ(std::memcmp(EA.data(), EB.data(),
                          EA.size() * sizeof(NodeEstimates)),
              0)
        << "clean function " << F->name() << " drifted bitwise";
  }
}

// totalsFor() and frequencies() report the totals the estimates came from:
// a session that only ingested a profile reads exactly what the producing
// session recovered from its own counters.
TEST(EstimationSession, IngestedTotalsAndFrequenciesMatchTheProducer) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  auto Producer = runSession(*Prog, 2, D1);
  auto Consumer = runSession(*Prog, 0, D2);
  ASSERT_NE(Producer, nullptr);
  ASSERT_NE(Consumer, nullptr);
  ProfileIngestReport Report =
      Consumer->ingestProfile(Producer->captureProfile());
  ASSERT_TRUE(Report.Ok) << Report.Error;
  EstimateResult Want = Producer->estimateEntry();
  EstimateResult Got = Consumer->estimateEntry();
  ASSERT_TRUE(Want.Ok) << Want.Error;
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Time, Want.Time);
  EXPECT_EQ(Got.Var, Want.Var);
  for (const auto &F : Prog->functions()) {
    FrequencyTotals WantTotals = Producer->totalsFor(*F);
    FrequencyTotals GotTotals = Consumer->totalsFor(*F);
    EXPECT_EQ(GotTotals.Cond, WantTotals.Cond) << F->name();
    EXPECT_EQ(GotTotals.Node, WantTotals.Node) << F->name();
    EXPECT_EQ(Consumer->frequencies().at(F.get()).NodeFreq,
              Producer->frequencies().at(F.get()).NodeFreq)
        << F->name();
  }
}

TEST(EstimationSession, IngestJoinsTheRuntimeWithoutRecoveringAgain) {
  // An ingested profile lands in the counter runtime: the session then
  // captures, and estimates, exactly like one that made all the runs
  // itself. The query after the ingest reuses the totals validation
  // recovered instead of solving every function again.
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2, D3;
  auto Producer = runSession(*Prog, 2, D1);
  ObsRegistry Obs;
  auto S = runSession(*Prog, 1, D2, BadProfilePolicy::Quarantine, &Obs);
  auto Cold = runSession(*Prog, 3, D3);
  ASSERT_TRUE(Producer && S && Cold);
  ASSERT_TRUE(S->estimateEntry().Ok);

  ProfileIngestReport Report = S->ingestProfile(Producer->captureProfile());
  ASSERT_TRUE(Report.Ok) << Report.Error;
  EXPECT_EQ(S->runsExecuted(), 3u);
  uint64_t Recoveries = Obs.counterValue("recovery.calls");
  EstimateResult Got = S->estimateEntry();
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Obs.counterValue("recovery.calls"), Recoveries);

  EstimateResult Want = Cold->estimateEntry();
  ASSERT_TRUE(Want.Ok) << Want.Error;
  EXPECT_EQ(std::bit_cast<uint64_t>(Got.Time),
            std::bit_cast<uint64_t>(Want.Time));
  EXPECT_EQ(std::bit_cast<uint64_t>(Got.Var),
            std::bit_cast<uint64_t>(Want.Var));
  expectBitIdentical(*Prog, *Got.Analysis, *Want.Analysis);
  EXPECT_EQ(S->captureProfile().serialize(),
            Cold->captureProfile().serialize());
}

TEST(EstimationSession, FailPolicyRejectsWholeProfileAtomically) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine RunDiags;
  auto Producer = runSession(*Prog, 1, RunDiags);
  ASSERT_NE(Producer, nullptr);
  ProfileFile Corrupt = Producer->captureProfile();
  for (FunctionSection &S : Corrupt.sectionsMutable()) {
    if (S.Name == "mid") {
      S.Valid = false;
      S.Issue = "section checksum mismatch (corrupt data)";
    }
  }

  DiagnosticEngine Diags;
  auto Strict = runSession(*Prog, 0, Diags, BadProfilePolicy::Fail);
  ASSERT_NE(Strict, nullptr);
  ProfileIngestReport Report = Strict->ingestProfile(Corrupt);
  EXPECT_FALSE(Report.Ok);
  EXPECT_EQ(Report.Accepted, 0u);
  ASSERT_EQ(Report.Quarantined.size(), 1u);
  EXPECT_EQ(Report.Quarantined[0], "mid");
  // Nothing folded, nothing quarantined: the session still answers from
  // its own (zero-run) counters as if the ingest never happened.
  EXPECT_TRUE(Strict->quarantined().empty());
  EstimateResult R = Strict->estimateEntry();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Quarantined);
}

TEST(EstimationSession, FingerprintMismatchRejectsProfile) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine PD;
  std::unique_ptr<Program> Other = parseProgram(R"FTN(
program main
  x = 1.0
  print x
end
)FTN",
                                                PD);
  ASSERT_NE(Other, nullptr) << PD.str();
  DiagnosticEngine D1, D2;
  auto Producer = runSession(*Other, 1, D1);
  auto Consumer = runSession(*Prog, 0, D2);
  ASSERT_NE(Producer, nullptr);
  ASSERT_NE(Consumer, nullptr);
  ProfileIngestReport Report =
      Consumer->ingestProfile(Producer->captureProfile());
  EXPECT_FALSE(Report.Ok);
  EXPECT_NE(Report.Error.find("fingerprint"), std::string::npos)
      << Report.Error;
}

TEST(EstimationSession, BadExternalDeltaQuarantinesOrFails) {
  std::unique_ptr<Program> Prog = parseDiamond();
  const auto NaN = std::numeric_limits<double>::quiet_NaN();

  // Quarantine policy: the poisoned function degrades, the query succeeds.
  {
    DiagnosticEngine Diags;
    auto S = runSession(*Prog, 1, Diags, BadProfilePolicy::Quarantine);
    ASSERT_NE(S, nullptr);
    const Function *LeafB = Prog->findFunction("leafb");
    ASSERT_NE(LeafB, nullptr);
    S->accumulateTotals(*LeafB, invocationDelta(*S, *LeafB, NaN));
    EstimateResult R = S->estimateEntry();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(S->isQuarantined(*LeafB));
    EstimateResult Leaf = S->estimate(EstimateRequest("leafb"));
    ASSERT_TRUE(Leaf.Ok) << Leaf.Error;
    EXPECT_TRUE(Leaf.Quarantined);
  }

  // Fail policy: the historical whole-query failure, naming the function.
  {
    DiagnosticEngine Diags;
    auto S = runSession(*Prog, 1, Diags, BadProfilePolicy::Fail);
    ASSERT_NE(S, nullptr);
    const Function *LeafB = Prog->findFunction("leafb");
    S->accumulateTotals(*LeafB, invocationDelta(*S, *LeafB, NaN));
    EstimateResult R = S->estimateEntry();
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("leafb"), std::string::npos) << R.Error;
    EXPECT_TRUE(S->quarantined().empty());
  }
}

TEST(EstimationSession, RepeatedValidDeltasSaturateAtTwoPow53) {
  // Regression test: each delta below passes the per-delta validation
  // (finite, non-negative, <= 2^53), but their sum does not fit. The
  // unfixed accumulator did a bare `Acc[Cond] += Total`, silently walking
  // the total past 2^53 where doubles can no longer represent every
  // count — this test fails on that code twice over: the estimates skew
  // away from the clamped reference, and no diagnostic is emitted. The
  // fixed accumulator clamps at exactly 2^53 (the PTPF-merge contract)
  // and warns once per function that totals are now lower bounds.
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  auto S = runSession(*Prog, 1, D1, BadProfilePolicy::Quarantine);
  auto Ref = runSession(*Prog, 1, D2, BadProfilePolicy::Quarantine);
  ASSERT_NE(S, nullptr);
  ASSERT_NE(Ref, nullptr);
  const Function *LeafA = Prog->findFunction("leafa");
  ASSERT_NE(LeafA, nullptr);

  FrequencyTotals Limit =
      invocationDelta(*S, *LeafA, ProfileFile::SaturationLimit);
  S->accumulateTotals(*LeafA, Limit);
  S->accumulateTotals(*LeafA, Limit);
  Ref->accumulateTotals(*LeafA, Limit);

  EstimateResult RS = S->estimateEntry();
  EstimateResult RR = Ref->estimateEntry();
  ASSERT_TRUE(RS.Ok) << RS.Error;
  ASSERT_TRUE(RR.Ok) << RR.Error;
  // Clamped at the limit, the doubled accumulator equals the single-delta
  // reference bit for bit; the function is NOT quarantined (saturation is
  // a diagnosed precision loss, not bad data).
  expectBitIdentical(*Prog, *RS.Analysis, *RR.Analysis);
  EXPECT_FALSE(S->isQuarantined(*LeafA));

  // The lower-bounds warning names the function and fires exactly once,
  // even after further saturating deltas.
  S->accumulateTotals(*LeafA, Limit);
  ASSERT_TRUE(S->estimateEntry().Ok);
  std::string Log = D1.str();
  size_t First = Log.find("saturated at 2^53");
  ASSERT_NE(First, std::string::npos) << Log;
  EXPECT_NE(Log.find("leafa"), std::string::npos) << Log;
  EXPECT_EQ(Log.find("saturated at 2^53", First + 1), std::string::npos)
      << Log;
}

TEST(EstimationSession, InjectedCounterCorruptionQuarantinesThatFunction) {
  std::unique_ptr<Program> Prog = parseDiamond();
  ObsRegistry Obs;
  DiagnosticEngine Diags;
  auto S = runSession(*Prog, 1, Diags, BadProfilePolicy::Quarantine, &Obs);
  ASSERT_NE(S, nullptr);

  // Poison the first recovery (program order: leafa) through the seeded
  // harness — the exact in-memory path PTRAN_FAULT=counter.corrupt=1
  // takes in production.
  EstimateResult R;
  {
    ScopedFaultInjection FI("seed=9,counter.corrupt=1");
    ASSERT_TRUE(FI.ok()) << FI.error();
    R = S->estimateEntry();
  }
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(S->quarantined().size(), 1u);
  EXPECT_GE(Obs.counterValue("session.quarantined_functions"), 1u);

  // Same injection under Fail: the query reports the failure instead.
  DiagnosticEngine D2;
  auto Strict = runSession(*Prog, 1, D2, BadProfilePolicy::Fail);
  ASSERT_NE(Strict, nullptr);
  EstimateResult R2;
  {
    ScopedFaultInjection FI("seed=9,counter.corrupt=1");
    ASSERT_TRUE(FI.ok()) << FI.error();
    R2 = Strict->estimateEntry();
  }
  EXPECT_FALSE(R2.Ok);
}

TEST(EstimationSession, IngestReportsObservabilityCounters) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine RunDiags;
  auto Producer = runSession(*Prog, 1, RunDiags);
  ASSERT_NE(Producer, nullptr);
  ProfileFile Clean = Producer->captureProfile();
  ProfileFile Corrupt = Clean;
  Corrupt.sectionsMutable()[0].Valid = false;
  Corrupt.sectionsMutable()[0].Issue = "section checksum mismatch";

  ObsRegistry Obs;
  DiagnosticEngine Diags;
  auto S = runSession(*Prog, 0, Diags, BadProfilePolicy::Quarantine, &Obs);
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->ingestProfile(Clean).Ok);
  ASSERT_TRUE(S->ingestProfile(Corrupt).Ok);

  EXPECT_EQ(Obs.counterValue("session.ingest.profiles"), 2u);
  EXPECT_EQ(Obs.counterValue("session.ingest.sections"), 8u);
  // Second ingest: 3 clean sections fold, 1 quarantines.
  EXPECT_EQ(Obs.counterValue("session.ingest.accepted"), 7u);
  EXPECT_EQ(Obs.counterValue("session.ingest.quarantined"), 1u);
}

TEST(EstimationSession, LongRunKeepsTheSpanWindowBoundedAndCountersExact) {
  // A daemon's session ingests and answers for as long as it lives: the
  // registry it reports into must hold a bounded span window while its
  // counters keep counting every request.
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine RunDiags;
  auto Producer = runSession(*Prog, 1, RunDiags);
  ASSERT_NE(Producer, nullptr);
  ProfileFile Profile = Producer->captureProfile();
  const uint64_t Sections = Profile.sections().size();

  ObsRegistry Obs;
  DiagnosticEngine Diags;
  auto S = runSession(*Prog, 0, Diags, BadProfilePolicy::Quarantine, &Obs);
  ASSERT_NE(S, nullptr);
  const uint64_t Target = 5 * ObsRegistry::SpanCapacity;
  uint64_t Cycles = 0;
  while (Obs.spansRecorded() < Target) {
    ASSERT_TRUE(S->ingestProfile(Profile).Ok);
    ASSERT_TRUE(S->estimateEntry().Ok);
    ++Cycles;
    ASSERT_LT(Cycles, Target) << "ingests stopped recording spans";
  }
  EXPECT_EQ(Obs.spans().size(), ObsRegistry::SpanCapacity);
  EXPECT_EQ(Obs.counterValue("session.ingest.profiles"), Cycles);
  EXPECT_EQ(Obs.counterValue("session.ingest.sections"), Cycles * Sections);
  EXPECT_EQ(Obs.counterValue("session.ingest.accepted"), Cycles * Sections);
  EXPECT_EQ(Obs.counterValue("session.ingest.quarantined"), 0u);
  EXPECT_EQ(Obs.counterValue("session.queries"), Cycles);
}

TEST(EstimationSession, CsrSweepDoesNotAllocateOnWarmQueries) {
  // The CSR kernel's TIME/VAR sweep runs on preallocated arena arrays and
  // dense buffers; the cost.hotpath.allocs counter (fed by the global
  // operator-new hook around the sweep) proves zero heap allocations per
  // query — cold and warm alike.
  std::unique_ptr<Program> Prog = parseDiamond();
  ObsRegistry Obs;
  DiagnosticEngine Diags;
  auto S = runSession(*Prog, 1, Diags, BadProfilePolicy::Quarantine, &Obs);
  ASSERT_NE(S, nullptr);

  EstimateResult Cold = S->estimateEntry();
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_GT(S->lastEvaluations(), 0u);
  EXPECT_EQ(Obs.counterValue("cost.hotpath.allocs"), 0u);

  // Warm path: dirty one leaf so the next query re-sweeps {leafa, mid,
  // main}; the sweep itself must still be allocation-free.
  const Function *Leaf = Prog->findFunction("leafa");
  ASSERT_NE(Leaf, nullptr);
  uint64_t EvalsBefore = S->totalEvaluations();
  S->accumulateTotals(*Leaf, invocationDelta(*S, *Leaf));
  EstimateResult Warm = S->estimateEntry();
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_GT(S->totalEvaluations(), EvalsBefore);
  EXPECT_EQ(Obs.counterValue("cost.hotpath.allocs"), 0u);
}

TEST(EstimationSession, NaiveProfilesIngestOnShapeAndValuesAlone) {
  // Naive counters recover no branch totals: an unsupported
  // configuration, not bad data. A naive capture therefore ingests whole
  // and quarantines nothing, and the session then fails its estimate
  // exactly as the session that made the runs does.
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(3, 2);
  auto Naive = [&](DiagnosticEngine &Diags) {
    return EstimationSession::create(
        *Prog, CostModel::optimizing(),
        EstimatorOptions(Diags)
            .mode(ProfileMode::Naive)
            .onBadProfile(BadProfilePolicy::Quarantine));
  };
  DiagnosticEngine D1, D2;
  auto Producer = Naive(D1);
  auto Consumer = Naive(D2);
  ASSERT_TRUE(Producer && Consumer);
  ASSERT_TRUE(Producer->profiledRun().Ok);
  EstimateResult Want = Producer->estimateEntry();
  ASSERT_FALSE(Want.Ok);

  ProfileIngestReport Report =
      Consumer->ingestProfile(Producer->captureProfile());
  ASSERT_TRUE(Report.Ok) << Report.Error;
  EXPECT_EQ(Report.Accepted, 3u);
  EXPECT_TRUE(Report.Quarantined.empty());
  EXPECT_TRUE(Report.Findings.empty());
  EXPECT_TRUE(Consumer->quarantined().empty());
  EstimateResult Got = Consumer->estimateEntry();
  EXPECT_FALSE(Got.Ok);
  EXPECT_EQ(Got.Error, Want.Error);
  EXPECT_EQ(Consumer->captureProfile().serialize(),
            Producer->captureProfile().serialize());
}

TEST(EstimationSession, LockFreeReadsSeeAPrefixOfAcknowledgedIngests) {
  // Reader threads race K ingests on one session. Every read must equal
  // the reference TIME of some prefix 0..K of the ingests (one published
  // view is one consistent cut), and a read that starts after ingest k
  // was acknowledged must see a prefix of at least k (read-your-writes).
  constexpr unsigned K = 6;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(15, 1);
  DiagnosticEngine PD;
  auto Producer = runSession(*Prog, 1, PD);
  ASSERT_NE(Producer, nullptr);
  const ProfileFile PF = Producer->captureProfile();

  // Identical runs scale every total alike and leave TIME unchanged, so
  // each session starts from a partial delta that skews one branch of
  // main; every ingest dilutes the skew and moves TIME.
  const Function *Main = Prog->entry();
  FrequencyTotals Skew;
  const std::vector<ControlCondition> &MainConds =
      Producer->estimator().analysis().of(*Main).cd().conditions();
  Skew.Cond.assign(MainConds.size(), 0.0);
  for (size_t C = 0; C < MainConds.size(); ++C)
    if (MainConds[C].Label == CfgLabel::T) {
      Skew.Cond[C] = 1000.0;
      break;
    }
  ASSERT_EQ(std::count(Skew.Cond.begin(), Skew.Cond.end(), 1000.0), 1);
  auto Fresh = [&](DiagnosticEngine &Diags) {
    auto S = runSession(*Prog, 1, Diags);
    S->accumulateTotals(*Main, Skew);
    return S;
  };

  std::vector<double> PrefixTime;
  for (unsigned Prefix = 0; Prefix <= K; ++Prefix) {
    DiagnosticEngine Diags;
    auto Ref = Fresh(Diags);
    for (unsigned I = 0; I < Prefix; ++I)
      ASSERT_TRUE(Ref->ingestProfile(PF).Ok);
    EstimateResult R = Ref->estimateEntry();
    ASSERT_TRUE(R.Ok) << R.Error;
    PrefixTime.push_back(R.Time);
  }
  // The test has teeth only if the prefixes are distinguishable.
  ASSERT_EQ(std::set<double>(PrefixTime.begin(), PrefixTime.end()).size(),
            K + 1);

  DiagnosticEngine Diags;
  auto S = Fresh(Diags);
  // The first read publishes the view the racing reads are answered from.
  ASSERT_TRUE(S->estimateEntry().Ok);
  const uint64_t HitsBefore = S->cacheHits();
  std::atomic<unsigned> Acked{0};
  std::atomic<bool> Done{false};
  std::vector<std::jthread> Readers;
  for (int T = 0; T < 3; ++T)
    Readers.emplace_back([&] {
      do {
        unsigned Floor = Acked.load(std::memory_order_acquire);
        EstimateResult R = S->estimateEntry();
        ASSERT_TRUE(R.Ok) << R.Error;
        auto It = std::find(PrefixTime.begin(), PrefixTime.end(), R.Time);
        ASSERT_NE(It, PrefixTime.end())
            << "TIME " << R.Time << " matches no prefix of the ingests";
        EXPECT_GE(static_cast<unsigned>(It - PrefixTime.begin()), Floor)
            << "a read missed an acknowledged ingest";
      } while (!Done.load(std::memory_order_acquire));
    });
  for (unsigned I = 1; I <= K; ++I) {
    ASSERT_TRUE(S->ingestProfile(PF).Ok);
    Acked.store(I, std::memory_order_release);
  }
  Done.store(true, std::memory_order_release);
  Readers.clear();

  EstimateResult Last = S->estimateEntry();
  ASSERT_TRUE(Last.Ok) << Last.Error;
  EXPECT_EQ(std::bit_cast<uint64_t>(Last.Time),
            std::bit_cast<uint64_t>(PrefixTime[K]));
  EXPECT_GT(S->cacheHits(), HitsBefore);
}

} // namespace
