//===--- tests/resilience_test.cpp - Deadlines, budgets, retrying IO ------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the resilience layer: CancelToken trip conditions and message
// structure, the deterministic backoff schedule, retryWithBackoff's
// attempt taxonomy, retry-wrapped profile IO under injected transient
// failures, token-aware passes (analysis, recovery, time analysis), and
// the session-level deadline policies — Fail must be atomic, Degrade must
// keep completed functions bit-identical to an unbounded run.
//
// Wall clocks are nondeterministic, so every pipeline test trips its token
// through the step budget instead of a real deadline.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "cost/Estimator.h"
#include "obs/Observability.h"
#include "profile/ProfileFile.h"
#include "session/EstimationSession.h"
#include "support/Cancellation.h"
#include "support/FaultInjection.h"
#include "support/Retry.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

using namespace ptran;

namespace {

//===--- CancelToken ------------------------------------------------------===//

TEST(CancelToken, StartsLiveAndCountsPolls) {
  CancelToken T;
  EXPECT_FALSE(T.expired());
  EXPECT_EQ(T.reason(), CancelReason::None);
  EXPECT_FALSE(T.checkpoint());
  EXPECT_FALSE(T.checkpoint(5));
  EXPECT_EQ(T.polls(), 2u);
  EXPECT_EQ(T.stepsUsed(), 6u);
}

TEST(CancelToken, RequestCancelTripsStickyAndFirstReasonWins) {
  CancelToken T;
  T.requestCancel();
  EXPECT_TRUE(T.expired());
  EXPECT_EQ(T.reason(), CancelReason::Cancelled);
  // A later deadline cannot replace the first reason.
  T.setDeadlineIn(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(T.checkpoint());
  EXPECT_EQ(T.reason(), CancelReason::Cancelled);
}

TEST(CancelToken, PastDeadlineTripsAtTheNextPoll) {
  CancelToken T;
  T.setDeadlineIn(std::chrono::nanoseconds(-1));
  // expired() is a pure load; only checkpoint() reads the clock.
  EXPECT_FALSE(T.expired());
  EXPECT_TRUE(T.checkpoint());
  EXPECT_EQ(T.reason(), CancelReason::Deadline);
}

TEST(CancelToken, StepBudgetTripsDeterministically) {
  CancelToken T;
  T.setStepBudget(10);
  for (int I = 0; I < 10; ++I)
    EXPECT_FALSE(T.checkpoint()) << "step " << I;
  EXPECT_TRUE(T.checkpoint());
  EXPECT_EQ(T.reason(), CancelReason::StepBudget);
}

TEST(CancelToken, ResetRevivesTheToken) {
  CancelToken T;
  T.setStepBudget(1);
  T.checkpoint(2);
  EXPECT_TRUE(T.expired());
  T.reset();
  EXPECT_FALSE(T.expired());
  EXPECT_EQ(T.polls(), 0u);
  EXPECT_EQ(T.stepsUsed(), 0u);
  EXPECT_FALSE(T.checkpoint(100)); // Budget cleared too.
}

TEST(CancelToken, MessagesAreStructuredAndGreppable) {
  CancelToken Deadline;
  Deadline.setDeadlineIn(std::chrono::nanoseconds(-1));
  Deadline.checkpoint();
  std::string M = cancelMessage(Deadline, "time analysis");
  EXPECT_NE(M.find("timeout: "), std::string::npos) << M;
  EXPECT_NE(M.find("time analysis cut short"), std::string::npos) << M;
  EXPECT_NE(M.find("deadline"), std::string::npos) << M;

  CancelToken Cancelled;
  Cancelled.requestCancel();
  EXPECT_NE(cancelMessage(Cancelled, "ingest").find("cancelled: "),
            std::string::npos);

  CancelToken Steps;
  Steps.setStepBudget(1);
  Steps.checkpoint(5);
  EXPECT_NE(cancelMessage(Steps, "x").find("step budget exhausted"),
            std::string::npos);
}

//===--- Backoff + retry --------------------------------------------------===//

TEST(Backoff, SequenceIsReproducibleForAFixedSeed) {
  RetryPolicy P = RetryPolicy().retries(8).jitterSeed(42);
  BackoffSchedule A(P), B(P);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(A.next().count(), B.next().count()) << "retry " << I;

  // A different seed must produce a different sequence somewhere.
  BackoffSchedule C(P), D(RetryPolicy().retries(8).jitterSeed(43));
  bool AnyDifference = false;
  for (int I = 0; I < 8; ++I)
    AnyDifference |= C.next() != D.next();
  EXPECT_TRUE(AnyDifference);
}

TEST(Backoff, GrowsGeometricallyWithinJitterBoundsAndCaps) {
  RetryPolicy P;
  P.BaseDelay = std::chrono::microseconds(1000);
  P.Multiplier = 2.0;
  P.MaxDelay = std::chrono::microseconds(100000);
  BackoffSchedule S(P);
  double NominalUs = 1000.0;
  for (int I = 0; I < 10; ++I) {
    double Cap = std::min(NominalUs, 100000.0);
    int64_t D = S.next().count();
    EXPECT_GE(D, static_cast<int64_t>(Cap * 0.5) - 1) << "retry " << I;
    EXPECT_LE(D, static_cast<int64_t>(Cap)) << "retry " << I;
    NominalUs *= 2.0;
  }
}

TEST(Retry, TransientFailuresAreAbsorbedUpToTheBudget) {
  int Calls = 0;
  std::vector<std::chrono::microseconds> Slept;
  RetryOutcome O = retryWithBackoff(
      RetryPolicy().retries(2),
      [&] {
        return ++Calls < 3 ? AttemptResult::Transient
                           : AttemptResult::Success;
      },
      nullptr, nullptr,
      [&](std::chrono::microseconds D) { Slept.push_back(D); });
  EXPECT_TRUE(O.Ok);
  EXPECT_EQ(O.Attempts, 3u);
  EXPECT_EQ(O.Retries, 2u);
  EXPECT_EQ(Slept.size(), 2u);
}

TEST(Retry, OneFailureMoreThanTheBudgetSurfaces) {
  int Calls = 0;
  RetryOutcome O = retryWithBackoff(
      RetryPolicy().retries(2), [&] { ++Calls; return AttemptResult::Transient; },
      nullptr, nullptr, [](std::chrono::microseconds) {});
  EXPECT_FALSE(O.Ok);
  EXPECT_FALSE(O.PermanentFailure);
  EXPECT_EQ(Calls, 3);
  EXPECT_EQ(O.Attempts, 3u);
}

TEST(Retry, PermanentFailuresAreNeverRetried) {
  int Calls = 0;
  RetryOutcome O = retryWithBackoff(
      RetryPolicy().retries(5), [&] { ++Calls; return AttemptResult::Permanent; },
      nullptr, nullptr, [](std::chrono::microseconds) {});
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.PermanentFailure);
  EXPECT_EQ(Calls, 1);
}

TEST(Retry, AnExpiredTokenStopsTheEpisode) {
  CancelToken T;
  T.requestCancel();
  int Calls = 0;
  RetryOutcome O = retryWithBackoff(
      RetryPolicy().retries(5), [&] { ++Calls; return AttemptResult::Transient; },
      &T, nullptr, [](std::chrono::microseconds) {});
  EXPECT_FALSE(O.Ok);
  EXPECT_EQ(O.CancelledBy, CancelReason::Cancelled);
  EXPECT_EQ(Calls, 1);
}

TEST(Retry, BackoffSleepIsClampedToTheRemainingDeadline) {
  // Regression: the backoff sleep used to honor the full jittered delay
  // even when the token's wall-clock deadline was closer, so a retrying
  // load could oversleep its deadline by the whole backoff (up to
  // MaxDelay). Each sleep must be clamped to the time left.
  CancelToken T;
  T.setDeadlineIn(std::chrono::milliseconds(50));
  std::vector<std::chrono::microseconds> Slept;
  RetryOutcome O = retryWithBackoff(
      // Base delay 1s: unclamped, the first sleep would be >= 500ms even
      // at the jitter floor — an order of magnitude past the deadline.
      RetryPolicy().retries(3).baseDelay(std::chrono::seconds(1)),
      [] { return AttemptResult::Transient; }, &T, nullptr,
      [&](std::chrono::microseconds D) { Slept.push_back(D); });
  EXPECT_FALSE(O.Ok);
  ASSERT_FALSE(Slept.empty());
  for (std::chrono::microseconds D : Slept)
    EXPECT_LE(D, std::chrono::milliseconds(50))
        << "a backoff sleep outlived the deadline";
}

TEST(Retry, NoAttemptStartsAfterTheDeadlineExpires) {
  // Regression: after sleeping, the loop used to fire the next attempt
  // without re-polling the token, so an IO attempt could start after the
  // deadline had already passed during the sleep. The sleeper here
  // deliberately oversleeps the (clamped) delay past the deadline: the
  // re-poll must catch the expiry and report it, with exactly the one
  // pre-deadline attempt performed.
  CancelToken T;
  T.setDeadlineIn(std::chrono::milliseconds(30));
  int Calls = 0;
  RetryOutcome O = retryWithBackoff(
      RetryPolicy().retries(5).baseDelay(std::chrono::seconds(1)),
      [&] {
        ++Calls;
        return AttemptResult::Transient;
      },
      &T, nullptr,
      [](std::chrono::microseconds D) {
        std::this_thread::sleep_for(D + std::chrono::milliseconds(60));
      });
  EXPECT_FALSE(O.Ok);
  EXPECT_EQ(O.CancelledBy, CancelReason::Deadline);
  EXPECT_EQ(Calls, 1) << "an attempt started on an expired token";
  EXPECT_EQ(O.Attempts, 1u);
  EXPECT_EQ(O.Retries, 1u); // The episode performed (and counted) the sleep.
}

//===--- Fault-injection ranges -------------------------------------------===//

TEST(FaultRange, FiresOnEveryOpportunityInTheRange) {
  ScopedFaultInjection FI("io.fail=2-3");
  ASSERT_TRUE(FI.ok()) << FI.error();
  FaultInjection &I = FaultInjection::instance();
  EXPECT_FALSE(I.shouldFire(FaultInjection::Site::FileIo)); // 1st
  EXPECT_TRUE(I.shouldFire(FaultInjection::Site::FileIo));  // 2nd
  EXPECT_TRUE(I.shouldFire(FaultInjection::Site::FileIo));  // 3rd
  EXPECT_FALSE(I.shouldFire(FaultInjection::Site::FileIo)); // 4th
  EXPECT_EQ(I.firedCount(FaultInjection::Site::FileIo), 2u);
}

TEST(FaultRange, MalformedRangesAreRejected) {
  {
    ScopedFaultInjection FI("io.fail=3-2"); // Hi < Lo
    EXPECT_FALSE(FI.ok());
  }
  {
    ScopedFaultInjection FI("io.fail=0-2"); // Opportunities are 1-based.
    EXPECT_FALSE(FI.ok());
  }
}

TEST(FaultGrammar, ScientificNotationIsAProbability) {
  // Regression: the grammar classified a value as a probability only when
  // it contained a '.', so `io.fail=1e-1` fell into the integer parser and
  // died with a misleading "opportunity index >= 1" error.
  {
    ScopedFaultInjection FI("seed=7,io.fail=1e-1");
    ASSERT_TRUE(FI.ok()) << FI.error();
    FaultInjection &I = FaultInjection::instance();
    uint64_t Fired = 0;
    for (int K = 0; K < 1000; ++K)
      Fired += I.shouldFire(FaultInjection::Site::FileIo) ? 1 : 0;
    // p = 0.1 over 1000 seeded draws: comfortably away from 0 and 1000.
    EXPECT_GT(Fired, 0u);
    EXPECT_LT(Fired, 500u);
  }
  {
    ScopedFaultInjection FI("io.fail=1e0"); // Probability one: always fires.
    ASSERT_TRUE(FI.ok()) << FI.error();
    EXPECT_TRUE(FaultInjection::maybeFailIo());
    EXPECT_TRUE(FaultInjection::maybeFailIo());
  }
  {
    ScopedFaultInjection FI("io.fail=2.5E-2"); // Capital exponent too.
    ASSERT_TRUE(FI.ok()) << FI.error();
  }
}

TEST(FaultGrammar, BareZeroDisablesTheSite) {
  // Regression: `io.fail=0` was rejected outright, so a spec inherited
  // from the environment could not switch one site off. A bare 0 is
  // probability zero: the site is disabled, overriding earlier entries.
  {
    ScopedFaultInjection FI("io.fail=0");
    ASSERT_TRUE(FI.ok()) << FI.error();
    EXPECT_FALSE(FaultInjection::armed());
    EXPECT_FALSE(FaultInjection::maybeFailIo());
  }
  {
    // The later entry wins: the site armed by `io.fail=1` is disarmed.
    ScopedFaultInjection FI("io.fail=1,io.fail=0");
    ASSERT_TRUE(FI.ok()) << FI.error();
    EXPECT_FALSE(FaultInjection::maybeFailIo());
  }
  {
    // Other sites stay armed when one is zeroed.
    ScopedFaultInjection FI("pool.throw=1,io.fail=0");
    ASSERT_TRUE(FI.ok()) << FI.error();
    EXPECT_TRUE(FaultInjection::armed());
    EXPECT_FALSE(FaultInjection::maybeFailIo());
  }
}

TEST(FaultGrammar, IntegerErrorMessageMentionsEveryAcceptedForm) {
  ScopedFaultInjection FI("io.fail=abc");
  EXPECT_FALSE(FI.ok());
  EXPECT_NE(FI.error().find("1e-1 or 0"), std::string::npos) << FI.error();
}

//===--- Retry-wrapped profile IO -----------------------------------------===//

/// A profile captured from one run of the simple kernel.
ProfileFile captureSimpleProfile(std::unique_ptr<Program> &ProgOut) {
  ProgOut = parseWorkload(simpleKernel());
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est =
      Estimator::create(*ProgOut, CostModel::optimizing(),
                        EstimatorOptions(Diags));
  EXPECT_NE(Est, nullptr) << Diags.str();
  EXPECT_TRUE(Est->profiledRun().Ok);
  return ProfileFile::capture(Est->analysis(), Est->plan(), Est->runtime(),
                              &Est->loopStats(), 1);
}

std::vector<uint8_t> slurp(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  Bytes.resize(static_cast<size_t>(std::ftell(F)));
  std::fseek(F, 0, SEEK_SET);
  EXPECT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
  return Bytes;
}

TEST(ProfileIoRetry, TwoTransientFailuresAbsorbedBitIdentically) {
  std::unique_ptr<Program> Prog;
  ProfileFile PF = captureSimpleProfile(Prog);
  const std::string Path = "resilience_retry_profile.ptpf";
  RetryPolicy Retry =
      RetryPolicy().retries(2).baseDelay(std::chrono::microseconds(1));

  // Clean reference image.
  ASSERT_TRUE(PF.saveToFile(Path, nullptr));
  std::vector<uint8_t> Reference = slurp(Path);
  ASSERT_FALSE(Reference.empty());

  // Attempts 1 and 2 fail, attempt 3 succeeds: fully absorbed, and the
  // bytes on disk are identical to the clean write.
  {
    ScopedFaultInjection FI("io.fail=1-2");
    ASSERT_TRUE(FI.ok()) << FI.error();
    DiagnosticEngine Diags;
    EXPECT_TRUE(PF.saveToFile(Path, &Diags, Retry));
    EXPECT_NE(Diags.str().find("succeeded after 2 retried transient"),
              std::string::npos)
        << Diags.str();
  }
  EXPECT_EQ(slurp(Path), Reference);

  // Loading through two transient failures works the same way.
  {
    ScopedFaultInjection FI("io.fail=1-2");
    ASSERT_TRUE(FI.ok()) << FI.error();
    DiagnosticEngine Diags;
    std::optional<ProfileFile> Loaded =
        ProfileFile::loadFromFile(Path, &Diags, Retry);
    ASSERT_TRUE(Loaded.has_value()) << Diags.str();
    EXPECT_EQ(Loaded->serialize(), PF.serialize());
  }
  std::remove(Path.c_str());
}

TEST(ProfileIoRetry, OneFailureBeyondTheBudgetSurfacesADiagnostic) {
  std::unique_ptr<Program> Prog;
  ProfileFile PF = captureSimpleProfile(Prog);
  const std::string Path = "resilience_retry_fail.ptpf";
  RetryPolicy Retry =
      RetryPolicy().retries(2).baseDelay(std::chrono::microseconds(1));

  ScopedFaultInjection FI("io.fail=1-3"); // All three attempts fail.
  ASSERT_TRUE(FI.ok()) << FI.error();
  DiagnosticEngine Diags;
  EXPECT_FALSE(PF.saveToFile(Path, &Diags, Retry));
  EXPECT_NE(Diags.str().find("persisted across 3 attempts"),
            std::string::npos)
      << Diags.str();
  std::remove(Path.c_str());
}

//===--- Token-aware passes -----------------------------------------------===//

TEST(Resilience, PreCancelledAnalysisSkipsEveryFunction) {
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(7, 2);
  CancelToken Token;
  Token.requestCancel();
  DiagnosticEngine Diags;
  AnalysisOptions Opts;
  Opts.Cancel = &Token;
  std::unique_ptr<ProgramAnalysis> PA =
      ProgramAnalysis::compute(*Prog, Diags, Opts);
  ASSERT_NE(PA, nullptr);
  EXPECT_TRUE(PA->cutShort());
  EXPECT_FALSE(PA->allOk());
  EXPECT_EQ(PA->skipped().size(), Prog->functions().size());
  EXPECT_NE(Diags.str().find("cancelled: program analysis cut short"),
            std::string::npos)
      << Diags.str();

  // The estimator refuses to build on a cut-short analysis under every
  // policy: without FCDGs there are no static frequencies to degrade to.
  DiagnosticEngine EDiags;
  EXPECT_EQ(Estimator::create(*Prog, CostModel::optimizing(),
                              EstimatorOptions(EDiags).cancel(Token)),
            nullptr);
  EXPECT_NE(EDiags.str().find("cut short"), std::string::npos);
}

TEST(Resilience, RecoveryFixpointHonorsAnExpiredToken) {
  std::unique_ptr<Program> Prog = parseWorkload(simpleKernel());
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = Estimator::create(
      *Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr);
  ASSERT_TRUE(Est->profiledRun().Ok);
  const Function &F = *Prog->entry();
  ASSERT_TRUE(Est->runtime().recover(F).Ok);
  CancelToken Token;
  Token.requestCancel();
  EXPECT_FALSE(Est->runtime().recover(F, &Token).Ok);
}

//===--- Session deadline policies ----------------------------------------===//

struct SessionPair {
  std::unique_ptr<Program> Prog;
  DiagnosticEngine RefDiags;
  std::unique_ptr<EstimationSession> Ref;
  EstimateResult RefRes;
  DiagnosticEngine Diags;
  CancelToken Token;
  std::unique_ptr<EstimationSession> S;
};

/// An unbounded reference session plus a token-carrying session over the
/// same deterministic workload, both after one profiled run. The token is
/// reset after creation so the test arms exactly the budget it wants.
std::unique_ptr<SessionPair> makeSessions(DeadlinePolicy Policy,
                                          ObsRegistry *Obs = nullptr) {
  auto P = std::make_unique<SessionPair>();
  P->Prog = makeManyFunctionProgram(15, 2);
  CostModel CM = CostModel::optimizing();
  P->Ref = EstimationSession::create(*P->Prog, CM,
                                     EstimatorOptions(P->RefDiags));
  EXPECT_NE(P->Ref, nullptr);
  EXPECT_TRUE(P->Ref->profiledRun().Ok);
  P->RefRes = P->Ref->estimateEntry();
  EXPECT_TRUE(P->RefRes.Ok) << P->RefRes.Error;

  EstimatorOptions EOpts =
      EstimatorOptions(P->Diags).cancel(P->Token).onDeadline(Policy);
  if (Obs)
    EOpts.observability(*Obs);
  P->S = EstimationSession::create(*P->Prog, CM, EOpts);
  EXPECT_NE(P->S, nullptr);
  EXPECT_TRUE(P->S->profiledRun().Ok);
  // Analysis consumed unbudgeted steps during create; start clean so the
  // budgets below are exact.
  P->Token.reset();
  return P;
}

void expectFunctionBitIdentical(const Function &F, const TimeAnalysis &A,
                                const TimeAnalysis &B) {
  const std::vector<NodeEstimates> &EA = A.estimatesOf(F);
  const std::vector<NodeEstimates> &EB = B.estimatesOf(F);
  ASSERT_EQ(EA.size(), EB.size()) << F.name();
  EXPECT_EQ(
      std::memcmp(EA.data(), EB.data(), EA.size() * sizeof(NodeEstimates)),
      0)
      << "estimates of " << F.name() << " differ bitwise";
}

TEST(DeadlinePolicyTest, DegradeCompletesTheQueryAndTagsUnfinished) {
  ObsRegistry Obs;
  std::unique_ptr<SessionPair> P =
      makeSessions(DeadlinePolicy::Degrade, &Obs);
  // 15 steps cover the per-function input refresh; the budget trips a few
  // components into the time analysis, leaving the tail unfinished.
  P->Token.setStepBudget(20);
  EstimateResult Res = P->S->estimateEntry();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_FALSE(P->S->degraded().empty());
  // Unfinished sets are closed under "callers of", so the entry is always
  // degraded when anything is — and its result is tagged.
  EXPECT_TRUE(P->S->isDegraded(*P->Prog->entry()));
  EXPECT_TRUE(Res.Degraded);
  EXPECT_FALSE(Res.DegradeReason.empty());

  // Everything the budgeted run completed is bit-identical to the
  // unbounded reference.
  unsigned Exact = 0;
  for (const auto &F : P->Prog->functions()) {
    if (P->S->isDegraded(*F))
      continue;
    ++Exact;
    expectFunctionBitIdentical(*F, *Res.Analysis, *P->RefRes.Analysis);
  }
  EXPECT_GT(Exact, 0u) << "budget tripped before any function completed";

  EXPECT_GT(Obs.counterValue("resilience.cancel_polls"), 0u);
  EXPECT_GT(Obs.counterValue("resilience.degraded_functions"), 0u);
  EXPECT_GT(Obs.counterValue("resilience.deadline_hits"), 0u);

  // Degradation is per-query: with the token reset, the next estimate
  // recomputes everything exactly.
  P->Token.reset();
  EstimateResult Clean = P->S->estimateEntry();
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_TRUE(P->S->degraded().empty());
  EXPECT_FALSE(Clean.Degraded);
  for (const auto &F : P->Prog->functions())
    expectFunctionBitIdentical(*F, *Clean.Analysis, *P->RefRes.Analysis);
}

TEST(DeadlinePolicyTest, DegradeCoversACutDuringInputRefresh) {
  std::unique_ptr<SessionPair> P = makeSessions(DeadlinePolicy::Degrade);
  // Fewer steps than functions: the cut lands inside refreshInputs and
  // every function whose recovery never ran degrades.
  P->Token.setStepBudget(5);
  EstimateResult Res = P->S->estimateEntry();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_FALSE(P->S->degraded().empty());
  for (const auto &F : P->Prog->functions())
    if (!P->S->isDegraded(*F))
      expectFunctionBitIdentical(*F, *Res.Analysis, *P->RefRes.Analysis);

  // The skipped recoveries really rerun next query: exact results again.
  P->Token.reset();
  EstimateResult Clean = P->S->estimateEntry();
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  for (const auto &F : P->Prog->functions())
    expectFunctionBitIdentical(*F, *Clean.Analysis, *P->RefRes.Analysis);
}

TEST(DeadlinePolicyTest, FailIsAtomicAndStructured) {
  std::unique_ptr<SessionPair> P = makeSessions(DeadlinePolicy::Fail);
  P->Token.setStepBudget(20);
  EstimateResult Res = P->S->estimateEntry();
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("timeout: "), std::string::npos) << Res.Error;
  EXPECT_NE(Res.Error.find("cut short"), std::string::npos) << Res.Error;
  EXPECT_TRUE(P->S->degraded().empty());

  // The failed query left no partial state behind: a fresh token yields
  // the exact unbounded answer.
  P->Token.reset();
  EstimateResult Clean = P->S->estimateEntry();
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  for (const auto &F : P->Prog->functions())
    expectFunctionBitIdentical(*F, *Clean.Analysis, *P->RefRes.Analysis);
}

TEST(DeadlinePolicyTest, CancelledBatchesFailWithTheCancelPrefix) {
  std::unique_ptr<SessionPair> P = makeSessions(DeadlinePolicy::Fail);
  P->Token.requestCancel();
  EstimateResult Res = P->S->estimateEntry();
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("cancelled: "), std::string::npos) << Res.Error;
}

TEST(DeadlinePolicyTest, IngestAbortsAtomicallyOnExpiry) {
  std::unique_ptr<SessionPair> P = makeSessions(DeadlinePolicy::Degrade);
  ProfileFile PF = P->Ref->captureProfile();
  P->Token.setStepBudget(3); // Trips partway through the sections.
  ProfileIngestReport Report = P->S->ingestProfile(PF);
  EXPECT_FALSE(Report.Ok);
  EXPECT_NE(Report.Error.find("profile ingest cut short"),
            std::string::npos)
      << Report.Error;
  EXPECT_EQ(Report.Accepted, 0u);

  // Nothing half-applied: the full ingest succeeds after a reset.
  P->Token.reset();
  ProfileIngestReport Clean = P->S->ingestProfile(PF);
  EXPECT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_GT(Clean.Accepted, 0u);
}

} // namespace
