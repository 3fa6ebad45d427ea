//===--- tests/profile_file_test.cpp - Durable profile robustness ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the fault-tolerant profile subsystem: serialize/deserialize and
// file round trips, the bit-flip property ("every single-byte corruption
// is diagnosed, never a crash or a silently wrong result"), saturating
// merge semantics, recovery's rejection of poisoned counters,
// and the deterministic fault-injection harness itself.
//
//===----------------------------------------------------------------------===//

#include "cost/Estimator.h"
#include "parser/Parser.h"
#include "profile/ProfileFile.h"
#include "profile/Recovery.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <gtest/gtest.h>

using namespace ptran;

namespace {

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

/// An estimator with \p Runs profiled runs accumulated (loop moments
/// included, so profiles carry both payload kinds).
std::unique_ptr<Estimator> runEstimator(const Program &Prog, unsigned Runs,
                                        DiagnosticEngine &Diags) {
  auto Est = Estimator::create(
      Prog, CostModel::optimizing(),
      EstimatorOptions(Diags).loopVariance(LoopVarianceMode::Profiled));
  EXPECT_NE(Est, nullptr) << Diags.str();
  for (unsigned R = 0; R < Runs; ++R)
    EXPECT_TRUE(Est->profiledRun().Ok);
  return Est;
}

ProfileFile captureOf(const Estimator &Est, uint32_t Runs) {
  return ProfileFile::capture(Est.analysis(), Est.plan(), Est.runtime(),
                              &Est.loopStats(), Runs);
}

void expectSectionsEqual(const ProfileFile &A, const ProfileFile &B) {
  ASSERT_EQ(A.sections().size(), B.sections().size());
  for (size_t I = 0; I < A.sections().size(); ++I) {
    const FunctionSection &SA = A.sections()[I];
    const FunctionSection &SB = B.sections()[I];
    EXPECT_EQ(SA.Name, SB.Name);
    EXPECT_EQ(SA.Fingerprint, SB.Fingerprint);
    EXPECT_TRUE(SB.Valid) << SB.Name << ": " << SB.Issue;
    ASSERT_EQ(SA.Counters.size(), SB.Counters.size()) << SA.Name;
    if (!SA.Counters.empty()) {
      EXPECT_EQ(std::memcmp(SA.Counters.data(), SB.Counters.data(),
                            SA.Counters.size() * sizeof(double)),
                0)
          << "counters of " << SA.Name << " differ bitwise";
    }
    ASSERT_EQ(SA.Loops.size(), SB.Loops.size()) << SA.Name;
    for (size_t L = 0; L < SA.Loops.size(); ++L) {
      EXPECT_EQ(SA.Loops[L].HeaderStmt, SB.Loops[L].HeaderStmt);
      EXPECT_EQ(SA.Loops[L].Entries, SB.Loops[L].Entries);
      EXPECT_EQ(SA.Loops[L].Sum, SB.Loops[L].Sum);
      EXPECT_EQ(SA.Loops[L].SumSq, SB.Loops[L].SumSq);
    }
  }
}

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

TEST(ProfileFile, SerializeRoundTrip) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = runEstimator(*Prog, 2, Diags);
  ProfileFile PF = captureOf(*Est, 2);
  ASSERT_EQ(PF.sections().size(), Prog->functions().size());
  EXPECT_EQ(PF.programFingerprint(), programFingerprintOf(Est->analysis()));

  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> Back =
      ProfileFile::deserialize(PF.serialize(), &LoadDiags);
  ASSERT_TRUE(Back.has_value()) << LoadDiags.str();
  EXPECT_TRUE(LoadDiags.diagnostics().empty()) << LoadDiags.str();
  EXPECT_EQ(Back->version(), PF.version());
  EXPECT_EQ(Back->programFingerprint(), PF.programFingerprint());
  EXPECT_EQ(Back->mode(), PF.mode());
  EXPECT_EQ(Back->runs(), 2u);
  expectSectionsEqual(PF, *Back);
}

TEST(ProfileFile, FileRoundTrip) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = runEstimator(*Prog, 1, Diags);
  ProfileFile PF = captureOf(*Est, 1);

  const std::string Path = tempPath("ptran_roundtrip.ptpf");
  DiagnosticEngine IoDiags;
  ASSERT_TRUE(PF.saveToFile(Path, &IoDiags)) << IoDiags.str();
  std::optional<ProfileFile> Back = ProfileFile::loadFromFile(Path, &IoDiags);
  ASSERT_TRUE(Back.has_value()) << IoDiags.str();
  expectSectionsEqual(PF, *Back);
  std::remove(Path.c_str());
}

TEST(ProfileFile, LoadFailsOnMissingFileAndGarbage) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(
      ProfileFile::loadFromFile("/nonexistent/dir/p.ptpf", &Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());

  // Garbage that is too short to even hold the magic.
  DiagnosticEngine D2;
  EXPECT_FALSE(ProfileFile::deserialize({0x50, 0x54}, &D2).has_value());
  EXPECT_TRUE(D2.hasErrors());
}

// The central robustness property: for EVERY byte of a serialized
// profile, flipping a bit of that byte must either fail the whole load
// with an error (header corruption) or mark at least one section invalid
// with a warning (payload corruption) — and every section that still
// reads as valid must be bit-identical to the original. No crash, no UB
// (the _ubsan suite entry reruns this under -fsanitize=undefined), and
// never a silently-accepted wrong result.
TEST(ProfileFile, EverySingleByteFlipIsDiagnosed) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = runEstimator(*Prog, 1, Diags);
  ProfileFile PF = captureOf(*Est, 1);
  const std::vector<uint8_t> Clean = PF.serialize();
  ASSERT_GT(Clean.size(), 0u);

  for (size_t I = 0; I < Clean.size(); ++I) {
    // CRC32 detects all single-bit errors; walk the bit position with the
    // byte index so every bit lane gets exercised across the file.
    const uint8_t Mask = static_cast<uint8_t>(1u << (I % 8));
    std::vector<uint8_t> Bad = Clean;
    Bad[I] ^= Mask;

    DiagnosticEngine FlipDiags;
    std::optional<ProfileFile> Loaded =
        ProfileFile::deserialize(Bad, &FlipDiags);
    if (!Loaded.has_value()) {
      EXPECT_TRUE(FlipDiags.hasErrors())
          << "byte " << I << ": rejected without an error diagnostic";
      continue;
    }
    unsigned Invalid = 0;
    for (const FunctionSection &S : Loaded->sections()) {
      if (!S.Valid) {
        ++Invalid;
        EXPECT_FALSE(S.Issue.empty()) << "byte " << I;
        continue;
      }
      // A surviving section must match the uncorrupted original exactly.
      const FunctionSection *Orig = PF.sectionFor(S.Name);
      ASSERT_NE(Orig, nullptr) << "byte " << I << ": section " << S.Name;
      ASSERT_EQ(S.Counters.size(), Orig->Counters.size()) << "byte " << I;
      if (!S.Counters.empty()) {
        EXPECT_EQ(std::memcmp(S.Counters.data(), Orig->Counters.data(),
                              S.Counters.size() * sizeof(double)),
                  0)
            << "byte " << I << ": silent corruption in " << S.Name;
      }
    }
    EXPECT_GT(Invalid, 0u)
        << "byte " << I << ": corruption accepted with no diagnostic";
    EXPECT_FALSE(FlipDiags.diagnostics().empty()) << "byte " << I;
  }
}

TEST(ProfileFile, MergeAccumulatesCounters) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  std::unique_ptr<Estimator> E1 = runEstimator(*Prog, 1, D1);
  std::unique_ptr<Estimator> E2 = runEstimator(*Prog, 2, D2);
  ProfileFile A = captureOf(*E1, 1);
  const ProfileFile B = captureOf(*E2, 2);

  DiagnosticEngine MD;
  ASSERT_TRUE(A.merge(B, &MD)) << MD.str();
  EXPECT_EQ(A.runs(), 3u);
  // The interpreter is deterministic: run counts scale linearly, so the
  // merged counters must equal three single-run captures.
  DiagnosticEngine D3;
  std::unique_ptr<Estimator> E3 = runEstimator(*Prog, 3, D3);
  expectSectionsEqual(captureOf(*E3, 3), A);
}

TEST(ProfileFile, MergeSaturatesAtTwoToTheFiftyThree) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  std::unique_ptr<Estimator> E1 = runEstimator(*Prog, 1, D1);
  std::unique_ptr<Estimator> E2 = runEstimator(*Prog, 1, D2);
  ProfileFile A = captureOf(*E1, 1);
  ProfileFile B = captureOf(*E2, 1);
  ASSERT_FALSE(A.sections().empty());
  ASSERT_FALSE(A.sections()[0].Counters.empty());
  A.sectionsMutable()[0].Counters[0] = ProfileFile::SaturationLimit - 1.0;
  B.sectionsMutable()[0].Counters[0] = ProfileFile::SaturationLimit - 1.0;

  DiagnosticEngine MD;
  ASSERT_TRUE(A.merge(B, &MD));
  EXPECT_EQ(A.sections()[0].Counters[0], ProfileFile::SaturationLimit);
  bool Warned = false;
  for (const Diagnostic &D : MD.diagnostics())
    Warned |= D.Message.find("saturated") != std::string::npos;
  EXPECT_TRUE(Warned) << MD.str();
}

TEST(ProfileFile, MergeRejectsDifferentProgram) {
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
  std::unique_ptr<Estimator> E1 = runEstimator(*Prog, 1, D1);
  std::unique_ptr<Estimator> E2 = runEstimator(*Other, 1, D2);
  ProfileFile A = captureOf(*E1, 1);
  const ProfileFile B = captureOf(*E2, 1);

  DiagnosticEngine MD;
  EXPECT_FALSE(A.merge(B, &MD));
  EXPECT_TRUE(MD.hasErrors());
}

TEST(ProfileFile, MergeSkipsFingerprintMismatchedSection) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  std::unique_ptr<Estimator> E1 = runEstimator(*Prog, 1, D1);
  std::unique_ptr<Estimator> E2 = runEstimator(*Prog, 1, D2);
  ProfileFile A = captureOf(*E1, 1);
  ProfileFile B = captureOf(*E2, 1);
  const std::vector<double> Before = A.sections()[0].Counters;
  B.sectionsMutable()[0].Fingerprint ^= 1;

  DiagnosticEngine MD;
  ASSERT_TRUE(A.merge(B, &MD)); // other sections still merge
  EXPECT_EQ(A.sections()[0].Counters, Before);
  bool Warned = false;
  for (const Diagnostic &D : MD.diagnostics())
    Warned |= D.Message.find("fingerprint") != std::string::npos;
  EXPECT_TRUE(Warned) << MD.str();
}

// Contradictory counters (here all NaN) must fail recovery with a
// diagnostic: the value check on node totals rejects them, with the
// message the fixpoint solver it replaced gave when it never settled.
TEST(Recovery, PoisonedCountersTerminateWithDiagnostic) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = runEstimator(*Prog, 1, Diags);
  const Function &Main = *Prog->entry();
  const FunctionPlan &Plan = Est->plan().of(Main);
  std::vector<double> Counters(Plan.numCounters(),
                               std::numeric_limits<double>::quiet_NaN());

  DiagnosticEngine RD;
  FrequencyTotals T =
      recoverTotals(Est->analysis().of(Main), Plan, Counters, &RD);
  EXPECT_FALSE(T.Ok);
  bool Reported = false;
  for (const Diagnostic &D : RD.diagnostics())
    Reported |= D.Message.find("did not converge") != std::string::npos;
  EXPECT_TRUE(Reported) << RD.str();
}

//===--- fault-injection harness ------------------------------------------===//

TEST(FaultInjection, MalformedSpecIsRejectedAndDisarmed) {
  {
    ScopedFaultInjection FI("pool.throw=zebra");
    EXPECT_FALSE(FI.ok());
    EXPECT_FALSE(FI.error().empty());
    EXPECT_FALSE(FaultInjection::armed());
  }
  {
    ScopedFaultInjection FI("frobnicate=1");
    EXPECT_FALSE(FI.ok());
  }
  {
    ScopedFaultInjection FI("io.fail=1.5"); // probability out of range
    EXPECT_FALSE(FI.ok());
  }
  EXPECT_FALSE(FaultInjection::armed());
}

TEST(FaultInjection, PoolTaskThrowPropagatesThroughFutures) {
  ScopedFaultInjection FI("seed=3,pool.throw=1");
  ASSERT_TRUE(FI.ok()) << FI.error();
  ThreadPool Pool(2);
  std::future<int> Fut = Pool.submit([] { return 42; });
  EXPECT_THROW(Fut.get(), FaultInjected);
  // One-shot: the second task runs normally.
  std::future<int> Again = Pool.submit([] { return 42; });
  EXPECT_EQ(Again.get(), 42);
  EXPECT_EQ(FaultInjection::instance().firedCount(
                FaultInjection::Site::PoolTask),
            1u);
}

TEST(FaultInjection, IoFailureFailsSaveWithDiagnostic) {
  ProfileFile PF;
  const std::string Path = tempPath("ptran_iofail.ptpf");
  ScopedFaultInjection FI("io.fail=1");
  ASSERT_TRUE(FI.ok()) << FI.error();
  DiagnosticEngine Diags;
  EXPECT_FALSE(PF.saveToFile(Path, &Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(FaultInjection, InjectedByteFlipIsCaughtOnReload) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est = runEstimator(*Prog, 1, Diags);
  ProfileFile PF = captureOf(*Est, 1);
  const std::string Path = tempPath("ptran_flip.ptpf");

  // Write with a deterministic one-byte corruption, as if the disk had
  // rotted underneath us; the load must diagnose it, one way or another.
  {
    ScopedFaultInjection FI("seed=11,profile.flip=1");
    ASSERT_TRUE(FI.ok()) << FI.error();
    DiagnosticEngine SD;
    ASSERT_TRUE(PF.saveToFile(Path, &SD)) << SD.str();
  }
  DiagnosticEngine LD;
  std::optional<ProfileFile> Back = ProfileFile::loadFromFile(Path, &LD);
  if (Back.has_value()) {
    unsigned Invalid = 0;
    for (const FunctionSection &S : Back->sections())
      Invalid += S.Valid ? 0 : 1;
    EXPECT_GT(Invalid, 0u) << "corruption loaded without a diagnostic";
  } else {
    EXPECT_TRUE(LD.hasErrors());
  }
  std::remove(Path.c_str());
}

} // namespace
