//===--- tests/pdb_test.cpp - Program database tests ----------------------===//
//
// The PTRAN-style program database: accumulation across runs,
// serialization round trips, merging, fingerprint guarding and failure
// handling on malformed input.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "parser/Parser.h"
#include "pdb/ProgramDatabase.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ptran;
using namespace ptran::testing;

namespace {

struct PdbFixture {
  Figure1Program Fix;
  std::unique_ptr<Estimator> Est;
  DiagnosticEngine Diags;

  PdbFixture() {
    Fix = makeFigure1();
    Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
    EXPECT_NE(Est, nullptr) << Diags.str();
  }

  ProgramDatabase recordOneRun() {
    EXPECT_TRUE(Est->profiledRun().Ok);
    ProgramDatabase Db;
    for (const auto &F : Fix.Prog->functions())
      Db.accumulateTotals(Est->analysis().of(*F), Est->totalsFor(*F));
    Db.noteRunCompleted();
    Est->runtimeMutable().reset();
    return Db;
  }
};

TEST(ProgramDatabaseTest, AccumulateAndQuery) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();
  EXPECT_EQ(Db.runsRecorded(), 1u);

  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  FrequencyTotals T = Db.totalsFor(FA);
  ASSERT_TRUE(T.Ok);
  EXPECT_DOUBLE_EQ(
      T.condTotal({FA.ecfg().start(), CfgLabel::U}), 1.0);

  // Unknown function: not Ok.
  Program Other;
  DiagnosticEngine D2;
  FunctionBuilder B(Other, "stranger", D2);
  B.ret();
  ASSERT_NE(B.finish(), nullptr);
  auto PA2 = ProgramAnalysis::compute(Other, D2);
  // "stranger" has no entry named main -> compute on the function alone.
  auto FA2 = FunctionAnalysis::compute(*Other.findFunction("stranger"), D2);
  ASSERT_NE(FA2, nullptr) << D2.str();
  EXPECT_FALSE(Db.totalsFor(*FA2).Ok);
  (void)PA2;
}

TEST(ProgramDatabaseTest, SerializeDeserializeRoundTrip) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();
  Db.accumulateLoopMoments(*Fx.Fix.Main, 2, {3.0, 30.0, 320.0});

  std::string Text = Db.serialize();
  DiagnosticEngine Diags;
  auto Loaded = ProgramDatabase::deserialize(Text, Diags);
  ASSERT_TRUE(Loaded.has_value()) << Diags.str();
  EXPECT_EQ(Loaded->runsRecorded(), 1u);
  EXPECT_EQ(Loaded->serialize(), Text);

  const LoopFrequencyStats::Moments *M = Loaded->momentsFor(*Fx.Fix.Main, 2);
  ASSERT_NE(M, nullptr);
  EXPECT_DOUBLE_EQ(M->Entries, 3.0);
  EXPECT_DOUBLE_EQ(M->mean(), 10.0);
}

TEST(ProgramDatabaseTest, MergeSumsRecords) {
  PdbFixture Fx;
  ProgramDatabase A = Fx.recordOneRun();
  ProgramDatabase B = Fx.recordOneRun();

  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  double Single = A.totalsFor(FA).condTotal({FA.ecfg().start(), CfgLabel::U});

  DiagnosticEngine Diags;
  A.merge(B, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(A.runsRecorded(), 2u);
  EXPECT_DOUBLE_EQ(
      A.totalsFor(FA).condTotal({FA.ecfg().start(), CfgLabel::U}),
      2.0 * Single);

  // Frequencies derived from the merged store still give Figure 3.
  Frequencies Freqs = computeFrequencies(FA, A.totalsFor(FA));
  std::map<const Function *, Frequencies> FreqMap;
  for (const auto &F : Fx.Fix.Prog->functions())
    FreqMap[F.get()] = computeFrequencies(
        Fx.Est->analysis().of(*F),
        A.totalsFor(Fx.Est->analysis().of(*F)).Ok
            ? A.totalsFor(Fx.Est->analysis().of(*F))
            : Fx.Est->totalsFor(*F));
  (void)Freqs;
}

TEST(ProgramDatabaseTest, FingerprintMismatchSkipsFunction) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();

  // Tamper with the serialized fingerprint (second digit, so the value
  // stays within uint64 range and still parses).
  std::string Text = Db.serialize();
  size_t Pos = Text.find("function main ");
  ASSERT_NE(Pos, std::string::npos);
  Text[Pos + 15] = Text[Pos + 15] == '1' ? '2' : '1';

  DiagnosticEngine Diags;
  auto Tampered = ProgramDatabase::deserialize(Text, Diags);
  ASSERT_TRUE(Tampered.has_value());
  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  EXPECT_FALSE(Tampered->totalsFor(FA).Ok);

  // Merging incompatible records warns and skips.
  ProgramDatabase Fresh = Fx.recordOneRun();
  Fresh.merge(*Tampered, Diags);
  EXPECT_FALSE(Diags.diagnostics().empty());
}

/// One profiled run of \p Source; returns the estimator for queries.
std::unique_ptr<Estimator> profiledOnce(std::unique_ptr<Program> &Prog,
                                        const char *Source,
                                        DiagnosticEngine &Diags) {
  Prog = parseProgram(Source, Diags);
  EXPECT_NE(Prog, nullptr) << Diags.str();
  auto Est = Estimator::create(*Prog, CostModel(), EstimatorOptions(Diags));
  EXPECT_NE(Est, nullptr) << Diags.str();
  EXPECT_TRUE(Est->profiledRun().Ok);
  return Est;
}

TEST(ProgramDatabaseTest, ChangedShapeStartsTheRecordAfresh) {
  const char *ShapeA = R"(      program main
      integer i, s
      s = 0
      do 10 i = 1, 6
        if (i .gt. 2) then
          s = s + i
        endif
 10   continue
      print s
      end
)";
  // The same function with one more IF.
  const char *ShapeB = R"(      program main
      integer i, s
      s = 0
      do 10 i = 1, 6
        if (i .gt. 2) then
          s = s + i
        endif
        if (i .gt. 4) then
          s = s - 1
        endif
 10   continue
      print s
      end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> ProgA, ProgB;
  auto EstA = profiledOnce(ProgA, ShapeA, Diags);
  auto EstB = profiledOnce(ProgB, ShapeB, Diags);
  ASSERT_TRUE(EstA && EstB);
  const FunctionAnalysis &FA = EstA->analysis().of(*ProgA->entry());
  const FunctionAnalysis &FB = EstB->analysis().of(*ProgB->entry());
  ASSERT_NE(structuralFingerprintOf(FA), structuralFingerprintOf(FB));

  ProgramDatabase Db;
  Db.accumulateTotals(FA, EstA->totalsFor(*ProgA->entry()));
  Db.accumulateLoopMoments(*ProgA->entry(), 2, {1.0, 6.0, 36.0});
  FrequencyTotals Want = EstB->totalsFor(*ProgB->entry());
  Db.accumulateTotals(FB, Want);

  // Only shape B's totals remain: nothing of shape A is summed in or
  // left behind under B's fingerprint.
  FrequencyTotals Got = Db.totalsFor(FB);
  ASSERT_TRUE(Got.Ok);
  EXPECT_EQ(Got.Cond, Want.Cond);
  EXPECT_EQ(Db.momentsFor(*ProgB->entry(), 2), nullptr);
  EXPECT_FALSE(Db.totalsFor(FA).Ok);
}

TEST(ProgramDatabaseTest, RejectsMalformedInput) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(ProgramDatabase::deserialize("not a pdb", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());

  Diags.clear();
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ptran-pdb 1\ncond 1 2 3\n", Diags)
          .has_value()); // cond before any function record.

  Diags.clear();
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ptran-pdb 1\nbogus line\n", Diags)
          .has_value());
}

TEST(ProgramDatabaseTest, FileRoundTrip) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();

  std::string Path = ::testing::TempDir() + "/ptran_pdb_test.txt";
  DiagnosticEngine Diags;
  ASSERT_TRUE(Db.saveToFile(Path, Diags)) << Diags.str();
  auto Loaded = ProgramDatabase::loadFromFile(Path, Diags);
  ASSERT_TRUE(Loaded.has_value()) << Diags.str();
  EXPECT_EQ(Loaded->serialize(), Db.serialize());
  std::remove(Path.c_str());

  EXPECT_FALSE(
      ProgramDatabase::loadFromFile("/nonexistent/dir/x.pdb", Diags)
          .has_value());
}

} // namespace
