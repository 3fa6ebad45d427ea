//===--- tests/stream_test.cpp - Streaming counter-delta ingest -----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
// Covers the CounterDeltaStream subsystem: cell addressing, bad-delta
// rejection, single- and multi-writer fold determinism (bit-identical
// estimates against a serial accumulateTotals reference), epoch snapshot
// consistency (a concurrent query never observes a torn half-epoch),
// the writer-vs-flusher-vs-query race (the TSan preset reruns this
// binary), saturation clamping at the fold, and the per-flush stream.*
// observability counters.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "obs/Observability.h"
#include "parser/Parser.h"
#include "session/EstimationSession.h"
#include "stream/DeltaStream.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

using namespace ptran;
using ptran::testing::invocationDelta;

namespace {

/// Same diamond call graph the session tests use: main -> mid -> {leafa,
/// leafb}, main -> leafb.
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

/// A fresh session over \p P with one deterministic profiled run folded
/// in — the common baseline of every determinism comparison here.
std::unique_ptr<EstimationSession> makeSession(const Program &P,
                                               DiagnosticEngine &Diags) {
  auto S = EstimationSession::create(P, CostModel::optimizing(),
                                     EstimatorOptions(Diags));
  EXPECT_NE(S, nullptr) << Diags.str();
  if (S) {
    EXPECT_TRUE(S->profiledRun().Ok);
  }
  return S;
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

/// The invocation condition (START, U) of \p F as a stream cell address.
std::pair<unsigned, unsigned> invocationCell(const EstimationSession &S,
                                             const CounterDeltaStream &St,
                                             const Function &F) {
  unsigned FuncIdx = St.functionIndexOf(F);
  EXPECT_LT(FuncIdx, St.numFunctions());
  const FunctionAnalysis &FA = S.estimator().analysis().of(F);
  unsigned CondIdx =
      St.conditionIndexOf(FuncIdx, {FA.ecfg().start(), CfgLabel::U});
  EXPECT_LT(CondIdx, St.numConditions(FuncIdx));
  return {FuncIdx, CondIdx};
}

TEST(CounterDeltaStream, CellAddressingCoversAnalyzableFunctions) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  auto Stream = CounterDeltaStream::create(*S);
  ASSERT_NE(Stream, nullptr);

  ASSERT_EQ(Stream->numFunctions(), Prog->functions().size());
  for (unsigned I = 0; I != Stream->numFunctions(); ++I) {
    const Function *F = Stream->functionAt(I);
    EXPECT_EQ(Stream->functionIndexOf(*F), I);
    EXPECT_GT(Stream->numConditions(I), 0u) << F->name();
    // Every advertised condition round-trips through conditionIndexOf.
    for (unsigned C = 0; C != Stream->numConditions(I); ++C)
      EXPECT_EQ(Stream->conditionIndexOf(I, Stream->conditionAt(I, C)), C);
  }
}

TEST(CounterDeltaStream, RejectsBadDeltasWithoutApplyingThem) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  auto Stream = CounterDeltaStream::create(*S);

  CounterDeltaStream::Writer W = Stream->acquireWriter();
  ASSERT_TRUE(W);
  EXPECT_FALSE(W.add(Stream->numFunctions(), 0, 1.0)); // bad function
  EXPECT_FALSE(W.add(0, Stream->numConditions(0), 1.0)); // bad condition
  EXPECT_FALSE(W.add(0, 0, -1.0));                       // negative
  EXPECT_FALSE(W.add(0, 0, std::nan("")));               // non-finite
  W.release();

  CounterDeltaStream::FlushReport FR = Stream->flush();
  EXPECT_EQ(FR.Cells, 0u);
  EXPECT_EQ(FR.Functions, 0u);
  CounterDeltaStream::Stats St = Stream->stats();
  EXPECT_EQ(St.Appended, 0u);
  EXPECT_EQ(St.Dropped, 4u);
  EXPECT_EQ(St.Epochs, 1u);
}

TEST(CounterDeltaStream, WriterSlotsExhaustAndRecycle) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  CounterDeltaStream::Options O;
  O.MaxWriters = 1;
  auto Stream = CounterDeltaStream::create(*S, O);

  CounterDeltaStream::Writer W1 = Stream->acquireWriter();
  ASSERT_TRUE(W1);
  CounterDeltaStream::Writer W2 = Stream->acquireWriter();
  EXPECT_FALSE(W2);
  EXPECT_FALSE(W2.add(0, 0, 1.0)); // a falsy writer appends nothing
  W1.release();
  CounterDeltaStream::Writer W3 = Stream->acquireWriter();
  EXPECT_TRUE(W3);
}

TEST(CounterDeltaStream, SingleWriterFoldMatchesSerialAccumulate) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  auto S = makeSession(*Prog, D1);
  auto Ref = makeSession(*Prog, D2);
  ASSERT_NE(S, nullptr);
  ASSERT_NE(Ref, nullptr);
  auto Stream = CounterDeltaStream::create(*S);

  // Stream three invocation bumps into leafa across two epochs...
  const Function *LeafA = Prog->findFunction("leafa");
  ASSERT_NE(LeafA, nullptr);
  auto [FuncIdx, CondIdx] = invocationCell(*S, *Stream, *LeafA);
  CounterDeltaStream::Writer W = Stream->acquireWriter();
  ASSERT_TRUE(W.add(FuncIdx, CondIdx, 1.0));
  ASSERT_TRUE(W.add(FuncIdx, CondIdx, 1.0));
  Stream->flush();
  ASSERT_TRUE(W.add(FuncIdx, CondIdx, 1.0));
  CounterDeltaStream::FlushReport FR = Stream->flush();
  EXPECT_EQ(FR.Cells, 1u);
  EXPECT_EQ(FR.Functions, 1u);

  // ...and the same three bumps through the serial API.
  const FunctionAnalysis &FA = Ref->estimator().analysis().of(*LeafA);
  Ref->accumulateTotals(*LeafA, invocationDelta(FA, 3.0));

  EstimateResult RS = S->estimateEntry();
  EstimateResult RR = Ref->estimateEntry();
  ASSERT_TRUE(RS.Ok) << RS.Error;
  ASSERT_TRUE(RR.Ok) << RR.Error;
  expectBitIdentical(*Prog, *RS.Analysis, *RR.Analysis);
}

/// The deterministic append schedule every writer thread follows; the
/// serial expectation below replays it to the same cells.
void appendSchedule(const CounterDeltaStream &Stream, unsigned WriterId,
                    unsigned Count,
                    const std::function<void(unsigned, unsigned, double)> &Do) {
  for (unsigned I = 0; I != Count; ++I) {
    unsigned F = (WriterId + I) % Stream.numFunctions();
    if (Stream.numConditions(F) == 0)
      continue;
    unsigned C = I % Stream.numConditions(F);
    Do(F, C, 1.0);
  }
}

TEST(CounterDeltaStream, MultiWriterInterleavingsAreBitIdentical) {
  // Any interleaving of the same multiset of appends must produce
  // bit-identical estimates after the final flush: counts are integer
  // doubles below 2^53, so cell sums are exact and order-free, and the
  // drain order is fixed. Three rounds vary the actual interleaving; one
  // serial reference session receives the aggregated totals directly.
  std::unique_ptr<Program> Prog = parseDiamond();
  constexpr unsigned Writers = 4;
  constexpr unsigned PerWriter = 1000;

  DiagnosticEngine DRef;
  auto Ref = makeSession(*Prog, DRef);
  ASSERT_NE(Ref, nullptr);
  bool RefFilled = false;

  for (int Round = 0; Round != 3; ++Round) {
    DiagnosticEngine Diags;
    auto S = makeSession(*Prog, Diags);
    ASSERT_NE(S, nullptr);
    auto Stream = CounterDeltaStream::create(*S);

    {
      std::vector<std::jthread> Threads;
      for (unsigned WId = 0; WId != Writers; ++WId)
        Threads.emplace_back([&, WId] {
          CounterDeltaStream::Writer W = Stream->acquireWriter();
          EXPECT_TRUE(W);
          appendSchedule(*Stream, WId, PerWriter,
                         [&](unsigned F, unsigned C, double D) {
                           EXPECT_TRUE(W.add(F, C, D));
                         });
        });
    }
    Stream->flush();
    EXPECT_EQ(Stream->stats().Dropped, 0u);

    if (!RefFilled) {
      RefFilled = true;
      // Serial expectation: replay every writer's schedule into per-
      // function aggregate deltas.
      std::map<unsigned, std::map<unsigned, double>> Cells;
      for (unsigned WId = 0; WId != Writers; ++WId)
        appendSchedule(*Stream, WId, PerWriter,
                       [&](unsigned F, unsigned C, double D) {
                         Cells[F][C] += D;
                       });
      for (const auto &[F, Conds] : Cells) {
        FrequencyTotals Delta;
        Delta.Cond.assign(Stream->numConditions(F), 0.0);
        for (const auto &[C, Total] : Conds)
          Delta.Cond[C] = Total; // Cell C is condition id C.
        Ref->accumulateTotals(*Stream->functionAt(F), Delta);
      }
    }

    EstimateResult RS = S->estimateEntry();
    EstimateResult RR = Ref->estimateEntry();
    ASSERT_TRUE(RS.Ok) << RS.Error;
    ASSERT_TRUE(RR.Ok) << RR.Error;
    expectBitIdentical(*Prog, *RS.Analysis, *RR.Analysis);
  }
}

TEST(CounterDeltaStream, QueriesNeverObserveATornEpoch) {
  // Every epoch bumps leafa AND leafb together; a query racing the
  // flusher must always see a paired count — its answer must be one of
  // the per-epoch-prefix reference answers, never a mixed cut.
  std::unique_ptr<Program> Prog = parseDiamond();
  constexpr unsigned Epochs = 8;

  const Function *LeafA = Prog->findFunction("leafa");
  const Function *LeafB = Prog->findFunction("leafb");
  ASSERT_NE(LeafA, nullptr);
  ASSERT_NE(LeafB, nullptr);

  // Reference answers for every consistent prefix 0..Epochs.
  std::set<double> ValidTimes;
  for (unsigned E = 0; E <= Epochs; ++E) {
    DiagnosticEngine Diags;
    auto Ref = makeSession(*Prog, Diags);
    ASSERT_NE(Ref, nullptr);
    for (const Function *F : {LeafA, LeafB}) {
      if (E == 0)
        continue;
      const FunctionAnalysis &FA = Ref->estimator().analysis().of(*F);
      Ref->accumulateTotals(*F,
                            invocationDelta(FA, static_cast<double>(E)));
    }
    EstimateResult R = Ref->estimateEntry();
    ASSERT_TRUE(R.Ok) << R.Error;
    ValidTimes.insert(R.Time);
  }
  // The test has teeth only if the prefixes are distinguishable.
  ASSERT_EQ(ValidTimes.size(), Epochs + 1u);

  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  auto Stream = CounterDeltaStream::create(*S);
  auto [AF, AC] = invocationCell(*S, *Stream, *LeafA);
  auto [BF, BC] = invocationCell(*S, *Stream, *LeafB);

  std::atomic<bool> Done{false};
  std::jthread Query([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      EstimateResult R = S->estimateEntry();
      EXPECT_TRUE(R.Ok) << R.Error;
      EXPECT_TRUE(ValidTimes.count(R.Time))
          << "torn epoch observed: TIME " << R.Time
          << " matches no consistent prefix";
    }
  });

  CounterDeltaStream::Writer W = Stream->acquireWriter();
  ASSERT_TRUE(W);
  for (unsigned E = 0; E != Epochs; ++E) {
    EXPECT_TRUE(W.add(AF, AC, 1.0));
    EXPECT_TRUE(W.add(BF, BC, 1.0));
    Stream->flush();
  }
  Done.store(true, std::memory_order_relaxed);
}

TEST(CounterDeltaStream, WritersFlusherAndQueriesRaceCleanly) {
  // The TSan rerun of this binary certifies the epoch protocol: writers
  // appending, a flusher sealing epochs and two query threads estimating,
  // all concurrently. The final flush must still fold to the serial
  // reference bit-identically.
  std::unique_ptr<Program> Prog = parseDiamond();
  constexpr unsigned Writers = 4;
  constexpr unsigned PerWriter = 2000;

  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  auto Stream = CounterDeltaStream::create(*S);

  {
    std::atomic<bool> WritersDone{false};
    std::vector<std::jthread> Threads;
    for (unsigned WId = 0; WId != Writers; ++WId)
      Threads.emplace_back([&, WId] {
        CounterDeltaStream::Writer W = Stream->acquireWriter();
        EXPECT_TRUE(W);
        appendSchedule(*Stream, WId, PerWriter,
                       [&](unsigned F, unsigned C, double D) {
                         EXPECT_TRUE(W.add(F, C, D));
                       });
      });
    Threads.emplace_back([&] {
      while (!WritersDone.load(std::memory_order_relaxed)) {
        Stream->flush();
        std::this_thread::yield();
      }
    });
    for (int Q = 0; Q != 2; ++Q)
      Threads.emplace_back([&] {
        for (int I = 0; I != 25; ++I) {
          EstimateResult R = S->estimateEntry();
          EXPECT_TRUE(R.Ok) << R.Error;
        }
      });
    // Join the writers (destroying their jthreads) before releasing the
    // flusher, so every append is covered by at least one more flush.
    for (unsigned WId = 0; WId != Writers; ++WId)
      Threads[WId].join();
    WritersDone.store(true, std::memory_order_relaxed);
  }
  Stream->flush();

  DiagnosticEngine DRef;
  auto Ref = makeSession(*Prog, DRef);
  ASSERT_NE(Ref, nullptr);
  std::map<unsigned, std::map<unsigned, double>> Cells;
  for (unsigned WId = 0; WId != Writers; ++WId)
    appendSchedule(*Stream, WId, PerWriter,
                   [&](unsigned F, unsigned C, double D) { Cells[F][C] += D; });
  for (const auto &[F, Conds] : Cells) {
    FrequencyTotals Delta;
    Delta.Cond.assign(Stream->numConditions(F), 0.0);
    for (const auto &[C, Total] : Conds)
      Delta.Cond[C] = Total; // Cell C is condition id C.
    Ref->accumulateTotals(*Stream->functionAt(F), Delta);
  }
  EstimateResult RS = S->estimateEntry();
  EstimateResult RR = Ref->estimateEntry();
  ASSERT_TRUE(RS.Ok) << RS.Error;
  ASSERT_TRUE(RR.Ok) << RR.Error;
  expectBitIdentical(*Prog, *RS.Analysis, *RR.Analysis);
}

TEST(CounterDeltaStream, FoldClampsCellTotalsAtTwoPow53) {
  // Two appends of the saturation limit overflow the cell past 2^53; the
  // fold must clamp (not hand the session an over-limit delta it would
  // reject whole), and the session's saturating accumulator must emit the
  // lower-bounds diagnostic and match a reference fed one clamped delta.
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine D1, D2;
  auto S = makeSession(*Prog, D1);
  auto Ref = makeSession(*Prog, D2);
  ASSERT_NE(S, nullptr);
  ASSERT_NE(Ref, nullptr);
  auto Stream = CounterDeltaStream::create(*S);

  const Function *LeafA = Prog->findFunction("leafa");
  ASSERT_NE(LeafA, nullptr);
  auto [FuncIdx, CondIdx] = invocationCell(*S, *Stream, *LeafA);
  CounterDeltaStream::Writer W = Stream->acquireWriter();
  ASSERT_TRUE(W.add(FuncIdx, CondIdx, CounterSaturationLimit));
  ASSERT_TRUE(W.add(FuncIdx, CondIdx, CounterSaturationLimit));
  CounterDeltaStream::FlushReport FR = Stream->flush();
  EXPECT_EQ(FR.Cells, 1u);

  const FunctionAnalysis &FA = Ref->estimator().analysis().of(*LeafA);
  Ref->accumulateTotals(*LeafA, invocationDelta(FA, CounterSaturationLimit));

  EstimateResult RS = S->estimateEntry();
  EstimateResult RR = Ref->estimateEntry();
  ASSERT_TRUE(RS.Ok) << RS.Error;
  ASSERT_TRUE(RR.Ok) << RR.Error;
  expectBitIdentical(*Prog, *RS.Analysis, *RR.Analysis);
  EXPECT_NE(D1.str().find("saturated at 2^53"), std::string::npos)
      << D1.str();
}

TEST(CounterDeltaStream, ReportsStreamCountersPerFlush) {
  std::unique_ptr<Program> Prog = parseDiamond();
  DiagnosticEngine Diags;
  auto S = makeSession(*Prog, Diags);
  ASSERT_NE(S, nullptr);
  ObsRegistry Reg;
  CounterDeltaStream::Options O;
  O.Obs = &Reg;
  auto Stream = CounterDeltaStream::create(*S, O);

  const Function *LeafA = Prog->findFunction("leafa");
  ASSERT_NE(LeafA, nullptr);
  auto [FuncIdx, CondIdx] = invocationCell(*S, *Stream, *LeafA);
  CounterDeltaStream::Writer W = Stream->acquireWriter();
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(W.add(FuncIdx, CondIdx, 1.0));
  EXPECT_FALSE(W.add(FuncIdx, CondIdx, -1.0));
  Stream->flush();

  EXPECT_EQ(Reg.counterValue("stream.appended"), 5u);
  EXPECT_EQ(Reg.counterValue("stream.dropped"), 1u);
  EXPECT_EQ(Reg.counterValue("stream.flushed"), 1u);
  EXPECT_EQ(Reg.counterValue("stream.epochs"), 1u);

  // A second flush with nothing pending reports only the epoch.
  Stream->flush();
  EXPECT_EQ(Reg.counterValue("stream.appended"), 5u);
  EXPECT_EQ(Reg.counterValue("stream.epochs"), 2u);
}

} // namespace
