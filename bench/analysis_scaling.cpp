//===--- bench/analysis_scaling.cpp - Ablation A2: pass throughput --------===//
//
// The paper claims the whole estimation runs in "a single, linear time,
// bottom-up traversal of the forward control dependence graph". This
// binary measures how every pass scales with CFG size on generated loop
// nests: CFG build, interval analysis, ECFG, control dependence, counter
// planning and the TIME/VAR computation itself — plus, on the
// many-function synthetic workload, how the parallel drivers scale with
// the worker count (1/2/4/8 jobs) while producing byte-identical
// estimates.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "durable/StateStore.h"
#include "obs/Observability.h"
#include "repl/Replication.h"
#include "repl/Standby.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "session/EstimationSession.h"
#include "cost/TimeAnalysis.h"
#include "stream/DeltaStream.h"
#include "support/FatalError.h"
#include "freq/Frequencies.h"
#include "profile/CounterPlan.h"
#include "profile/Recovery.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;

namespace {

struct Prepared {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ProgramAnalysis> PA;
  unsigned Nodes = 0;
};

Prepared prepare(unsigned Units) {
  Prepared P;
  P.Prog = makeScalingProgram(Units, /*Depth=*/2);
  DiagnosticEngine Diags;
  P.PA = ProgramAnalysis::compute(*P.Prog, Diags);
  if (!P.PA)
    reportFatalError("analysis failed for scaling program");
  for (const auto &F : P.Prog->functions())
    P.Nodes += P.PA->of(*F).ecfg().cfg().numNodes();
  return P;
}

void benchFullPipeline(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  std::unique_ptr<Program> Prog = makeScalingProgram(Units, 2);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto PA = ProgramAnalysis::compute(*Prog, Diags);
    benchmark::DoNotOptimize(PA.get());
  }
  Prepared P = prepare(Units);
  State.counters["ecfg_nodes"] = P.Nodes;
  State.SetComplexityN(P.Nodes);
}
BENCHMARK(benchFullPipeline)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void benchTimeAnalysisOnly(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  Prepared P = prepare(Units);

  // Synthetic frequencies: every condition taken with probability 0.5,
  // loop frequencies 3 (trip 2 + 1); enough to drive the traversal.
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : P.Prog->functions()) {
    const FunctionAnalysis &FA = P.PA->of(*F);
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

  CostModel CM = CostModel::optimizing();
  for (auto _ : State) {
    TimeAnalysis TA = TimeAnalysis::run(*P.PA, Freqs, CM);
    benchmark::DoNotOptimize(TA.programTime());
  }
  State.counters["ecfg_nodes"] = P.Nodes;
  State.SetComplexityN(P.Nodes);
}
BENCHMARK(benchTimeAnalysisOnly)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void benchPlanAndSymbolicRecovery(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  Prepared P = prepare(Units);
  for (auto _ : State) {
    ProgramPlan Plan = ProgramPlan::build(*P.PA, ProfileMode::Smart);
    benchmark::DoNotOptimize(Plan.totalCounters());
  }
  State.counters["ecfg_nodes"] = P.Nodes;
}
BENCHMARK(benchPlanAndSymbolicRecovery)->RangeMultiplier(4)->Range(4, 256);

// Synthetic frequencies for a prepared program: every condition taken with
// probability 0.5, loop frequencies 3; enough to drive the traversal.
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

// Fan the per-function pipeline out across State.range(1) workers on a
// many-function program of State.range(0) procedures.
void benchParallelPipeline(benchmark::State &State) {
  unsigned Funcs = static_cast<unsigned>(State.range(0));
  unsigned Jobs = static_cast<unsigned>(State.range(1));
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  AnalysisOptions Opts;
  Opts.Jobs = Jobs;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto PA = ProgramAnalysis::compute(*Prog, Diags, Opts);
    benchmark::DoNotOptimize(PA.get());
  }
  State.counters["jobs"] = Jobs;
}
BENCHMARK(benchParallelPipeline)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Wall-clock speedup table for the per-function analysis fan-out on the
// many-function workload. The wall time includes the serial TIME/VAR
// sweep that follows, and every function's TIME/VAR is checked bit for
// bit against the jobs=1 run.
void printParallelSpeedupTable() {
  constexpr unsigned Funcs = 255;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  auto RunOnce = [&](unsigned Jobs) {
    DiagnosticEngine Diags;
    AnalysisOptions AOpts;
    AOpts.Jobs = Jobs;
    auto Start = std::chrono::steady_clock::now();
    auto PA = ProgramAnalysis::compute(*Prog, Diags, AOpts);
    if (!PA || !PA->allOk())
      reportFatalError("analysis failed for many-function program");
    std::map<const Function *, Frequencies> Freqs =
        syntheticFrequencies(*Prog, *PA);
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM);
    auto End = std::chrono::steady_clock::now();
    std::vector<double> Estimates;
    for (const auto &F : Prog->functions()) {
      Estimates.push_back(TA.functionTime(*F));
      Estimates.push_back(TA.functionVariance(*F));
    }
    return std::pair(std::chrono::duration<double>(End - Start).count(),
                     std::move(Estimates));
  };

  // Warm up allocators etc., then take the best of 3 per job count.
  RunOnce(1);
  std::printf("=== Analysis fan-out speedup (%u functions, depth 3; wall "
              "includes the serial TIME/VAR sweep) ===\n",
              Funcs);
  TablePrinter T({"jobs", "wall [ms]", "speedup vs 1", "output"});
  std::vector<double> Reference;
  double Serial = 0.0;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    double Best = 1e100;
    std::vector<double> Estimates;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto [Secs, Est] = RunOnce(Jobs);
      Best = std::min(Best, Secs);
      Estimates = std::move(Est);
    }
    if (Jobs == 1) {
      Serial = Best;
      Reference = Estimates;
    }
    bool Identical =
        Estimates.size() == Reference.size() &&
        std::memcmp(Estimates.data(), Reference.data(),
                    Estimates.size() * sizeof(double)) == 0;
    char Wall[32], Speedup[32];
    std::snprintf(Wall, sizeof(Wall), "%.2f", Best * 1e3);
    std::snprintf(Speedup, sizeof(Speedup), "%.2fx", Serial / Best);
    T.addRow({std::to_string(Jobs), Wall, Speedup,
              Identical ? "identical" : "DIFFERS"});
  }
  std::printf("%s\n", T.str().c_str());
}

// The serial interprocedural TIME/VAR sweep, best of 5, with a
// bit-for-bit memcmp of every function's TIME/VAR against a separate
// reference run.
void printTimeVarSweepTable() {
  constexpr unsigned Funcs = 511;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 6);
  CostModel CM = CostModel::optimizing();
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  if (!PA || !PA->allOk())
    reportFatalError("analysis failed for many-function program");
  std::map<const Function *, Frequencies> Freqs =
      syntheticFrequencies(*Prog, *PA);

  auto RunOnce = [&](std::vector<double> &Estimates) {
    auto Start = std::chrono::steady_clock::now();
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM);
    auto End = std::chrono::steady_clock::now();
    Estimates.clear();
    for (const auto &F : Prog->functions()) {
      Estimates.push_back(TA.functionTime(*F));
      Estimates.push_back(TA.functionVariance(*F));
    }
    return std::chrono::duration<double>(End - Start).count();
  };

  std::printf("=== TIME/VAR sweep (%u functions, depth 6) ===\n", Funcs);
  TablePrinter T({"pass", "sweep [ms]", "output"});
  std::vector<double> Reference;
  RunOnce(Reference);
  double Best = 1e100;
  std::vector<double> Est;
  for (int Rep = 0; Rep < 5; ++Rep)
    Best = std::min(Best, RunOnce(Est));
  bool Identical = Est.size() == Reference.size() &&
                   std::memcmp(Est.data(), Reference.data(),
                               Est.size() * sizeof(double)) == 0;
  char Ms[32];
  std::snprintf(Ms, sizeof(Ms), "%.3f", Best * 1e3);
  T.addRow({"serial", Ms, Identical ? "identical" : "DIFFERS"});
  std::printf("%s\n", T.str().c_str());
}

// Incremental re-estimation through an EstimationSession: dirty one leaf
// of the many-function call tree, re-query (the write plus the read is
// timed, since the write refreshes the view), and compare against a cold
// TimeAnalysis over the same inputs — wall clock, evaluation counts and a
// bit-for-bit memcmp of every function's node estimates.
void printIncrementalReestimationTable() {
  constexpr unsigned Funcs = 255;
  constexpr unsigned Jobs = 4;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();
  DiagnosticEngine Diags;
  auto S = EstimationSession::create(*Prog, CM,
                                     EstimatorOptions(Diags).jobs(Jobs));
  if (!S)
    reportFatalError("session creation failed:\n" + Diags.str());
  RunResult R = S->profiledRun();
  if (!R.Ok)
    reportFatalError("profiled run failed: " + R.Error);

  auto Start = std::chrono::steady_clock::now();
  EstimateResult First = S->estimateEntry();
  auto End = std::chrono::steady_clock::now();
  if (!First.Ok)
    reportFatalError("cold estimate failed: " + First.Error);
  double ColdQuery = std::chrono::duration<double>(End - Start).count();
  uint64_t ColdEvals = S->lastEvaluations();

  // Dirty one leaf's accumulated totals per repetition; the dirty closure
  // is the leaf plus its chain of callers up the binary call tree.
  const Function *Leaf = Prog->findFunction("f" + std::to_string(Funcs - 1));
  if (!Leaf)
    reportFatalError("many-function program is missing its last leaf");
  const FunctionAnalysis &LeafFA = S->estimator().analysis().of(*Leaf);
  const unsigned LeafStart =
      LeafFA.cd().conditionId({LeafFA.ecfg().start(), CfgLabel::U});
  double Injected = 0.0;
  double BestInc = 1e100;
  uint64_t IncEvals = 0;
  std::shared_ptr<const TimeAnalysis> IncAnalysis;
  for (int Rep = 0; Rep < 3; ++Rep) {
    FrequencyTotals Delta;
    Delta.Cond.assign(LeafFA.cd().conditions().size(), 0.0);
    Delta.Cond[LeafStart] = 1.0 + Rep;
    Injected += 1.0 + Rep;
    // The write refreshes the session's published view and the read then
    // answers from it, so the pair is what one incremental update costs.
    uint64_t EvalsBefore = S->totalEvaluations();
    Start = std::chrono::steady_clock::now();
    S->accumulateTotals(*Leaf, Delta);
    EstimateResult Inc = S->estimateEntry();
    End = std::chrono::steady_clock::now();
    if (!Inc.Ok)
      reportFatalError("incremental estimate failed: " + Inc.Error);
    BestInc = std::min(BestInc,
                       std::chrono::duration<double>(End - Start).count());
    IncEvals = S->totalEvaluations() - EvalsBefore;
    IncAnalysis = Inc.Analysis;
  }

  // Cold recomputation over the session's exact accumulated inputs,
  // timing everything a non-incremental client redoes per query: counter
  // recovery, frequency computation and the full TIME/VAR pass.
  const Estimator &Est = S->estimator();
  double BestCold = 1e100;
  TimeAnalysis Cold;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Start = std::chrono::steady_clock::now();
    std::map<const Function *, Frequencies> Freqs;
    for (const auto &F : Prog->functions()) {
      FrequencyTotals Totals = Est.runtime().recover(*F);
      if (!Totals.Ok)
        reportFatalError("recovery failed for " + F->name());
      if (F.get() == Leaf) {
        Totals.Cond[LeafStart] += Injected;
        Totals.Node =
            nodeTotalsFromConds(Est.analysis().of(*F), Totals.Cond);
      }
      Freqs[F.get()] = computeFrequencies(Est.analysis().of(*F), Totals);
    }
    Cold = TimeAnalysis::run(Est.analysis(), Freqs, CM);
    End = std::chrono::steady_clock::now();
    BestCold = std::min(BestCold,
                        std::chrono::duration<double>(End - Start).count());
  }

  bool Identical = true;
  for (const auto &F : Prog->functions()) {
    const std::vector<NodeEstimates> &A = IncAnalysis->estimatesOf(*F);
    const std::vector<NodeEstimates> &B = Cold.estimatesOf(*F);
    if (A.size() != B.size() ||
        std::memcmp(A.data(), B.data(), A.size() * sizeof(NodeEstimates)) !=
            0) {
      Identical = false;
      break;
    }
  }

  std::printf("=== Incremental re-estimation (%u functions, 1 leaf dirty) "
              "===\n",
              Funcs);
  TablePrinter T({"query", "wall [ms]", "evaluations", "output"});
  char Wall[32];
  std::snprintf(Wall, sizeof(Wall), "%.3f", ColdQuery * 1e3);
  T.addRow({"first (cold)", Wall,
            std::to_string(static_cast<unsigned long long>(ColdEvals)),
            "reference"});
  std::snprintf(Wall, sizeof(Wall), "%.3f", BestCold * 1e3);
  T.addRow({"full recompute", Wall, std::to_string(Funcs), "reference"});
  std::snprintf(Wall, sizeof(Wall), "%.3f", BestInc * 1e3);
  T.addRow({"incremental", Wall,
            std::to_string(static_cast<unsigned long long>(IncEvals)),
            Identical ? "identical" : "DIFFERS"});
  std::printf("%s", T.str().c_str());
  std::printf("incremental speedup vs full recompute: %.2fx (%llu of %u "
              "functions re-evaluated)\n\n",
              BestCold / BestInc,
              static_cast<unsigned long long>(IncEvals), Funcs);
}

// Observability cost: the same analysis + TIME/VAR pipeline with no
// registry (the default, every TimingSpan a single branch), and with a
// live registry recording every span and counter. The disabled column is
// the one the ±2%-regression acceptance gate watches.
void printObservabilityOverheadTable() {
  constexpr unsigned Funcs = 255;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  auto RunOnce = [&](ObsRegistry *Obs) {
    DiagnosticEngine Diags;
    AnalysisOptions AOpts;
    AOpts.Obs = Obs;
    auto Start = std::chrono::steady_clock::now();
    auto PA = ProgramAnalysis::compute(*Prog, Diags, AOpts);
    if (!PA || !PA->allOk())
      reportFatalError("analysis failed for many-function program");
    std::map<const Function *, Frequencies> Freqs =
        syntheticFrequencies(*Prog, *PA);
    TimeAnalysisOptions TAOpts;
    TAOpts.Obs = Obs;
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(TA.programTime());
    return std::chrono::duration<double>(End - Start).count();
  };

  RunOnce(nullptr); // Warm up.
  double BestOff = 1e100, BestOn = 1e100;
  size_t SpanCount = 0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    BestOff = std::min(BestOff, RunOnce(nullptr));
    ObsRegistry Reg;
    BestOn = std::min(BestOn, RunOnce(&Reg));
    SpanCount = Reg.spans().size();
  }

  std::printf("=== Observability overhead (%u functions, serial) ===\n",
              Funcs);
  TablePrinter T({"observability", "wall [ms]", "vs disabled", "spans"});
  char Wall[32], Ratio[32];
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOff * 1e3);
  T.addRow({"disabled", Wall, "1.00x", "0"});
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOn * 1e3);
  std::snprintf(Ratio, sizeof(Ratio), "%.2fx", BestOn / BestOff);
  T.addRow({"enabled", Wall, Ratio, std::to_string(SpanCount)});
  std::printf("%s\n", T.str().c_str());
}

// Cancellation-poll cost: the same analysis + TIME/VAR pipeline with no
// token (the default, every checkpoint compiled out behind a null check)
// and with an armed far-future deadline token, so every checkpoint does
// its relaxed load plus the occasional clock read. The with-token column
// must stay within noise (<2%) of the without-token one.
void printCancellationOverheadTable() {
  constexpr unsigned Funcs = 255;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  auto RunOnce = [&](CancelToken *Token) {
    DiagnosticEngine Diags;
    AnalysisOptions AOpts;
    AOpts.Cancel = Token;
    auto Start = std::chrono::steady_clock::now();
    auto PA = ProgramAnalysis::compute(*Prog, Diags, AOpts);
    if (!PA || !PA->allOk())
      reportFatalError("analysis failed for many-function program");
    std::map<const Function *, Frequencies> Freqs =
        syntheticFrequencies(*Prog, *PA);
    TimeAnalysisOptions TAOpts;
    TAOpts.Cancel = Token;
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(TA.programTime());
    return std::chrono::duration<double>(End - Start).count();
  };

  RunOnce(nullptr); // Warm up.
  double BestOff = 1e100, BestOn = 1e100;
  uint64_t Polls = 0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    BestOff = std::min(BestOff, RunOnce(nullptr));
    CancelToken Token;
    Token.setDeadlineIn(std::chrono::hours(24));
    BestOn = std::min(BestOn, RunOnce(&Token));
    Polls = Token.polls();
  }

  std::printf("=== Cancellation-poll overhead (%u functions, serial) ===\n",
              Funcs);
  TablePrinter T({"token", "wall [ms]", "vs none", "polls"});
  char Wall[32], Ratio[32];
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOff * 1e3);
  T.addRow({"none", Wall, "1.00x", "0"});
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOn * 1e3);
  std::snprintf(Ratio, sizeof(Ratio), "%.2fx", BestOn / BestOff);
  T.addRow({"armed deadline", Wall, Ratio,
            std::to_string(static_cast<unsigned long long>(Polls))});
  std::printf("%s\n", T.str().c_str());
}

// Fault-tolerant ingestion cost: capture/save, load (header + per-section
// CRC validation), saturating merge, and full session ingest (recovery +
// Σ-identity checks per section) — once on a clean profile and once with
// ~10% of the sections corrupted, so the quarantine path's price is
// visible next to the happy path.
void printProfileIngestionTable() {
  constexpr unsigned Funcs = 127;
  constexpr int Reps = 3;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs + 1, 2);
  CostModel CM = CostModel::optimizing();
  DiagnosticEngine Diags;
  auto Producer = EstimationSession::create(
      *Prog, CM,
      EstimatorOptions(Diags).loopVariance(LoopVarianceMode::Profiled));
  if (!Producer || !Producer->profiledRun().Ok)
    reportFatalError("profiled run failed for many-function program");
  ProfileFile Clean = Producer->captureProfile();
  const double SizeKb =
      static_cast<double>(Clean.serialize().size()) / 1024.0;
  const std::string Path = "analysis_scaling_profile.ptpf";

  // ~10% of the sections present exactly as a failed CRC would leave
  // them: invalid, empty, with the trusted directory still naming them.
  ProfileFile Corrupt = Clean;
  unsigned Corrupted = 0;
  for (size_t I = 0; I < Corrupt.sectionsMutable().size(); I += 10) {
    FunctionSection &S = Corrupt.sectionsMutable()[I];
    S.Valid = false;
    S.Issue = "section checksum mismatch (corrupt data)";
    S.Counters.clear();
    S.Loops.clear();
    ++Corrupted;
  }

  auto Best = [&](auto &&Body) {
    double BestSec = 1e100;
    for (int R = 0; R < Reps; ++R) {
      auto Start = std::chrono::steady_clock::now();
      Body();
      auto End = std::chrono::steady_clock::now();
      BestSec = std::min(BestSec,
                         std::chrono::duration<double>(End - Start).count());
    }
    return BestSec;
  };

  double SaveSec = Best([&] {
    if (!Clean.saveToFile(Path, nullptr))
      reportFatalError("profile save failed");
  });
  double LoadSec = Best([&] {
    if (!ProfileFile::loadFromFile(Path, nullptr))
      reportFatalError("profile load failed");
  });
  double MergeSec = Best([&] {
    ProfileFile A = Clean;
    if (!A.merge(Clean, nullptr))
      reportFatalError("profile merge failed");
    benchmark::DoNotOptimize(A.runs());
  });

  size_t LastQuarantined = 0;
  auto IngestSec = [&](const ProfileFile &PF, size_t &QuarantinedOut) {
    double BestSec = 1e100;
    for (int R = 0; R < Reps; ++R) {
      DiagnosticEngine D;
      auto Consumer = EstimationSession::create(
          *Prog, CM,
          EstimatorOptions(D)
              .loopVariance(LoopVarianceMode::Profiled)
              .onBadProfile(BadProfilePolicy::Quarantine));
      if (!Consumer)
        reportFatalError("session creation failed");
      auto Start = std::chrono::steady_clock::now();
      ProfileIngestReport Report = Consumer->ingestProfile(PF);
      auto End = std::chrono::steady_clock::now();
      if (!Report.Ok)
        reportFatalError("profile ingest failed: " + Report.Error);
      QuarantinedOut = Report.Quarantined.size();
      BestSec = std::min(BestSec,
                         std::chrono::duration<double>(End - Start).count());
    }
    return BestSec;
  };
  size_t CleanQuarantined = 0;
  double IngestCleanSec = IngestSec(Clean, CleanQuarantined);
  double IngestBadSec = IngestSec(Corrupt, LastQuarantined);
  std::remove(Path.c_str());

  const double Sections = static_cast<double>(Clean.sections().size());
  auto Rate = [&](double Sec) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", Sections / Sec);
    return std::string(Buf);
  };
  std::printf("=== Profile ingestion (%zu sections, %.1f KiB on disk) ===\n",
              Clean.sections().size(), SizeKb);
  TablePrinter T({"stage", "wall [ms]", "sections/s", "quarantined"});
  char Wall[32];
  std::snprintf(Wall, sizeof(Wall), "%.3f", SaveSec * 1e3);
  T.addRow({"serialize + save", Wall, Rate(SaveSec), "-"});
  std::snprintf(Wall, sizeof(Wall), "%.3f", LoadSec * 1e3);
  T.addRow({"load + checksum", Wall, Rate(LoadSec), "-"});
  std::snprintf(Wall, sizeof(Wall), "%.3f", MergeSec * 1e3);
  T.addRow({"saturating merge", Wall, Rate(MergeSec), "-"});
  std::snprintf(Wall, sizeof(Wall), "%.3f", IngestCleanSec * 1e3);
  T.addRow({"ingest (clean)", Wall, Rate(IngestCleanSec),
            std::to_string(CleanQuarantined)});
  std::snprintf(Wall, sizeof(Wall), "%.3f", IngestBadSec * 1e3);
  T.addRow({"ingest (10% corrupt)", Wall, Rate(IngestBadSec),
            std::to_string(LastQuarantined)});
  std::printf("%s\n", T.str().c_str());
}

// Durable-state costs: what one write-ahead journal append costs under
// each fsync policy, and how long recovery (StateStore::open + ServeCore
// replay) takes as the journal grows — before and after a checkpoint
// compacts it into a snapshot.
void printDurableStateTable() {
  char Template[] = "/tmp/ptran-bench-durable-XXXXXX";
  if (!::mkdtemp(Template)) {
    std::printf("=== Durable state: skipped (no scratch dir) ===\n\n");
    return;
  }
  std::string Dir = Template;
  auto CleanDir = [&Dir] {
    std::string Cmd = "rm -rf " + Dir;
    if (std::system(Cmd.c_str()) != 0) {
    }
  };

  // A representative epoch-fold record (one function, eight cells).
  durable::DurableRecord Fold;
  Fold.Type = durable::RecordType::EpochFold;
  Fold.Session = "bench";
  durable::FoldEntry FE;
  FE.Function = "leaf";
  for (uint32_t C = 0; C < 8; ++C)
    FE.Conds.push_back({C, static_cast<uint8_t>(C & 1), 16.0});
  Fold.Folds.push_back(FE);

  std::printf("=== Durable journal: append cost per fsync policy ===\n");
  TablePrinter T({"fsync", "appends", "wall [ms]", "us/append"});
  for (auto [Name, Policy] :
       {std::pair("never", durable::FsyncPolicy::Never),
        std::pair("batch", durable::FsyncPolicy::Batch),
        std::pair("always", durable::FsyncPolicy::Always)}) {
    constexpr unsigned Appends = 1024;
    std::string Path = Dir + "/append-bench.ptwj";
    ::unlink(Path.c_str());
    std::string Error;
    durable::DeltaJournal::OpenReport Report;
    auto J = durable::DeltaJournal::open(Path, Policy, Report, nullptr,
                                         Error);
    if (!J)
      reportFatalError("journal open failed: " + Error);
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I < Appends; ++I)
      if (J->append(Fold, Error) == 0)
        reportFatalError("journal append failed: " + Error);
    auto End = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    char Wall[32], Per[32];
    std::snprintf(Wall, sizeof(Wall), "%.2f", Secs * 1e3);
    std::snprintf(Per, sizeof(Per), "%.2f", Secs / Appends * 1e6);
    T.addRow({Name, std::to_string(Appends), Wall, Per});
  }
  std::printf("%s\n", T.str().c_str());

  // Recovery wall clock vs journal length, and what a checkpoint's
  // snapshot compaction buys on the next boot.
  const char *Source = "      program main\n"
                       "      integer i\n"
                       "      do 10 i = 1, 8\n"
                       "        call leaf(i)\n"
                       " 10   continue\n"
                       "      end\n"
                       "      subroutine leaf(k)\n"
                       "      integer k\n"
                       "      k = k + 1\n"
                       "      end\n";
  std::printf("=== Durable recovery: journal replay vs snapshot boot ===\n");
  TablePrinter R({"fold records", "journal [KB]", "replay boot [ms]",
                  "snapshot boot [ms]"});
  for (unsigned Records : {256u, 1024u, 4096u}) {
    std::string StateDir = Dir + "/recover-" + std::to_string(Records);
    if (::mkdir(StateDir.c_str(), 0755) != 0)
      reportFatalError("mkdir failed for " + StateDir);
    {
      std::string Error;
      durable::StateStore::Recovery Recovered;
      auto Store = durable::StateStore::open(
          StateDir, durable::FsyncPolicy::Never, Recovered, Error);
      if (!Store)
        reportFatalError("state store open failed: " + Error);
      durable::DurableRecord Create;
      Create.Type = durable::RecordType::SessionCreate;
      Create.Session = "bench";
      Create.Source = Source;
      Create.Mode = 3; // Smart
      if (Store->journal().append(Create, Error) == 0)
        reportFatalError("append failed: " + Error);
      durable::DurableRecord F = Fold;
      for (uint32_t C = 0; C < F.Folds[0].Conds.size(); ++C)
        F.Folds[0].Conds[C].Node = C % 2; // Real condition nodes.
      for (unsigned I = 0; I < Records; ++I)
        if (Store->journal().append(F, Error) == 0)
          reportFatalError("append failed: " + Error);
    }

    auto BootOnce = [&StateDir](bool Checkpoint) {
      std::string Error;
      durable::StateStore::Recovery Recovered;
      auto Start = std::chrono::steady_clock::now();
      auto Store = durable::StateStore::open(
          StateDir, durable::FsyncPolicy::Never, Recovered, Error);
      if (!Store)
        reportFatalError("state store open failed: " + Error);
      serve::ServeOptions Opts;
      Opts.Store = Store.get();
      serve::ServeCore Core(Opts);
      serve::ServeCore::RestoreReport RR;
      Core.restore(Recovered, RR);
      auto End = std::chrono::steady_clock::now();
      if (Core.sessionCount() != 1)
        reportFatalError("recovery lost the bench session");
      if (Checkpoint && !Core.checkpoint(Error))
        reportFatalError("checkpoint failed: " + Error);
      return std::chrono::duration<double>(End - Start).count();
    };

    uint64_t JournalBytes = 0;
    {
      std::string Error;
      durable::StateStore::Recovery Recovered;
      auto Store = durable::StateStore::open(
          StateDir, durable::FsyncPolicy::Never, Recovered, Error);
      JournalBytes = Store ? Store->journal().sizeBytes() : 0;
    }
    double ReplaySecs = BootOnce(/*Checkpoint=*/true);
    double SnapshotSecs = BootOnce(/*Checkpoint=*/false);

    char KB[32], Replay[32], Snap[32];
    std::snprintf(KB, sizeof(KB), "%.1f",
                  static_cast<double>(JournalBytes) / 1024.0);
    std::snprintf(Replay, sizeof(Replay), "%.2f", ReplaySecs * 1e3);
    std::snprintf(Snap, sizeof(Snap), "%.2f", SnapshotSecs * 1e3);
    R.addRow({std::to_string(Records), KB, Replay, Snap});
  }
  std::printf("%s\n", R.str().c_str());
  CleanDir();
}

// Streaming counter ingest: N writer threads firehosing deltas into a
// CounterDeltaStream's sharded atomic cells, a periodic flusher folding
// each sealed epoch into the session, and 0 / 1 / Q query threads
// re-estimating concurrently. The updates/s column is the sustained
// append rate measured over the writers' whole lifetime — the acceptance
// gate watches it stay above 1M/s even with concurrent queries.
void printStreamingIngestTable() {
  constexpr unsigned Funcs = 255;
  constexpr unsigned Writers = 4;
  constexpr uint64_t OpsPerWriter = 250000;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  std::printf("=== Streaming counter ingest (%u functions, %u writers, "
              "%llu updates) ===\n",
              Funcs, Writers,
              static_cast<unsigned long long>(Writers * OpsPerWriter));
  TablePrinter T({"query threads", "wall [ms]", "updates/s", "epochs",
                  "queries"});
  for (unsigned QueryThreads : {0u, 1u, 4u}) {
    DiagnosticEngine Diags;
    auto S = EstimationSession::create(*Prog, CM,
                                       EstimatorOptions(Diags).jobs(4));
    if (!S || !S->profiledRun().Ok)
      reportFatalError("session setup failed for streaming bench");
    if (!S->estimateEntry().Ok)
      reportFatalError("warm-up estimate failed");
    auto Stream = CounterDeltaStream::create(*S);
    const unsigned NumFns = Stream->numFunctions();

    std::atomic<bool> WritersDone{false};
    std::atomic<uint64_t> Queries{0};
    auto Start = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> Pool;
      // The flusher seals an epoch every millisecond until the writers
      // retire, then drains whatever is left in one final epoch.
      Pool.emplace_back([&] {
        while (!WritersDone.load(std::memory_order_acquire)) {
          Stream->flush();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        Stream->flush();
      });
      for (unsigned Q = 0; Q < QueryThreads; ++Q)
        Pool.emplace_back([&] {
          while (!WritersDone.load(std::memory_order_acquire)) {
            if (!S->estimateEntry().Ok)
              reportFatalError("concurrent estimate failed");
            Queries.fetch_add(1, std::memory_order_relaxed);
          }
        });
      {
        std::vector<std::jthread> WriterPool;
        for (unsigned W = 0; W < Writers; ++W)
          WriterPool.emplace_back([&, W] {
            CounterDeltaStream::Writer Wr = Stream->acquireWriter();
            if (!Wr)
              reportFatalError("no writer slot free");
            for (uint64_t I = 0; I < OpsPerWriter; ++I)
              Wr.add((W + I) % NumFns, 0, 1.0);
          });
      }
      WritersDone.store(true, std::memory_order_release);
    }
    auto End = std::chrono::steady_clock::now();
    double Wall = std::chrono::duration<double>(End - Start).count();
    CounterDeltaStream::Stats St = Stream->stats();
    if (St.Appended != Writers * OpsPerWriter || St.Dropped != 0)
      reportFatalError("streaming bench lost updates");

    char WallMs[32], Rate[32];
    std::snprintf(WallMs, sizeof(WallMs), "%.1f", Wall * 1e3);
    std::snprintf(Rate, sizeof(Rate), "%.2fM",
                  static_cast<double>(St.Appended) / Wall / 1e6);
    T.addRow({std::to_string(QueryThreads), WallMs, Rate,
              std::to_string(static_cast<unsigned long long>(St.Epochs)),
              std::to_string(static_cast<unsigned long long>(
                  Queries.load()))});
  }
  std::printf("%s\n", T.str().c_str());
}

// Replication lag per ack mode: an in-process primary (ServeCore +
// JournalShipper) connected to a standby (read-only ServeCore +
// StandbyReplicator) over a socketpair. Each row ships the same burst of
// epoch-fold mutations and reports the primary-side append wall clock
// (which under ack=always includes the standby-durability wait baked into
// every acknowledgement) and the residual catch-up lag after the last
// append — the window an unacked failover could lose. The burst rows
// append back to back, so the shipper always has frames waiting; the
// closed-loop row has one writer pause after every acknowledged append,
// so each append lands on an idle shipper and its cost includes the
// shipper's wake-up.
void printReplicationLagTable() {
  char Template[] = "/tmp/ptran-bench-repl-XXXXXX";
  if (!::mkdtemp(Template)) {
    std::printf("=== Replication lag: skipped (no scratch dir) ===\n\n");
    return;
  }
  std::string Dir = Template;
  auto CleanDir = [&Dir] {
    std::string Cmd = "rm -rf " + Dir;
    if (std::system(Cmd.c_str()) != 0) {
    }
  };

  const char *Source = "      program main\n"
                       "      integer i\n"
                       "      do 10 i = 1, 8\n"
                       "        call leaf(i)\n"
                       " 10   continue\n"
                       "      end\n"
                       "      subroutine leaf(k)\n"
                       "      integer k\n"
                       "      k = k + 1\n"
                       "      end\n";
  constexpr unsigned Burst = 512;
  constexpr unsigned ClosedLoopAppends = 64;

  // Accepts shipper subscriptions the way the daemon's accept loop does,
  // one thread per socketpair connection.
  struct SubscriptionServer {
    repl::JournalShipper &Shipper;
    std::vector<std::thread> Threads;
    std::mutex Mu;
    explicit SubscriptionServer(repl::JournalShipper &S) : Shipper(S) {}
    ~SubscriptionServer() {
      Shipper.stop();
      std::lock_guard<std::mutex> L(Mu);
      for (std::thread &T : Threads)
        T.join();
    }
    int connect(std::string &Error) {
      int Sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) < 0) {
        Error = "socketpair failed";
        return -1;
      }
      std::lock_guard<std::mutex> L(Mu);
      Threads.emplace_back([this, Fd = Sv[0]] {
        serve::WireMessage Sub;
        std::string Err;
        if (serve::readFrame(Fd, Sub, Err) == 1 &&
            Sub.Verb == "repl-subscribe")
          Shipper.runSubscription(Fd, Sub);
        ::close(Fd);
      });
      return Sv[1];
    }
  };

  std::printf("=== Replication lag per ack mode (%u epoch folds, %u in "
              "the closed loop, socketpair standby) ===\n",
              Burst, ClosedLoopAppends);
  TablePrinter T({"ack", "records", "append wall [ms]", "us/append",
                  "records/s", "catch-up [ms]"});
  struct Row {
    repl::AckMode Ack;
    bool ClosedLoop;
  };
  for (Row R : {Row{repl::AckMode::None, false},
                Row{repl::AckMode::Batch, false},
                Row{repl::AckMode::Always, false},
                Row{repl::AckMode::Always, true}}) {
    const repl::AckMode Ack = R.Ack;
    const std::string Name =
        std::string(repl::ackModeName(Ack)) + (R.ClosedLoop ? "-closed" : "");
    const unsigned Appends = R.ClosedLoop ? ClosedLoopAppends : Burst;
    std::string PDir = Dir + "/p-" + Name;
    std::string SDir = Dir + "/s-" + Name;
    if (::mkdir(PDir.c_str(), 0755) != 0 ||
        ::mkdir(SDir.c_str(), 0755) != 0)
      reportFatalError("mkdir failed for replication bench");
    std::string Error;
    durable::StateStore::Recovery RecP, RecS;
    auto StoreP =
        durable::StateStore::open(PDir, durable::FsyncPolicy::Never, RecP,
                                  Error);
    auto StoreS =
        durable::StateStore::open(SDir, durable::FsyncPolicy::Never, RecS,
                                  Error);
    if (!StoreP || !StoreS)
      reportFatalError("state store open failed: " + Error);

    repl::JournalShipper::Options ShipOpts;
    ShipOpts.Store = StoreP.get();
    ShipOpts.Ack = Ack;
    repl::JournalShipper Shipper(ShipOpts);
    SubscriptionServer Server(Shipper);

    serve::ServeOptions POpts;
    POpts.Store = StoreP.get();
    POpts.Repl = &Shipper;
    serve::ServeCore Primary(POpts);
    Shipper.setCore(&Primary);

    serve::ServeOptions SOpts;
    SOpts.Store = StoreS.get();
    serve::ServeCore Standby(SOpts);

    repl::StandbyReplicator::Options StandOpts;
    StandOpts.Core = &Standby;
    StandOpts.Store = StoreS.get();
    StandOpts.Ack = Ack;
    StandOpts.Backoff = RetryPolicy().retries(1u << 30).baseDelay(
        std::chrono::milliseconds(1));
    StandOpts.Connect = [&Server](std::string &Err) {
      return Server.connect(Err);
    };
    repl::StandbyReplicator Replica(StandOpts);
    if (!Replica.start(Error))
      reportFatalError("standby start failed: " + Error);

    serve::WireMessage Load;
    Load.Verb = "load-program";
    Load.Params["session"] = "bench";
    Load.Body = Source;
    if (Primary.handle(Load).Verb != "ok")
      reportFatalError("load-program failed in replication bench");
    if (Primary.handle([&] {
                 serve::WireMessage R;
                 R.Verb = "run";
                 R.Params["session"] = "bench";
                 return R;
               }())
            .Verb != "ok")
      reportFatalError("run failed in replication bench");

    // One 16-byte delta record against cell (0, 0), flushed per request so
    // every iteration journals (and ships) exactly one EpochFold.
    serve::WireMessage Fold;
    Fold.Verb = "stream-deltas";
    Fold.Params["session"] = "bench";
    Fold.Params["flush"] = "1";
    uint64_t Bits;
    double Delta = 1.0;
    std::memcpy(&Bits, &Delta, sizeof(Bits));
    Fold.Body.assign(8, '\0'); // FuncIdx = 0, CondIdx = 0.
    for (int I = 0; I < 8; ++I)
      Fold.Body.push_back(static_cast<char>((Bits >> (8 * I)) & 0xff));

    // Every row first lets the standby subscribe and catch up with the
    // set-up records: an ack=always request with no live subscriber does
    // not wait, and the closed loop's first append must find the shipper
    // idle.
    auto waitCaughtUp = [&] {
      const uint64_t Target = StoreP->journal().lastLsn();
      while (Replica.lastAppliedLsn() < Target)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    };
    waitCaughtUp();
    std::chrono::steady_clock::duration Appending{};
    for (unsigned I = 0; I < Appends; ++I) {
      auto Start = std::chrono::steady_clock::now();
      if (Primary.handle(Fold).Verb != "ok")
        reportFatalError("stream-deltas failed in replication bench");
      Appending += std::chrono::steady_clock::now() - Start;
      if (R.ClosedLoop)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto AppendEnd = std::chrono::steady_clock::now();
    const uint64_t Target = StoreP->journal().lastLsn();
    waitCaughtUp();
    auto CaughtUp = std::chrono::steady_clock::now();
    Replica.stop();

    double AppendSecs = std::chrono::duration<double>(Appending).count();
    double CatchUpSecs =
        std::chrono::duration<double>(CaughtUp - AppendEnd).count();
    char Wall[32], Per[32], Rate[32], Lag[32];
    std::snprintf(Wall, sizeof(Wall), "%.2f", AppendSecs * 1e3);
    std::snprintf(Per, sizeof(Per), "%.2f", AppendSecs / Appends * 1e6);
    std::snprintf(Rate, sizeof(Rate), "%.0f", Appends / AppendSecs);
    std::snprintf(Lag, sizeof(Lag), "%.2f", CatchUpSecs * 1e3);
    T.addRow({Name, std::to_string(static_cast<unsigned long long>(Target)),
              Wall, Per, Rate, Lag});
  }
  std::printf("%s\n", T.str().c_str());
  CleanDir();
}

/// Bytes the main malloc arena has handed out and not taken back; 0
/// where mallinfo2 is unavailable. The analyses run on this thread
/// (the default jobs=1), so their allocations land in this arena.
size_t heapInUse() {
#ifdef __GLIBC__
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

void printStaticScalingTable() {
  std::printf("=== Ablation A2: representation sizes vs program size ===\n");
  std::printf("(heap KB/fn: heap retained by ProgramAnalysis::compute + "
              "ProgramPlan::build, per function, by mallinfo2)\n");
  TablePrinter T({"units", "stmts", "ecfg nodes", "fcdg edges",
                  "conditions", "smart counters", "heap KB/fn"});
  auto Row = [&](const std::string &Name, const Program &Prog) {
    size_t Before = heapInUse();
    DiagnosticEngine Diags;
    std::unique_ptr<ProgramAnalysis> PA = ProgramAnalysis::compute(Prog, Diags);
    if (!PA)
      reportFatalError("scaling program failed analysis: " + Diags.str());
    ProgramPlan Plan = ProgramPlan::build(*PA, ProfileMode::Smart);
    double HeapKb = static_cast<double>(heapInUse() - Before) / 1024.0 /
                    static_cast<double>(Prog.functions().size());
    const Function *Main = Prog.entry();
    const FunctionAnalysis &FA = PA->of(*Main);
    char Heap[32];
    std::snprintf(Heap, sizeof(Heap), "%.1f", HeapKb);
    T.addRow({Name, std::to_string(Main->numStmts()),
              std::to_string(FA.ecfg().cfg().numNodes()),
              std::to_string(FA.cd().arena().numEdges()),
              std::to_string(FA.cd().conditions().size()),
              std::to_string(Plan.totalCounters()), Heap});
  };
  for (unsigned Units : {4u, 16u, 64u, 256u})
    Row(std::to_string(Units), *makeScalingProgram(Units, /*Depth=*/2));
  // The profile-churn benchmark's program: per-row figures are main's,
  // the heap column averages all 255 functions.
  Row("255 fns", *makeManyFunctionProgram(255, 3));
  std::printf("%s\n", T.str().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  printStaticScalingTable();
  printTimeVarSweepTable();
  printParallelSpeedupTable();
  printIncrementalReestimationTable();
  printObservabilityOverheadTable();
  printCancellationOverheadTable();
  printProfileIngestionTable();
  printStreamingIngestTable();
  printDurableStateTable();
  printReplicationLagTable();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
