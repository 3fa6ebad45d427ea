//===--- examples/profile_explorer.cpp - Counter placement explorer -------===//
//
// Shows Section 3 at work on a whole workload: for each optimization
// level (naive per-block / opt1 / opt1+2 / smart) it reports how many
// counters the plan places and how many dynamic updates one run costs,
// then recovers the frequencies from the smart plan, estimates per-
// procedure times, and saves the session's profile as the PTPF program
// database that `ptran-estimate --pdb` accumulates into.
//
// Build & run:  ./build/examples/profile_explorer [path/to/program.f]
//   Without an argument it explores the built-in LOOPS workload
//   (the 24 Livermore Loops).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "session/EstimationSession.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ptran;

int main(int Argc, char **Argv) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog;
  std::string Name;

  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Argv[1]);
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Prog = parseProgram(Buffer.str(), Diags);
    Name = Argv[1];
  } else {
    Prog = parseWorkload(livermoreLoops());
    Name = "LOOPS (24 Livermore kernels)";
  }
  if (!Prog) {
    std::fprintf(stderr, "parse failed:\n%s", Diags.str().c_str());
    return 1;
  }

  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  if (!PA) {
    std::fprintf(stderr, "analysis failed:\n%s", Diags.str().c_str());
    return 1;
  }
  CostModel CM = CostModel::optimizing();

  std::printf("exploring counter placement for: %s\n\n", Name.c_str());

  // One interpreter run with all four runtimes attached at once, so every
  // level observes the identical execution.
  constexpr ProfileMode Modes[] = {ProfileMode::Naive, ProfileMode::Opt1,
                                   ProfileMode::Opt12, ProfileMode::Smart};
  std::vector<ProgramPlan> Plans;
  std::vector<std::unique_ptr<ProfileRuntime>> Runtimes;
  Interpreter Interp(*Prog, CM);
  for (ProfileMode M : Modes) {
    Plans.push_back(ProgramPlan::build(*PA, M));
    Runtimes.push_back(
        std::make_unique<ProfileRuntime>(*PA, Plans.back(), CM));
    Interp.addObserver(Runtimes.back().get());
  }
  RunResult Run = Interp.run();
  if (!Run.Ok) {
    std::fprintf(stderr, "run failed: %s\n", Run.Error.c_str());
    return 1;
  }

  TablePrinter Table({"placement", "counters", "dyn updates",
                      "overhead cycles", "% of run"});
  for (size_t I = 0; I < Plans.size(); ++I) {
    double Overhead = Runtimes[I]->overheadCycles();
    Table.addRow(
        {profileModeName(Modes[I]), std::to_string(Plans[I].totalCounters()),
         std::to_string(Runtimes[I]->dynamicIncrements() +
                        Runtimes[I]->dynamicAdds()),
         formatDouble(Overhead),
         formatDouble(100.0 * Overhead / Run.Cycles, 3) + "%"});
  }
  std::printf("%s\n", Table.str().c_str());
  std::printf("program cycles without profiling: %s\n\n",
              formatDouble(Run.Cycles).c_str());

  // Recover per-procedure invocation counts.
  const ProgramPlan &Smart = Plans.back();
  const ProfileRuntime &SmartRt = *Runtimes.back();
  TablePrinter Procs({"procedure", "calls", "conditions", "counters"});
  for (const auto &F : Prog->functions()) {
    FrequencyTotals T = SmartRt.recover(*F);
    if (!T.Ok) {
      std::fprintf(stderr, "recovery failed for %s\n", F->name().c_str());
      return 1;
    }
    const FunctionAnalysis &FA = PA->of(*F);
    Procs.addRow(
        {F->name(),
         formatDouble(T.condTotal(
             FA.cd().conditionId({FA.ecfg().start(), CfgLabel::U}))),
         std::to_string(FA.cd().conditions().size()),
         std::to_string(Smart.of(*F).numCounters())});
  }
  std::printf("%s\n", Procs.str().c_str());

  // Per-procedure TIME/STD_DEV through an EstimationSession: one batch
  // query answers every procedure, and asking again is a pure cache hit.
  auto Session = EstimationSession::create(*Prog, CM, EstimatorOptions(Diags));
  if (!Session) {
    std::fprintf(stderr, "session creation failed:\n%s", Diags.str().c_str());
    return 1;
  }
  RunResult SessionRun = Session->profiledRun();
  if (!SessionRun.Ok) {
    std::fprintf(stderr, "session run failed: %s\n", SessionRun.Error.c_str());
    return 1;
  }
  std::vector<EstimateRequest> Requests;
  for (const auto &F : Prog->functions())
    Requests.emplace_back(F->name());
  std::vector<EstimateResult> Estimates = Session->estimate(Requests);
  TablePrinter Times({"procedure", "TIME", "STD_DEV"});
  for (const EstimateResult &R : Estimates) {
    if (!R.Ok) {
      std::fprintf(stderr, "estimate failed: %s\n", R.Error.c_str());
      return 1;
    }
    Times.addRow({R.F->name(), formatDouble(R.Time), formatDouble(R.StdDev)});
  }
  std::printf("%s\n", Times.str().c_str());
  Session->estimate(Requests); // Unchanged inputs: served from cache.
  std::printf("session evaluations: %llu total, %llu on the repeat query "
              "(%llu cache hits)\n\n",
              (unsigned long long)Session->totalEvaluations(),
              (unsigned long long)Session->lastEvaluations(),
              (unsigned long long)Session->cacheHits());

  const char *DbPath = "profile_explorer.ptpf";
  if (Session->saveProfile(DbPath, &Diags))
    std::printf("profile saved to %s (a program database: "
                "ptran-estimate --pdb=%s accumulates more runs into it)\n",
                DbPath, DbPath);
  return 0;
}
