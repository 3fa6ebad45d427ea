//===--- tools/ptran-estimate.cpp - Command-line estimation driver --------===//
//
// The whole framework behind one command. One EstimationSession owns the
// runs, the accumulated totals and the estimates; every listing reads the
// totals and frequencies the printed TIME/VAR came from.
//
//   ptran-estimate FILE.f [options]
//   ptran-estimate --workload=loops|simple [options]
//
// Options:
//   --runs=N                profiled runs to accumulate (default 1;
//                           0 needs --profile-in: estimate from the file)
//   --mode=smart|opt1+2|opt1|naive   counter placement (default smart)
//   --cost=on|off           optimizing / non-optimizing cost model
//   --loop-variance=zero|profiled|geometric|uniform
//   --statements=PROC       per-statement FREQ/TIME/VAR table for PROC
//   --annotate=PROC         annotated source listing for PROC
//   --plan                  print the counter plans
//   --sampling=PERIOD       also run a sampling profiler (cycles/sample)
//   --chunk=P,OVERHEAD      Kruskal-Weiss advice for every DO loop
//   --freq=profile|static|hybrid   frequency source (default profile)
//   --jobs=N                analysis worker threads (default: hardware
//                           concurrency; 1 = serial; results are identical
//                           for every value)
//   --check                 verify the Section 3 identities on the profile
//                           (findings make the exit code nonzero)
//   --profile-out=FILE      save the accumulated counters + loop moments
//                           as a durable, checksummed profile file
//   --profile-in=FILE       validate and ingest a saved profile before
//                           estimating
//   --on-bad-profile=fail|quarantine   what to do with functions whose
//                           profile data fails validation (default
//                           quarantine: degrade them to static
//                           frequencies and keep going)
//   --deadline-ms=N         wall-clock deadline for the whole invocation;
//                           estimation passes poll it cooperatively
//   --on-deadline=fail|degrade   what a hit deadline does (default fail:
//                           structured timeout; degrade: unfinished
//                           procedures fall back to static frequencies)
//   --io-retries=N          retry transient profile-file IO failures up
//                           to N times with exponential backoff
//   --dot=cfg|ecfg|fcdg     Graphviz of the entry procedure's graph
//   --pdb=FILE              load/accumulate/save a program database
//   --trace=FILE            write a Chrome trace_event JSON of the run
//   --stats                 print timing-span / counter tables at exit
//   --version               print the version and exit
//   --help                  print this option summary and exit
//
//===----------------------------------------------------------------------===//

#include "cost/Estimator.h"
#include "obs/Observability.h"
#include "cost/Report.h"
#include "freq/StaticFrequencies.h"
#include "ir/Printer.h"
#include "profile/ConsistencyCheck.h"
#include "parser/Parser.h"
#include "pdb/ProgramDatabase.h"
#include "profile/SamplingProfile.h"
#include "sched/ChunkScheduling.h"
#include "session/EstimationSession.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#ifndef PTRAN_VERSION
#define PTRAN_VERSION "unknown"
#endif

using namespace ptran;

namespace {

struct Options {
  std::string InputFile;
  std::string WorkloadName;
  unsigned Runs = 1;
  ProfileMode Mode = ProfileMode::Smart;
  bool OptimizingCost = true;
  LoopVarianceMode LoopVariance = LoopVarianceMode::Profiled;
  std::string StatementsProc;
  std::string AnnotateProc;
  bool PrintPlan = false;
  double SamplingPeriod = 0.0;
  unsigned ChunkP = 0;
  double ChunkOverhead = 0.0;
  std::string Dot;
  std::string PdbFile;
  enum class FreqSource { Profile, Static, Hybrid } Freq = FreqSource::Profile;
  bool Check = false;
  /// Durable profile to write after the runs (empty = none).
  std::string ProfileOut;
  /// Durable profile to validate and ingest before estimating.
  std::string ProfileIn;
  /// Policy for functions whose profile data fails validation.
  BadProfilePolicy OnBadProfile = BadProfilePolicy::Quarantine;
  /// Wall-clock deadline in milliseconds; unset = unbounded. 0 is valid
  /// (an immediately-expired token) and exercises the timeout path.
  std::optional<unsigned> DeadlineMs;
  /// What a hit deadline does to the estimation phase.
  DeadlinePolicy OnDeadline = DeadlinePolicy::Fail;
  /// Transient profile-file IO failures absorbed per open (0 = no retry).
  unsigned IoRetries = 0;
  /// Chrome trace output path; empty = no trace.
  std::string TraceFile;
  /// Print the observability stats tables after the run.
  bool Stats = false;
  /// 0 = hardware concurrency (the default); 1 reproduces the serial
  /// pipeline bit-for-bit.
  unsigned Jobs = 0;
};

const char *const UsageText =
    "usage: ptran-estimate FILE.f | --workload=loops|simple [options]\n"
    "options:\n"
    "  --runs=N                profiled runs to accumulate (default 1)\n"
    "  --mode=smart|opt1+2|opt1|naive   counter placement (default smart)\n"
    "  --cost=on|off           optimizing / non-optimizing cost model\n"
    "  --loop-variance=zero|profiled|geometric|uniform\n"
    "  --statements=PROC       per-statement FREQ/TIME/VAR table for PROC\n"
    "  --annotate=PROC         annotated source listing for PROC\n"
    "  --plan                  print the counter plans\n"
    "  --sampling=PERIOD       also run a sampling profiler\n"
    "  --chunk=P,OVERHEAD      Kruskal-Weiss advice for every DO loop\n"
    "  --freq=profile|static|hybrid   frequency source (default profile)\n"
    "  --jobs=N                worker threads (0 = hardware concurrency)\n"
    "  --check                 verify the Section 3 identities (findings\n"
    "                          make the exit code nonzero)\n"
    "  --profile-out=FILE      save the accumulated profile (checksummed)\n"
    "  --profile-in=FILE       validate + ingest a saved profile\n"
    "  --on-bad-profile=fail|quarantine   bad-profile policy (default\n"
    "                          quarantine: degrade to static frequencies)\n"
    "  --deadline-ms=N         wall-clock deadline for the invocation\n"
    "  --on-deadline=fail|degrade   deadline policy (default fail)\n"
    "  --io-retries=N          retries for transient profile IO failures\n"
    "  --dot=cfg|ecfg|fcdg     Graphviz of the entry procedure's graph\n"
    "  --pdb=FILE              load/accumulate/save a program database\n"
    "  --trace=FILE            write a Chrome trace_event JSON of the run\n"
    "  --stats                 print timing-span / counter tables at exit\n"
    "  --version               print the version and exit\n"
    "  --help                  print this summary and exit\n";

/// Parses the command line. On failure, \p Error holds an actionable
/// message naming the offending flag and the accepted values.
bool parseArgs(int Argc, char **Argv, Options &Opts, std::string &Error) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const std::string &Prefix) -> std::string {
      return Arg.substr(Prefix.size());
    };
    auto Invalid = [&](const std::string &Flag, const std::string &Got,
                       const std::string &Expected) {
      Error = "invalid value '" + Got + "' for " + Flag + " (expected " +
              Expected + ")";
      return false;
    };
    if (Arg == "--version") {
      std::printf("ptran-estimate %s\n", PTRAN_VERSION);
      std::exit(0);
    } else if (Arg == "--help") {
      std::printf("%s", UsageText);
      std::exit(0);
    } else if (Arg.rfind("--workload=", 0) == 0) {
      Opts.WorkloadName = toLower(Value("--workload="));
    } else if (Arg.rfind("--runs=", 0) == 0) {
      // atoi would silently turn garbage ("ten", "3x") into 0 or a prefix;
      // parseUnsigned accepts digits only and rejects overflow.
      std::optional<unsigned> N = parseUnsigned(Value("--runs="));
      if (!N)
        return Invalid("--runs", Value("--runs="), "a non-negative number");
      Opts.Runs = *N;
    } else if (Arg.rfind("--mode=", 0) == 0) {
      std::string M = toLower(Value("--mode="));
      if (M == "smart")
        Opts.Mode = ProfileMode::Smart;
      else if (M == "opt1+2" || M == "opt12")
        Opts.Mode = ProfileMode::Opt12;
      else if (M == "opt1")
        Opts.Mode = ProfileMode::Opt1;
      else if (M == "naive")
        Opts.Mode = ProfileMode::Naive;
      else
        return Invalid("--mode", M, "smart|opt1+2|opt1|naive");
    } else if (Arg.rfind("--cost=", 0) == 0) {
      std::string C = toLower(Value("--cost="));
      if (C == "on")
        Opts.OptimizingCost = true;
      else if (C == "off")
        Opts.OptimizingCost = false;
      else
        return Invalid("--cost", C, "on|off");
    } else if (Arg.rfind("--loop-variance=", 0) == 0) {
      std::string V = toLower(Value("--loop-variance="));
      if (V == "zero")
        Opts.LoopVariance = LoopVarianceMode::Zero;
      else if (V == "profiled")
        Opts.LoopVariance = LoopVarianceMode::Profiled;
      else if (V == "geometric")
        Opts.LoopVariance = LoopVarianceMode::Geometric;
      else if (V == "uniform")
        Opts.LoopVariance = LoopVarianceMode::Uniform;
      else
        return Invalid("--loop-variance", V,
                       "zero|profiled|geometric|uniform");
    } else if (Arg.rfind("--statements=", 0) == 0) {
      Opts.StatementsProc = Value("--statements=");
    } else if (Arg.rfind("--annotate=", 0) == 0) {
      Opts.AnnotateProc = Value("--annotate=");
    } else if (Arg == "--plan") {
      Opts.PrintPlan = true;
    } else if (Arg.rfind("--sampling=", 0) == 0) {
      std::optional<double> Period = parseDouble(Value("--sampling="));
      if (!Period || *Period <= 0.0)
        return Invalid("--sampling", Value("--sampling="),
                       "a positive cycles-per-sample period");
      Opts.SamplingPeriod = *Period;
    } else if (Arg.rfind("--chunk=", 0) == 0) {
      std::vector<std::string> Parts = split(Value("--chunk="), ',');
      if (Parts.size() != 2)
        return Invalid("--chunk", Value("--chunk="), "P,OVERHEAD");
      std::optional<unsigned> P = parseUnsigned(Parts[0]);
      std::optional<double> Overhead = parseDouble(Parts[1]);
      if (!P || *P == 0)
        return Invalid("--chunk", Value("--chunk="),
                       "a positive processor count P");
      if (!Overhead || *Overhead < 0.0)
        return Invalid("--chunk", Value("--chunk="),
                       "a non-negative scheduling overhead");
      Opts.ChunkP = *P;
      Opts.ChunkOverhead = *Overhead;
    } else if (Arg.rfind("--dot=", 0) == 0) {
      Opts.Dot = toLower(Value("--dot="));
      if (Opts.Dot != "cfg" && Opts.Dot != "ecfg" && Opts.Dot != "fcdg")
        return Invalid("--dot", Opts.Dot, "cfg|ecfg|fcdg");
    } else if (Arg.rfind("--freq=", 0) == 0) {
      std::string V = toLower(Value("--freq="));
      if (V == "profile")
        Opts.Freq = Options::FreqSource::Profile;
      else if (V == "static")
        Opts.Freq = Options::FreqSource::Static;
      else if (V == "hybrid")
        Opts.Freq = Options::FreqSource::Hybrid;
      else
        return Invalid("--freq", V, "profile|static|hybrid");
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      // 0 is a valid value (hardware concurrency), so a silent 0 on
      // garbage would be ambiguous; require an explicit non-negative number.
      std::optional<unsigned> J = parseUnsigned(Value("--jobs="));
      if (!J)
        return Invalid("--jobs", Value("--jobs="), "a non-negative number");
      Opts.Jobs = *J;
    } else if (Arg == "--check") {
      Opts.Check = true;
    } else if (Arg.rfind("--profile-out=", 0) == 0) {
      Opts.ProfileOut = Value("--profile-out=");
      if (Opts.ProfileOut.empty())
        return Invalid("--profile-out", "", "an output file path");
    } else if (Arg.rfind("--profile-in=", 0) == 0) {
      Opts.ProfileIn = Value("--profile-in=");
      if (Opts.ProfileIn.empty())
        return Invalid("--profile-in", "", "a profile file path");
    } else if (Arg.rfind("--on-bad-profile=", 0) == 0) {
      std::string V = toLower(Value("--on-bad-profile="));
      if (V == "fail")
        Opts.OnBadProfile = BadProfilePolicy::Fail;
      else if (V == "quarantine")
        Opts.OnBadProfile = BadProfilePolicy::Quarantine;
      else
        return Invalid("--on-bad-profile", V, "fail|quarantine");
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      // 0 is meaningful (an already-expired token), so garbage must not
      // silently parse to it.
      std::optional<unsigned> Ms = parseUnsigned(Value("--deadline-ms="));
      if (!Ms)
        return Invalid("--deadline-ms", Value("--deadline-ms="),
                       "a non-negative number of milliseconds");
      Opts.DeadlineMs = *Ms;
    } else if (Arg.rfind("--on-deadline=", 0) == 0) {
      std::string V = toLower(Value("--on-deadline="));
      if (V == "fail")
        Opts.OnDeadline = DeadlinePolicy::Fail;
      else if (V == "degrade")
        Opts.OnDeadline = DeadlinePolicy::Degrade;
      else
        return Invalid("--on-deadline", V, "fail|degrade");
    } else if (Arg.rfind("--io-retries=", 0) == 0) {
      std::optional<unsigned> N = parseUnsigned(Value("--io-retries="));
      if (!N)
        return Invalid("--io-retries", Value("--io-retries="),
                       "a non-negative retry count");
      Opts.IoRetries = *N;
    } else if (Arg.rfind("--pdb=", 0) == 0) {
      Opts.PdbFile = Value("--pdb=");
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TraceFile = Value("--trace=");
      if (Opts.TraceFile.empty())
        return Invalid("--trace", "", "an output file path");
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg.rfind("--", 0) == 0) {
      Error = "unknown option '" + Arg + "'";
      return false;
    } else if (Opts.InputFile.empty()) {
      Opts.InputFile = Arg;
    } else {
      Error = "unexpected extra argument '" + Arg + "' (input file is " +
              Opts.InputFile + ")";
      return false;
    }
  }
  if (Opts.InputFile.empty() && Opts.WorkloadName.empty()) {
    Error = "no input: pass FILE.f or --workload=loops|simple";
    return false;
  }
  if (Opts.Runs == 0 && Opts.ProfileIn.empty()) {
    Error = "--runs=0 only makes sense with --profile-in (no runs and no "
            "profile leaves nothing to estimate from)";
    return false;
  }
  return true;
}

std::unique_ptr<Program> loadProgram(const Options &Opts,
                                     DiagnosticEngine &Diags) {
  if (!Opts.WorkloadName.empty()) {
    if (Opts.WorkloadName == "loops")
      return parseWorkload(livermoreLoops());
    if (Opts.WorkloadName == "simple")
      return parseWorkload(simpleKernel());
    std::fprintf(stderr, "unknown workload '%s' (use loops or simple)\n",
                 Opts.WorkloadName.c_str());
    return nullptr;
  }
  std::ifstream In(Opts.InputFile);
  if (!In) {
    std::fprintf(stderr, "cannot open %s\n", Opts.InputFile.c_str());
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::unique_ptr<Program> P = parseProgram(Buffer.str(), Diags);
  if (!P)
    std::fprintf(stderr, "parse failed:\n%s", Diags.str().c_str());
  return P;
}

void printStatementTable(const FunctionAnalysis &FA, const Frequencies &Freqs,
                         const TimeAnalysis &TA) {
  const Function &F = FA.function();
  TablePrinter T({"statement", "NODE_FREQ", "COST", "TIME", "VAR",
                  "STD_DEV"});
  for (StmtId S = 0; S < F.numStmts(); ++S) {
    NodeId N = FA.cfg().nodeForStmt(S);
    if (N == InvalidNode)
      continue;
    const NodeEstimates &E = TA.of(F, N);
    T.addRow({printStmt(F, F.stmt(S)), formatDouble(Freqs.NodeFreq[N], 5),
              formatDouble(E.Cost, 5), formatDouble(E.Time, 6),
              formatDouble(E.Var, 6), formatDouble(E.StdDev, 5)});
  }
  std::printf("per-statement estimates for %s:\n%s\n", F.name().c_str(),
              T.str().c_str());
}

void printChunkAdvice(const ProgramAnalysis &PA,
                      const std::map<const Function *, Frequencies> &Freqs,
                      const TimeAnalysis &TA, unsigned P, double Overhead) {
  TablePrinter T({"procedure", "DO loop", "trips", "E[body]", "VAR[body]",
                  "KW chunk"});
  for (const auto &F : PA.program().functions()) {
    const FunctionAnalysis &FA = PA.of(*F);
    for (NodeId H : FA.intervals().headers()) {
      StmtId S = FA.cfg().origin(H);
      if (S == InvalidStmt || F->stmt(S)->kind() != StmtKind::DoStart)
        continue;
      LoopScheduleAdvice A =
          adviseChunkSize(TA, FA, Freqs.at(F.get()), H, P, Overhead);
      T.addRow({F->name(), printStmt(*F, F->stmt(S)),
                formatDouble(A.TripCount, 5), formatDouble(A.BodyMean, 5),
                formatDouble(A.BodyVar, 5), std::to_string(A.Chunk)});
    }
  }
  std::printf("Kruskal-Weiss chunk advice (P=%u, overhead=%s):\n%s\n", P,
              formatDouble(Overhead).c_str(), T.str().c_str());
}

/// Prints the run header.
void printRunSummary(const Options &Opts, const Estimator &Est,
                     double Cycles) {
  std::printf("%u run(s), %s simulated cycles total; profiling overhead "
              "%s cycles (%u counters, %llu updates)\n\n",
              Opts.Runs, formatDouble(Cycles).c_str(),
              formatDouble(Est.runtime().overheadCycles()).c_str(),
              Est.plan().totalCounters(),
              static_cast<unsigned long long>(
                  Est.runtime().dynamicIncrements() +
                  Est.runtime().dynamicAdds()));
}

/// Replays the runs under a sampling profiler. The sampler keeps its own
/// clock from the cost model, so a plain interpreter yields the samples
/// it would have taken riding along the profiled runs.
void printSamplingReport(const Options &Opts, const Program &Prog,
                         const CostModel &CM) {
  SamplingProfile Sampler(CM, Opts.SamplingPeriod);
  for (unsigned R = 0; R < Opts.Runs; ++R) {
    Interpreter Interp(Prog, CM);
    Interp.addObserver(&Sampler);
    Interp.run();
  }
  std::printf("%s\n", Sampler.report().c_str());
}

/// Prints the flat profile, TIME/VAR and the requested listings. They all
/// read \p Freqs (what \p TA was evaluated from) and the session's totals.
/// Returns 0, or 1 when a named procedure does not exist.
int printEstimates(const Options &Opts, const EstimationSession &Session,
                   const std::map<const Function *, Frequencies> &Freqs,
                   const TimeAnalysis &TA) {
  const Program &Prog = Session.program();
  const ProgramAnalysis &PA = Session.estimator().analysis();
  std::printf("flat profile (estimated):\n%s\n",
              formatProcedureReport(buildProcedureReport(PA, Freqs, TA))
                  .c_str());
  std::printf("TIME(START)    = %s cycles\n",
              formatDouble(TA.programTime(), 8).c_str());
  std::printf("STD_DEV(START) = %s cycles\n",
              formatDouble(TA.programStdDev(), 6).c_str());

  if (!Opts.StatementsProc.empty()) {
    const Function *F = Prog.findFunction(Opts.StatementsProc);
    if (!F) {
      std::fprintf(stderr, "no procedure named %s\n",
                   Opts.StatementsProc.c_str());
      return 1;
    }
    std::printf("\n");
    printStatementTable(PA.of(*F), Freqs.at(F), TA);
  }

  if (!Opts.AnnotateProc.empty()) {
    const Function *F = Prog.findFunction(Opts.AnnotateProc);
    if (!F) {
      std::fprintf(stderr, "no procedure named %s\n",
                   Opts.AnnotateProc.c_str());
      return 1;
    }
    std::printf("\n%s\n",
                annotatedListing(PA.of(*F), Session.totalsFor(*F), TA)
                    .c_str());
  }

  if (Opts.ChunkP > 0) {
    std::printf("\n");
    printChunkAdvice(PA, Freqs, TA, Opts.ChunkP, Opts.ChunkOverhead);
  }
  return 0;
}

/// \returns the number of findings, so callers can fail the invocation —
/// a consistency violation that exits 0 is invisible to scripts.
unsigned printFrequencyCheck(const EstimationSession &Session) {
  unsigned Issues = 0;
  for (const auto &F : Session.program().functions()) {
    std::vector<std::string> Findings = checkFrequencyConsistency(
        Session.estimator().analysis().of(*F), Session.totalsFor(*F));
    for (const std::string &Finding : Findings) {
      std::printf("consistency: %s\n", Finding.c_str());
      ++Issues;
    }
  }
  std::printf("consistency check: %u issue(s) across the Section 3 "
              "identities\n\n",
              Issues);
  return Issues;
}

/// Prints an ingest report's findings and quarantine list.
void printIngestReport(const std::string &Path,
                       const ProfileIngestReport &Report) {
  for (const std::string &Finding : Report.Findings)
    std::printf("profile %s: %s\n", Path.c_str(), Finding.c_str());
  if (Report.Ok)
    std::printf("profile %s: ingested %u section(s), quarantined %zu\n\n",
                Path.c_str(), Report.Accepted, Report.Quarantined.size());
}

/// Prints which functions are estimated from static frequencies and why.
void printQuarantineSummary(const EstimationSession &Session) {
  if (Session.quarantined().empty())
    return;
  std::printf("\nquarantined procedures (estimates use static "
              "frequencies):\n");
  for (const auto &[F, Reason] : Session.quarantined())
    std::printf("  %-12s %s\n", F->name().c_str(), Reason.c_str());
}

/// Prints which functions the deadline degraded to static frequencies.
void printDegradeSummary(
    const std::map<const Function *, std::string> &Degraded) {
  if (Degraded.empty())
    return;
  std::printf("\ndegraded procedures (deadline hit; estimates use static "
              "frequencies):\n");
  for (const auto &[F, Reason] : Degraded)
    std::printf("  %-12s %s\n", F->name().c_str(), Reason.c_str());
}

void printPlansAndDot(const Options &Opts, const Program &Prog,
                      const Estimator &Est) {
  if (Opts.PrintPlan)
    for (const auto &F : Prog.functions())
      std::printf("%s\n",
                  Est.plan().of(*F).str(Est.analysis().of(*F)).c_str());

  if (!Opts.Dot.empty()) {
    const FunctionAnalysis &FA = Est.analysis().of(*Prog.entry());
    if (Opts.Dot == "fcdg") {
      std::printf("%s\n",
                  FA.cd()
                      .dot(FA.ecfg().cfg(), Prog.entryName() + " fcdg")
                      .c_str());
    } else {
      const Cfg &G = Opts.Dot == "cfg" ? FA.cfg() : FA.ecfg().cfg();
      std::printf("%s\n",
                  G.dot(Prog.entryName() + " " + Opts.Dot).c_str());
    }
  }
}

/// Adds this invocation's totals to the program database in Opts.PdbFile
/// and folds the database's earlier accumulations into the session, so
/// the estimates and every listing read the database totals.
void foldProgramDatabase(const Options &Opts, EstimationSession &Session) {
  DiagnosticEngine Diags;
  ProgramDatabase Db;
  struct stat St;
  if (::stat(Opts.PdbFile.c_str(), &St) == 0) {
    auto Loaded = ProgramDatabase::loadFromFile(Opts.PdbFile, Diags);
    if (Loaded)
      Db = std::move(*Loaded);
    else
      std::fprintf(stderr, "ignoring unreadable program database:\n%s",
                   Diags.str().c_str());
  }
  std::vector<std::pair<const Function *, FrequencyTotals>> Earlier;
  for (const auto &F : Session.program().functions()) {
    const FunctionAnalysis &FA = Session.estimator().analysis().of(*F);
    FrequencyTotals T = Db.totalsFor(FA);
    if (T.Ok)
      Earlier.emplace_back(F.get(), std::move(T));
    Db.accumulateTotals(FA, Session.totalsFor(*F));
  }
  Db.noteRunCompleted();
  if (!Db.saveToFile(Opts.PdbFile, Diags))
    std::fprintf(stderr, "%s", Diags.str().c_str());
  else
    std::printf("program database %s now covers %u accumulation(s)\n\n",
                Opts.PdbFile.c_str(), Db.runsRecorded());
  Session.accumulateTotalsBatch(Earlier);
}

/// --freq=static|hybrid. The session estimates from profiled frequencies
/// only, and these sources are a tool option rather than a library one,
/// so the tool evaluates them itself from the session's totals.
int estimateFromFrequencyModel(const Options &Opts, const CostModel &CM,
                               const EstimationSession &Session,
                               DiagnosticEngine &Diags) {
  const Estimator &Est = Session.estimator();
  const EstimatorOptions &EOpts = Est.options();
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : Session.program().functions()) {
    const FunctionAnalysis &FA = Est.analysis().of(*F);
    StaticFrequencies S = computeStaticFrequencies(FA);
    if (Opts.Freq == Options::FreqSource::Static) {
      Freqs[F.get()] = S.Freqs;
    } else {
      FrequencyTotals T = Session.totalsFor(*F);
      Freqs[F.get()] = hybridFrequencies(FA, S, &T);
    }
  }

  TimeAnalysisOptions TAOpts;
  TAOpts.LoopVariance = Opts.LoopVariance;
  TAOpts.Stats = &Est.loopStats();
  TAOpts.Exec = EOpts.Exec;
  TAOpts.Obs = EOpts.Obs;
  TAOpts.Diags = &Diags;
  TAOpts.Cancel = EOpts.Cancel;
  TimeAnalysis TA = TimeAnalysis::run(Est.analysis(), Freqs, CM, TAOpts);
  std::map<const Function *, std::string> Degraded;
  if (TA.cutShort()) {
    if (Opts.OnDeadline == DeadlinePolicy::Fail) {
      if (!Diags.diagnostics().empty())
        std::fprintf(stderr, "%s", Diags.str().c_str());
      std::fprintf(stderr, "estimation failed: %s\n",
                   cancelMessage(*EOpts.Cancel, "estimation").c_str());
      return 1;
    }
    // Degrade: unfinished procedures fall back to static frequencies and
    // an unbudgeted incremental rerun completes them; everything the
    // budgeted run finished is reused bit-identically.
    std::vector<const Function *> Unfinished = TA.unfinished();
    for (const Function *F : Unfinished) {
      Freqs[F] = computeStaticFrequencies(Est.analysis().of(*F)).Freqs;
      Degraded[F] = EOpts.Cancel->describe();
    }
    TAOpts.Cancel = nullptr;
    TA = TimeAnalysis::rerun(Est.analysis(), Freqs, CM, TAOpts, TA,
                             Unfinished);
  }
  if (!Diags.diagnostics().empty())
    std::fprintf(stderr, "%s", Diags.str().c_str());

  int Rc = printEstimates(Opts, Session, Freqs, TA);
  printDegradeSummary(Degraded);
  return Rc;
}

/// The whole invocation: one EstimationSession owns the runs, the
/// accumulated totals and the estimates.
int run(const Options &Opts, const Program &Prog, const CostModel &CM,
        ObsRegistry *Obs) {
  DiagnosticEngine Diags;
  RetryPolicy IoRetry = RetryPolicy().retries(Opts.IoRetries);
  // The token outlives the session (same scope) and is armed before any
  // work, so the deadline covers the whole invocation.
  CancelToken Token;
  EstimatorOptions EOpts = EstimatorOptions(Diags)
                               .mode(Opts.Mode)
                               .jobs(Opts.Jobs)
                               .loopVariance(Opts.LoopVariance)
                               .onBadProfile(Opts.OnBadProfile)
                               .onDeadline(Opts.OnDeadline)
                               .ioRetry(IoRetry);
  if (Opts.DeadlineMs) {
    Token.setDeadlineIn(std::chrono::milliseconds(*Opts.DeadlineMs));
    EOpts.cancel(Token);
  }
  if (Obs)
    EOpts.observability(*Obs);
  auto Session = EstimationSession::create(Prog, CM, EOpts);
  if (!Session) {
    std::fprintf(stderr, "analysis failed:\n%s", Diags.str().c_str());
    return 1;
  }
  const Estimator &Est = Session->estimator();
  printPlansAndDot(Opts, Prog, Est);

  double Cycles = 0.0;
  for (unsigned R = 0; R < Opts.Runs; ++R) {
    RunResult Run = Session->profiledRun();
    if (!Run.Ok) {
      std::fprintf(stderr, "run %u failed: %s\n", R + 1, Run.Error.c_str());
      return 1;
    }
    Cycles += Run.Cycles;
    if (R == 0 && !Run.Output.empty())
      std::printf("program output:\n%s", Run.Output.c_str());
  }
  printRunSummary(Opts, Est, Cycles);
  if (Opts.SamplingPeriod > 0.0)
    printSamplingReport(Opts, Prog, CM);

  // Ingest a saved profile before any estimate: an unreadable file is a
  // hard error under either policy (there is nothing to degrade to — the
  // whole input is gone), per-section problems follow the policy.
  if (!Opts.ProfileIn.empty()) {
    DiagnosticEngine LoadDiags;
    std::optional<ProfileFile> PF =
        ProfileFile::loadFromFile(Opts.ProfileIn, &LoadDiags, IoRetry, Obs);
    if (!PF) {
      std::fprintf(stderr, "%s", LoadDiags.str().c_str());
      return 1;
    }
    if (!LoadDiags.diagnostics().empty())
      std::fprintf(stderr, "%s", LoadDiags.str().c_str());
    ProfileIngestReport Report = Session->ingestProfile(*PF);
    printIngestReport(Opts.ProfileIn, Report);
    if (!Report.Ok) {
      std::fprintf(stderr, "profile %s rejected: %s\n",
                   Opts.ProfileIn.c_str(), Report.Error.c_str());
      return 1;
    }
  }

  int Rc = 0;
  if (!Opts.ProfileOut.empty()) {
    DiagnosticEngine SaveDiags;
    if (!Session->saveProfile(Opts.ProfileOut, &SaveDiags)) {
      std::fprintf(stderr, "%s", SaveDiags.str().c_str());
      Rc = 1;
    } else {
      std::printf("profile saved to %s (%u run(s))\n\n",
                  Opts.ProfileOut.c_str(), Session->runsExecuted());
    }
  }

  if (Opts.Mode == ProfileMode::Naive) {
    std::printf("naive mode measures basic blocks only; rerun with "
                "--mode=smart for estimates\n");
    return Rc;
  }

  if (Opts.Check && printFrequencyCheck(*Session) > 0)
    Rc = 1;
  if (!Opts.PdbFile.empty())
    foldProgramDatabase(Opts, *Session);

  int EstimatesRc = 0;
  if (Opts.Freq != Options::FreqSource::Profile) {
    EstimatesRc = estimateFromFrequencyModel(Opts, CM, *Session, Diags);
  } else {
    EstimateResult Res = Session->estimateEntry();
    if (!Diags.diagnostics().empty())
      std::fprintf(stderr, "%s", Diags.str().c_str());
    if (!Res.Ok) {
      std::fprintf(stderr, "estimation failed: %s\n", Res.Error.c_str());
      return 1;
    }
    EstimatesRc = printEstimates(Opts, *Session, Session->frequencies(),
                                 *Res.Analysis);
    printQuarantineSummary(*Session);
    printDegradeSummary(Session->degraded());
  }
  return EstimatesRc != 0 ? EstimatesRc : Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string ParseError;
  if (!parseArgs(Argc, Argv, Opts, ParseError)) {
    std::fprintf(stderr, "ptran-estimate: %s\n%s", ParseError.c_str(),
                 UsageText);
    return 1;
  }

  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = loadProgram(Opts, Diags);
  if (!Prog)
    return 1;

  CostModel CM = Opts.OptimizingCost ? CostModel::optimizing()
                                     : CostModel::nonOptimizing();

  // One registry for the whole invocation when --trace/--stats asked for
  // it; null otherwise, which keeps every instrumented pass on its
  // zero-overhead path.
  std::unique_ptr<ObsRegistry> Obs;
  if (!Opts.TraceFile.empty() || Opts.Stats)
    Obs = std::make_unique<ObsRegistry>();

  int Rc = run(Opts, *Prog, CM, Obs.get());

  // Emit observability output even when the run failed: a trace of a
  // failing run is exactly what one wants to look at.
  if (Obs) {
    if (Opts.Stats)
      std::printf("\n%s", Obs->statsTable().c_str());
    if (!Opts.TraceFile.empty()) {
      std::string Error;
      if (!Obs->writeChromeTrace(Opts.TraceFile, Error)) {
        std::fprintf(stderr, "ptran-estimate: %s\n", Error.c_str());
        if (Rc == 0)
          Rc = 1;
      }
    }
  }
  return Rc;
}
