//===--- cost/Estimator.cpp - End-to-end estimation pipeline --------------===//

#include "cost/Estimator.h"

#include "support/FatalError.h"

using namespace ptran;

std::unique_ptr<Estimator> Estimator::create(const Program &P,
                                             const CostModel &CM,
                                             const EstimatorOptions &Opts) {
  DiagnosticEngine Scratch;
  DiagnosticEngine &Diags = Opts.Diags ? *Opts.Diags : Scratch;

  auto Est = std::unique_ptr<Estimator>(new Estimator());
  Est->P = &P;
  Est->CM = CM;
  Est->Opts = Opts;
  AnalysisOptions AOpts;
  AOpts.Exec = Opts.Exec;
  AOpts.Obs = Opts.Obs;
  AOpts.Cancel = Opts.Cancel;
  Est->PA = ProgramAnalysis::compute(P, Diags, AOpts);
  // The estimation pipeline needs every procedure (counter plans, the
  // interpreter and the interprocedural pass span the whole program), so
  // a partial analysis is a hard failure here — including a cut-short one:
  // without the FCDGs there are no static frequencies to degrade to, so
  // token expiry during analysis fails atomically under every
  // DeadlinePolicy (the cancellation diagnostic is already on Diags).
  if (!Est->PA || !Est->PA->allOk())
    return nullptr;
  {
    TimingSpan Span(Opts.Obs, "plan.counters");
    Est->Plan = ProgramPlan::build(*Est->PA, Opts.Mode);
  }
  Est->Runtime = std::make_unique<ProfileRuntime>(*Est->PA, Est->Plan, CM,
                                                  Opts.Obs);
  Est->Stats = std::make_unique<LoopFrequencyStats>(*Est->PA);
  return Est;
}

RunResult Estimator::profiledRun(uint64_t MaxSteps) {
  TimingSpan Span(Opts.Obs, "profiled-run");
  Interpreter Interp(*P, CM);
  Interp.addObserver(Runtime.get());
  Interp.addObserver(Stats.get());
  return Interp.run(MaxSteps);
}

TimeAnalysis Estimator::analyze() {
  TimeAnalysisOptions TAOpts;
  TAOpts.LoopVariance = Opts.LoopVariance;
  return analyze(TAOpts);
}

TimeAnalysis Estimator::analyze(TimeAnalysisOptions TAOpts) {
  if (TAOpts.LoopVariance == LoopVarianceMode::Profiled && !TAOpts.Stats)
    TAOpts.Stats = Stats.get();
  if (!TAOpts.Exec.Pool && TAOpts.Exec.Jobs == 1)
    TAOpts.Exec = Opts.Exec;
  if (!TAOpts.Diags)
    TAOpts.Diags = Opts.Diags;
  if (!TAOpts.Obs)
    TAOpts.Obs = Opts.Obs;
  if (!TAOpts.Cancel)
    TAOpts.Cancel = Opts.Cancel;

  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : P->functions()) {
    FrequencyTotals Totals = Runtime->recover(*F);
    if (!Totals.Ok)
      reportFatalError("counter recovery failed for function " + F->name());
    Freqs[F.get()] = computeFrequencies(PA->of(*F), Totals);
  }
  return TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
}
