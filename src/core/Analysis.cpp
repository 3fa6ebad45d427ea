//===--- core/Analysis.cpp - Per-function analysis pipeline ---------------===//

#include "core/Analysis.h"

#include "support/FatalError.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace ptran;

std::unique_ptr<FunctionAnalysis>
FunctionAnalysis::compute(const Function &F, DiagnosticEngine &Diags,
                          const AnalysisOptions &Opts) {
  ObsRegistry *Obs = Opts.Obs;
  auto FA = std::unique_ptr<FunctionAnalysis>(new FunctionAnalysis());
  FA->F = &F;
  {
    TimingSpan Span(Obs, "analysis.cfg", F.name());
    FA->C = buildCfg(F);
    elideGotoNodes(FA->C);
  }

  {
    TimingSpan Span(Obs, "analysis.intervals", F.name());
    std::optional<IntervalStructure> IS =
        IntervalStructure::compute(FA->C, Diags);
    if (!IS)
      return nullptr;
    FA->IS = std::move(*IS);
  }

  {
    TimingSpan Span(Obs, "analysis.ecfg", F.name());
    FA->E = buildEcfg(FA->C, FA->IS);
  }
  {
    TimingSpan Span(Obs, "analysis.fcdg", F.name());
    FA->CD = std::make_unique<ControlDependence>(FA->E, FA->IS);
  }
  return FA;
}

std::unique_ptr<ProgramAnalysis>
ProgramAnalysis::compute(const Program &P, DiagnosticEngine &Diags,
                         const AnalysisOptions &Opts) {
  TimingSpan Span(Opts.Obs, "analysis.program");
  auto PA = std::unique_ptr<ProgramAnalysis>(new ProgramAnalysis());
  PA->P = &P;

  const auto &Funcs = P.functions();
  std::vector<std::unique_ptr<FunctionAnalysis>> Results(Funcs.size());
  // One engine per task: workers never contend, and merging the locals in
  // program order below makes the diagnostic stream independent of Jobs.
  std::vector<DiagnosticEngine> Local(Funcs.size());
  // Set by the task itself when its in-body checkpoint trips; tasks whose
  // bodies never ran (skipped by the token-aware submit at dequeue time)
  // are recognized below by a null result with no error diagnostics.
  std::vector<char> SkipFlags(Funcs.size(), 0);
  CancelToken *Cancel = Opts.Cancel;

  PoolLease Pool(Opts.Exec, Funcs.size(), Opts.Obs);
  if (Pool->workerCount() == 0) {
    for (size_t I = 0; I < Funcs.size(); ++I) {
      if (Cancel && Cancel->checkpoint()) {
        SkipFlags[I] = 1;
        continue;
      }
      Results[I] = FunctionAnalysis::compute(*Funcs[I], Local[I], Opts);
    }
  } else {
    std::vector<std::future<void>> Futures;
    Futures.reserve(Funcs.size());
    for (size_t I = 0; I < Funcs.size(); ++I)
      Futures.push_back(Pool->submit(
          Cancel, [&Funcs, &Results, &Local, &SkipFlags, &Opts, Cancel, I] {
            if (Cancel && Cancel->checkpoint()) {
              SkipFlags[I] = 1;
              return;
            }
            Results[I] = FunctionAnalysis::compute(*Funcs[I], Local[I], Opts);
          }));
    waitAll(Futures);
  }

  bool Expired = Cancel && Cancel->expired();
  for (size_t I = 0; I < Funcs.size(); ++I) {
    bool HadErrors = Local[I].hasErrors();
    Diags.append(std::move(Local[I]));
    if (Results[I])
      PA->PerFunction.emplace(Funcs[I].get(), std::move(Results[I]));
    else if (SkipFlags[I] || (Expired && !HadErrors))
      PA->Skipped.push_back(Funcs[I].get());
    else
      PA->Failures.push_back(Funcs[I].get());
  }
  if (PA->cutShort())
    Diags.error(cancelMessage(*Cancel, "program analysis") + "; " +
                std::to_string(PA->Skipped.size()) + " of " +
                std::to_string(Funcs.size()) + " functions not analyzed");
  return PA;
}

const FunctionAnalysis &ProgramAnalysis::of(const Function &F) const {
  auto It = PerFunction.find(&F);
  if (It == PerFunction.end()) {
    if (failed(F))
      reportFatalError("analysis failed for function " + F.name());
    reportFatalError("no analysis for function " + F.name());
  }
  return *It->second;
}

const FunctionAnalysis *ProgramAnalysis::tryOf(const Function &F) const {
  auto It = PerFunction.find(&F);
  return It == PerFunction.end() ? nullptr : It->second.get();
}

bool ProgramAnalysis::failed(const Function &F) const {
  return std::find(Failures.begin(), Failures.end(), &F) != Failures.end();
}
