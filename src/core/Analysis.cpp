//===--- core/Analysis.cpp - Per-function analysis pipeline ---------------===//

#include "core/Analysis.h"

#include "graph/Scc.h"
#include "support/Casting.h"
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

  // No more workers than functions; 0 or 1 runs the tasks inline.
  ThreadPool Pool(static_cast<unsigned>(std::min<size_t>(
      ThreadPool::resolveJobs(Opts.Jobs), Funcs.size())));
  Pool.attachObservability(Opts.Obs);
  if (Pool.workerCount() == 0) {
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
      Futures.push_back(Pool.submit(
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
      continue;
    if (SkipFlags[I] || (Expired && !HadErrors))
      PA->Skipped.push_back(Funcs[I].get());
    else
      PA->Failures.push_back(Funcs[I].get());
  }
  PA->PerFunction = std::move(Results);
  if (PA->cutShort())
    Diags.error(cancelMessage(*Cancel, "program analysis") + "; " +
                std::to_string(PA->Skipped.size()) + " of " +
                std::to_string(Funcs.size()) + " functions not analyzed");
  PA->buildCallStructure();
  return PA;
}

void ProgramAnalysis::buildCallStructure() {
  CallStructure &CS = Calls;
  const auto &Funcs = P->functions();
  CS.NodeOfIndex.assign(Funcs.size(), CallStructure::NoNode);
  for (const auto &F : Funcs)
    if (tryOf(*F)) {
      CS.NodeOfIndex[F->index()] = static_cast<uint32_t>(CS.Funcs.size());
      CS.Funcs.push_back(F.get());
    }
  const unsigned N = CS.numNodes();

  // Call sites, one per call node of each ECFG (sorted by node id), and
  // the call graph with one edge per resolved call statement. Calls into
  // functions without an analysis stay unresolved.
  Digraph CallGraph(N);
  CS.SiteBegin.reserve(N + 1);
  CS.SiteBegin.push_back(0);
  for (uint32_t Caller = 0; Caller < N; ++Caller) {
    const Function &F = *CS.Funcs[Caller];
    const Cfg &C = of(F).ecfg().cfg();
    for (NodeId Node = 0; Node < C.numNodes(); ++Node) {
      StmtId S = C.origin(Node);
      if (S == InvalidStmt)
        continue;
      const auto *Call = dyn_cast<CallStmt>(F.stmt(S));
      if (!Call)
        continue;
      uint32_t Callee = CallStructure::NoNode;
      if (const Function *G = P->findFunction(Call->callee()))
        Callee = CS.nodeOf(*G);
      CS.Sites.push_back({Node, Callee});
    }
    CS.SiteBegin.push_back(static_cast<uint32_t>(CS.Sites.size()));
    // Edges in statement order: Tarjan's numbering, and with it the
    // member order each recursive component's fixpoint iterates in,
    // follows the edge order.
    for (StmtId S = 0; S < F.numStmts(); ++S)
      if (const auto *Call = dyn_cast<CallStmt>(F.stmt(S)))
        if (const Function *G = P->findFunction(Call->callee()))
          if (uint32_t Callee = CS.nodeOf(*G); Callee != CallStructure::NoNode)
            CallGraph.addEdge(Caller, Callee, 0);
  }

  // Tarjan over the CSR form; the graph itself is construction-only.
  CsrGraph Csr(CallGraph);
  const GraphView View = Csr.view();
  SccResult Sccs = computeSccs(View);
  std::vector<uint32_t> LastCaller(N, CallStructure::NoNode);
  CS.CalleeBegin.reserve(N + 1);
  CS.CalleeBegin.push_back(0);
  for (uint32_t Caller = 0; Caller < N; ++Caller) {
    for (const CsrEdgeRef &Ed : View.succs(Caller))
      if (LastCaller[Ed.Node] != Caller) {
        LastCaller[Ed.Node] = Caller;
        CS.CalleeNodes.push_back(Ed.Node);
      }
    CS.CalleeBegin.push_back(static_cast<uint32_t>(CS.CalleeNodes.size()));
  }
  CS.ComponentOf.assign(Sccs.Component.begin(), Sccs.Component.end());
  CS.MemberBegin.reserve(Sccs.numComponents() + 1);
  CS.MemberBegin.push_back(0);
  CS.Members.reserve(N);
  CS.Cyclic.reserve(Sccs.numComponents());
  for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
    const std::vector<NodeId> &Ms = Sccs.Members[Comp];
    CS.Members.insert(CS.Members.end(), Ms.begin(), Ms.end());
    CS.MemberBegin.push_back(static_cast<uint32_t>(CS.Members.size()));
    bool Cyclic = Sccs.isInCycle(View, Ms.front());
    CS.Cyclic.push_back(Cyclic);
    CS.Recursive = CS.Recursive || Cyclic;
  }
}

uint32_t CallStructure::calleeAt(uint32_t N, NodeId Call) const {
  std::span<const Site> S = sites(N);
  auto It = std::lower_bound(
      S.begin(), S.end(), Call,
      [](const Site &A, NodeId B) { return A.Node < B; });
  return It != S.end() && It->Node == Call ? It->Callee : NoNode;
}

const FunctionAnalysis &ProgramAnalysis::of(const Function &F) const {
  if (const FunctionAnalysis *FA = tryOf(F))
    return *FA;
  if (failed(F))
    reportFatalError("analysis failed for function " + F.name());
  reportFatalError("no analysis for function " + F.name());
}

bool ProgramAnalysis::failed(const Function &F) const {
  return std::find(Failures.begin(), Failures.end(), &F) != Failures.end();
}
