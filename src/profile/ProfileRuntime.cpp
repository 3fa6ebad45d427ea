//===--- profile/ProfileRuntime.cpp - Counter runtime ---------------------===//

#include "profile/ProfileRuntime.h"

#include "support/Casting.h"
#include "support/FatalError.h"
#include "support/FaultInjection.h"
#include "support/Saturation.h"

#include <cassert>

using namespace ptran;

//===----------------------------------------------------------------------===//
// ProfileRuntime
//===----------------------------------------------------------------------===//

ProfileRuntime::ProfileRuntime(const ProgramAnalysis &PA,
                               const ProgramPlan &Plan, const CostModel &CM,
                               ObsRegistry *Obs)
    : PA(PA), Plan(Plan), CM(CM), Obs(Obs),
      Counters(Plan.totalCounters(), 0.0) {
  for (const auto &[F, FA] : PA.all()) {
    const FunctionPlan &FP = Plan.of(*F);
    unsigned Base = Plan.offsetOf(*F);
    SiteTables T;
    T.OnStmt.resize(F->numStmts());
    T.OnEdge.resize(F->numStmts());
    T.OnDoEntry.resize(F->numStmts());
    for (unsigned CId = 0; CId < FP.numCounters(); ++CId) {
      unsigned Global = Base + CId;
      for (const CounterSite &Site : FP.counters()[CId].Sites) {
        switch (Site.K) {
        case CounterSite::Kind::Statement:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnStmt[Site.S].push_back(Global);
          break;
        case CounterSite::Kind::Edge:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnEdge[Site.S].push_back({Site.Label, Global});
          break;
        case CounterSite::Kind::ProcEntry:
          T.OnProcEntry.push_back(Global);
          break;
        case CounterSite::Kind::DoLoopEntryAdd:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnDoEntry[Site.S].push_back({Global, Site.Bias});
          break;
        }
      }
    }
    Tables.emplace(F, std::move(T));
  }
}

const ProfileRuntime::SiteTables &
ProfileRuntime::tablesFor(const Function &F) const {
  auto It = Tables.find(&F);
  if (It == Tables.end())
    reportFatalError("profiling a function without a plan: " + F.name());
  return It->second;
}

void ProfileRuntime::onProcedureEntry(const Function &F, unsigned) {
  for (unsigned C : tablesFor(F).OnProcEntry) {
    Counters[C] += 1.0;
    ++Increments;
  }
}

void ProfileRuntime::onStatement(const Function &F, StmtId S, unsigned) {
  for (unsigned C : tablesFor(F).OnStmt[S]) {
    Counters[C] += 1.0;
    ++Increments;
  }
}

void ProfileRuntime::onTransfer(const Function &F, StmtId From, CfgLabel L,
                                StmtId, unsigned) {
  for (const auto &[Label, C] : tablesFor(F).OnEdge[From]) {
    if (Label == L) {
      Counters[C] += 1.0;
      ++Increments;
    }
  }
}

void ProfileRuntime::onDoLoopEntry(const Function &F, StmtId DoHeader,
                                   int64_t HeaderExecutions, unsigned) {
  for (const auto &[C, Bias] : tablesFor(F).OnDoEntry[DoHeader]) {
    Counters[C] += static_cast<double>(HeaderExecutions + Bias);
    ++Adds;
  }
}

std::vector<double> ProfileRuntime::countersFor(const Function &F) const {
  unsigned Base = Plan.offsetOf(F);
  unsigned Count = Plan.of(F).numCounters();
  return std::vector<double>(Counters.begin() + Base,
                             Counters.begin() + Base + Count);
}

bool ProfileRuntime::addCounters(const Function &F,
                                 const std::vector<double> &Local) {
  unsigned Base = Plan.offsetOf(F);
  assert(Local.size() == Plan.of(F).numCounters() && "counter slice size");
  bool Saturated = false;
  for (size_t I = 0; I < Local.size(); ++I)
    Saturated |= saturatingAdd(Counters[Base + I], Local[I]);
  return Saturated;
}

double ProfileRuntime::overheadCycles() const {
  return static_cast<double>(Increments) * CM.CounterIncrementCost +
         static_cast<double>(Adds) * CM.CounterAddCost;
}

FrequencyTotals ProfileRuntime::recover(const Function &F,
                                        CancelToken *Cancel) const {
  std::vector<double> Local = countersFor(F);
  // Fault-injection seam (CounterCorrupt): corrupts only this local
  // slice, so the shared accumulator is untouched and the caller's
  // validation path is what gets exercised.
  FaultInjection::maybeCorruptCounters(Local);
  return recoverTotals(PA.of(F), Plan.of(F), Local,
                       /*Diags=*/nullptr, Obs, Cancel);
}

void ProfileRuntime::reset() {
  Counters.assign(Counters.size(), 0.0);
  Increments = 0;
  Adds = 0;
}

//===----------------------------------------------------------------------===//
// ExactProfile
//===----------------------------------------------------------------------===//

ExactProfile::Counts &ExactProfile::countsFor(const Function &F) {
  auto It = PerFunction.find(&F);
  if (It != PerFunction.end())
    return It->second;
  Counts C;
  C.Stmt.assign(F.numStmts(), 0.0);
  C.Transfer.resize(F.numStmts());
  return PerFunction.emplace(&F, std::move(C)).first->second;
}

const ExactProfile::Counts *
ExactProfile::findCounts(const Function &F) const {
  auto It = PerFunction.find(&F);
  return It == PerFunction.end() ? nullptr : &It->second;
}

void ExactProfile::onProcedureEntry(const Function &F, unsigned) {
  countsFor(F).Entries += 1.0;
}

void ExactProfile::onStatement(const Function &F, StmtId S, unsigned) {
  countsFor(F).Stmt[S] += 1.0;
}

void ExactProfile::onTransfer(const Function &F, StmtId From, CfgLabel L,
                              StmtId, unsigned) {
  countsFor(F).Transfer[From][static_cast<LabelId>(L)] += 1.0;
}

double ExactProfile::stmtCount(const Function &F, StmtId S) const {
  const Counts *C = findCounts(F);
  return C ? C->Stmt[S] : 0.0;
}

double ExactProfile::transferCount(const Function &F, StmtId S,
                                   CfgLabel L) const {
  const Counts *C = findCounts(F);
  if (!C)
    return 0.0;
  auto It = C->Transfer[S].find(static_cast<LabelId>(L));
  return It == C->Transfer[S].end() ? 0.0 : It->second;
}

double ExactProfile::entryCount(const Function &F) const {
  const Counts *C = findCounts(F);
  return C ? C->Entries : 0.0;
}

FrequencyTotals ExactProfile::totals(const Function &F) const {
  const FunctionAnalysis &FA = PA.of(F);
  const Ecfg &E = FA.ecfg();
  FrequencyTotals Out;
  for (const ControlCondition &Cond : FA.cd().conditions()) {
    double Total = 0.0;
    if (Cond.Label == CfgLabel::Z) {
      Total = 0.0;
    } else if (Cond.Node == E.start()) {
      Total = entryCount(F);
    } else if (NodeId H = E.headerOf(Cond.Node); H != InvalidNode) {
      Total = stmtCount(F, FA.cfg().origin(H));
    } else {
      Total = transferCount(F, FA.cfg().origin(Cond.Node), Cond.Label);
    }
    Out.Cond[Cond] = Total;
  }
  Out.Node = nodeTotalsFromConds(FA, Out.Cond);
  Out.Ok = true;
  return Out;
}

//===----------------------------------------------------------------------===//
// LoopFrequencyStats
//===----------------------------------------------------------------------===//

LoopFrequencyStats::LoopFrequencyStats(const ProgramAnalysis &PA) {
  for (const auto &[F, FA] : PA.all()) {
    std::vector<LoopShape> FnShapes;
    const IntervalStructure &IS = FA->intervals();
    const Cfg &C = FA->cfg();
    for (NodeId H : IS.headers()) {
      LoopShape Shape;
      Shape.HeaderStmt = C.origin(H);
      Shape.BodyStmts.assign(F->numStmts(), false);
      for (NodeId N : IS.loopBody(H)) {
        StmtId S = C.origin(N);
        if (S != InvalidStmt)
          Shape.BodyStmts[S] = true;
      }
      FnShapes.push_back(std::move(Shape));
    }
    Shapes.emplace(F, std::move(FnShapes));
  }
}

void LoopFrequencyStats::onProcedureEntry(const Function &F, unsigned Depth) {
  Frames.resize(Depth + 1);
  Frames[Depth].F = &F;
  Frames[Depth].Active.clear();
}

void LoopFrequencyStats::onProcedureExit(const Function &F, unsigned Depth) {
  if (Depth >= Frames.size())
    return;
  // Close any loops still open (closed normally via the exit transfer, but
  // a fault can interrupt execution mid-loop).
  closeLoopsOutside(Frames[Depth], F, InvalidStmt);
  Frames.resize(Depth);
}

void LoopFrequencyStats::onStatement(const Function &F, StmtId S,
                                     unsigned Depth) {
  FunctionState &State = Frames[Depth];
  auto It = Shapes.find(&F);
  if (It == Shapes.end())
    return;
  const std::vector<LoopShape> &FnShapes = It->second;

  // Header executions: bump active loops, activate on first execution.
  for (unsigned I = 0; I < FnShapes.size(); ++I) {
    if (FnShapes[I].HeaderStmt != S)
      continue;
    bool ActiveAlready = false;
    for (ActiveLoop &A : State.Active)
      if (A.LoopIdx == I) {
        A.HeaderExecs += 1;
        ActiveAlready = true;
      }
    if (!ActiveAlready)
      State.Active.push_back({I, 1.0});
  }
}

void LoopFrequencyStats::closeLoopsOutside(FunctionState &State,
                                           const Function &F, StmtId Target) {
  while (!State.Active.empty()) {
    ActiveLoop &A = State.Active.back();
    const LoopShape &Shape = Shapes[&F][A.LoopIdx];
    bool Inside = Target != InvalidStmt && Target < Shape.BodyStmts.size() &&
                  Shape.BodyStmts[Target];
    if (Inside)
      return;
    Moments &M = Stats[{&F, Shape.HeaderStmt}];
    M.Entries += 1;
    M.Sum += A.HeaderExecs;
    M.SumSq += A.HeaderExecs * A.HeaderExecs;
    State.Active.pop_back();
  }
}

void LoopFrequencyStats::onTransfer(const Function &F, StmtId, CfgLabel,
                                    StmtId To, unsigned Depth) {
  // A folded GOTO is in no loop body; its own transfer decides. A GOTO
  // that elision keeps (a self-loop or GOTO cycle) never terminates, so
  // skipping transfers into it loses no loop exit either.
  if (Depth >= Frames.size() ||
      (To != InvalidStmt && isa<GotoStmt>(F.stmt(To))))
    return;
  closeLoopsOutside(Frames[Depth], F, To);
}

const LoopFrequencyStats::Moments *
LoopFrequencyStats::momentsFor(const Function &F, StmtId HeaderStmt) const {
  auto It = Stats.find({&F, HeaderStmt});
  return It == Stats.end() ? nullptr : &It->second;
}

std::vector<std::pair<StmtId, LoopFrequencyStats::Moments>>
LoopFrequencyStats::momentsOf(const Function &F) const {
  std::vector<std::pair<StmtId, Moments>> Out;
  for (auto It = Stats.lower_bound({&F, 0});
       It != Stats.end() && It->first.first == &F; ++It)
    Out.emplace_back(It->first.second, It->second);
  return Out;
}

void LoopFrequencyStats::addMoments(const Function &F, StmtId HeaderStmt,
                                    const Moments &M) {
  Moments &Acc = Stats[{&F, HeaderStmt}];
  Acc.Entries += M.Entries;
  Acc.Sum += M.Sum;
  Acc.SumSq += M.SumSq;
}
