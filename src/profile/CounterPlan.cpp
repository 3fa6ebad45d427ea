//===--- profile/CounterPlan.cpp - Counter placement plans ----------------===//

#include "profile/CounterPlan.h"

#include "graph/DepthFirst.h"
#include "support/Casting.h"
#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

using namespace ptran;

const char *ptran::profileModeName(ProfileMode M) {
  switch (M) {
  case ProfileMode::Naive:
    return "naive";
  case ProfileMode::Opt1:
    return "opt1";
  case ProfileMode::Opt12:
    return "opt1+2";
  case ProfileMode::Smart:
    return "smart";
  }
  PTRAN_UNREACHABLE("unknown ProfileMode");
}

const char *ptran::resolutionKindName(Resolution::Kind K) {
  switch (K) {
  case Resolution::Kind::None:
    return "none";
  case Resolution::Kind::Measured:
    return "measured";
  case Resolution::Kind::Zero:
    return "zero";
  case Resolution::Kind::SumComplement:
    return "sum-complement";
  case Resolution::Kind::ExitComplement:
    return "exit-complement";
  case Resolution::Kind::LatchSum:
    return "latch-sum";
  case Resolution::Kind::DoConstTrip:
    return "do-const-trip";
  case Resolution::Kind::DoDerived:
    return "do-derived";
  }
  PTRAN_UNREACHABLE("unknown Resolution::Kind");
}

namespace {

RecoveryTerm condTerm(unsigned C, double Coeff) {
  RecoveryTerm T;
  T.K = RecoveryTerm::Kind::CondTotal;
  T.Cond = C;
  T.Coeff = Coeff;
  return T;
}

RecoveryTerm nodeTerm(NodeId N, double Coeff) {
  RecoveryTerm T;
  T.K = RecoveryTerm::Kind::NodeTotal;
  T.Node = N;
  T.Coeff = Coeff;
  return T;
}

RecoveryTerm counterTerm(unsigned Counter, double Coeff) {
  RecoveryTerm T;
  T.K = RecoveryTerm::Kind::CounterVal;
  T.Counter = Counter;
  T.Coeff = Coeff;
  return T;
}

/// Distinct non-pseudo labels on the ECFG out-edges of \p U — the "branch
/// labels out of u in CFG" of the paper's second optimization (exit
/// branches were materialized as edges in the ECFG, so this covers them).
std::vector<CfgLabel> realOutLabels(const Ecfg &E, NodeId U) {
  std::vector<CfgLabel> Labels;
  for (EdgeId Out : E.cfg().graph().outEdges(U)) {
    CfgLabel L = static_cast<CfgLabel>(E.cfg().graph().edge(Out).Label);
    if (L == CfgLabel::Z)
      continue;
    if (std::find(Labels.begin(), Labels.end(), L) == Labels.end())
      Labels.push_back(L);
  }
  return Labels;
}

/// True if node \p To is reachable from \p From in the FCDG.
bool fcdgReaches(const FlowArena &A, NodeId From, NodeId To) {
  if (From == To)
    return true;
  unsigned FromPos = A.position(From);
  if (FromPos == FlowArena::InvalidPosition)
    return false; // Outside the FCDG: no out-edges.
  std::vector<bool> Seen(A.numPositions(), false);
  std::vector<unsigned> Worklist = {FromPos};
  Seen[FromPos] = true;
  while (!Worklist.empty()) {
    unsigned P = Worklist.back();
    Worklist.pop_back();
    for (uint32_t R = A.rawBegin(P); R != A.rawEnd(P); ++R) {
      NodeId S = A.raw(R).To;
      if (S == To)
        return true;
      unsigned SP = A.position(S);
      if (!Seen[SP]) {
        Seen[SP] = true;
        Worklist.push_back(SP);
      }
    }
  }
  return false;
}

/// One way execution can leave a loop, as used by observation 1.
struct LoopExit {
  NodeId Source = InvalidNode;
  CfgLabel Label = CfgLabel::U;
  /// True when (Source, Label) is an FCDG condition.
  bool IsCondition = false;
};

/// Collects the loop's exits and classifies them. \returns false if some
/// exit's traversal count cannot be expressed (observation 1 is then
/// skipped for this loop).
bool collectLoopExits(const FunctionAnalysis &FA, NodeId Header,
                      const std::set<ControlCondition> &Conds,
                      std::vector<LoopExit> &Out) {
  const IntervalStructure &IS = FA.intervals();
  const Digraph &G = FA.cfg().graph();

  std::set<std::pair<NodeId, CfgLabel>> Seen;
  auto Add = [&](NodeId Src, CfgLabel L) -> bool {
    if (!Seen.insert({Src, L}).second)
      return true; // Already recorded.
    LoopExit X;
    X.Source = Src;
    X.Label = L;
    X.IsCondition = Conds.count({Src, L}) != 0;
    if (!X.IsCondition) {
      // Expressible only for a node whose sole branch label is this one
      // (its traversals then equal the node's executions).
      if (realOutLabels(FA.ecfg(), Src).size() != 1)
        return false;
    }
    Out.push_back(X);
    return true;
  };

  for (EdgeId E : IS.exitEdges(Header)) {
    const Digraph::Edge &Ed = G.edge(E);
    if (!Add(Ed.From, static_cast<CfgLabel>(Ed.Label)))
      return false;
  }
  for (const Cfg::ExitBranch &B : IS.exitBranches(Header))
    if (!Add(B.Node, B.Label))
      return false;
  return true;
}

} // namespace

void FunctionPlan::buildNaive(FunctionPlan &Plan, const FunctionAnalysis &FA) {
  const Cfg &C = FA.cfg();
  const Function &F = FA.function();
  Plan.Blocks = computeBasicBlocks(C);

  // Identify exit-free DO loops whose body (header excluded) is a single
  // straight-line block: those get the entry-add treatment, which is the
  // only DO optimization the naive scheme performs (Table 1's footnote).
  std::map<NodeId, NodeId> BlockOfLeader; // leader node -> block index
  std::map<NodeId, unsigned> BlockIndexOfNode;
  for (unsigned B = 0; B < Plan.Blocks.size(); ++B)
    for (NodeId N : Plan.Blocks[B])
      BlockIndexOfNode[N] = B;

  std::set<unsigned> EntryAddBlocks; // block index -> use DO entry add
  std::map<unsigned, StmtId> EntryAddHeader;
  for (NodeId H : FA.intervals().headers()) {
    if (!FA.intervals().isExitFreeDoLoop(C, H))
      continue;
    const std::vector<NodeId> &Body = FA.intervals().loopBody(H);
    if (Body.size() < 2)
      continue;
    // The body minus the header must be exactly one block.
    NodeId FirstBody = InvalidNode;
    for (NodeId N : Body)
      if (N != H && (FirstBody == InvalidNode || N < FirstBody))
        FirstBody = N;
    auto It = BlockIndexOfNode.find(FirstBody);
    if (It == BlockIndexOfNode.end())
      continue;
    const std::vector<NodeId> &Blk = Plan.Blocks[It->second];
    if (Blk.size() != Body.size() - 1)
      continue;
    bool Match = true;
    for (NodeId N : Blk)
      if (N == H || !FA.intervals().contains(H, N))
        Match = false;
    if (!Match)
      continue;
    EntryAddBlocks.insert(It->second);
    EntryAddHeader[It->second] = C.origin(H);
  }

  for (unsigned B = 0; B < Plan.Blocks.size(); ++B) {
    NodeId Leader = Plan.Blocks[B][0];
    StmtId LeaderStmt = C.origin(Leader);
    PlannedCounter PC;
    PC.Name = "block(" + std::to_string(B) + ")";
    if (EntryAddBlocks.count(B)) {
      // Body executes (header-executions - 1) times per entry.
      PC.Sites.push_back({CounterSite::Kind::DoLoopEntryAdd,
                          EntryAddHeader[B], CfgLabel::U, -1});
    } else if (LeaderStmt != InvalidStmt) {
      PC.Sites.push_back(
          {CounterSite::Kind::Statement, LeaderStmt, CfgLabel::U, 0});
    }
    Plan.addCounter(std::move(PC));
  }
  (void)F;
  (void)BlockOfLeader;
}

void FunctionPlan::buildOptimized(FunctionPlan &Plan,
                                  const FunctionAnalysis &FA,
                                  ProfileMode Mode) {
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = FA.cfg();
  const IntervalStructure &IS = FA.intervals();
  const Function &F = FA.function();

  std::set<ControlCondition> Conds(CD.conditions().begin(),
                                   CD.conditions().end());
  Plan.Resolutions.assign(Conds.size(), Resolution());
  // Every condition given a rule below is an FCDG condition.
  auto Rule = [&](ControlCondition Cond) -> Resolution & {
    unsigned Id = CD.conditionId(Cond);
    assert(Id != ControlDependence::InvalidCondition);
    return Plan.Resolutions[Id];
  };
  auto Resolved = [&](ControlCondition Cond) {
    return Rule(Cond).K != Resolution::Kind::None;
  };

  bool UseDerivations = Mode != ProfileMode::Opt1;
  bool UseDoOpt = Mode == ProfileMode::Smart;

  // Latch counters with a single site can double as the measurement of
  // that latch's own branch condition.
  std::map<std::pair<StmtId, CfgLabel>, unsigned> SingleSiteCounters;

  // Pseudo edges can never be taken (footnote to Figure 2).
  for (const ControlCondition &Cond : CD.conditions())
    if (Cond.Label == CfgLabel::Z)
      Rule(Cond) = {Resolution::Kind::Zero, 0, {}};

  // The procedure's own invocation count.
  ControlCondition StartCond{E.start(), CfgLabel::U};
  if (Conds.count(StartCond)) {
    PlannedCounter PC;
    PC.Name = "entry(" + F.name() + ")";
    PC.Sites.push_back(
        {CounterSite::Kind::ProcEntry, InvalidStmt, CfgLabel::U, 0});
    unsigned Id = Plan.addCounter(std::move(PC));
    Rule(StartCond) = {Resolution::Kind::Measured, Id, {}};
  }

  // Loop frequencies, per header.
  for (NodeId H : IS.headers()) {
    NodeId Ph = E.preheaderOf(H);
    ControlCondition LoopCond{Ph, CfgLabel::U};
    if (!Conds.count(LoopCond))
      continue;

    if (UseDoOpt && IS.isExitFreeDoLoop(C, H)) {
      const auto *Do = cast<DoStmt>(F.stmt(C.origin(H)));
      int64_t Trip = 0;
      if (Do->constantTripCount(Trip)) {
        // Optimization 3, constant case: no counter at all. The header
        // executes Trip+1 times per entry.
        Resolution R;
        R.K = Resolution::Kind::DoConstTrip;
        R.Terms.push_back(nodeTerm(Ph, static_cast<double>(Trip + 1)));
        Rule(LoopCond) = std::move(R);
      } else {
        // Optimization 3: add the header-execution count once per entry.
        PlannedCounter PC;
        PC.Name = "dotrip(" + C.nodeName(H) + ")";
        PC.Sites.push_back(
            {CounterSite::Kind::DoLoopEntryAdd, C.origin(H), CfgLabel::U, 0});
        unsigned Id = Plan.addCounter(std::move(PC));
        Rule(LoopCond) = {Resolution::Kind::Measured, Id, {}};
      }
      // The DO header's own branch totals follow from the loop frequency:
      // F is taken once per entry, T makes up the rest.
      ControlCondition TCond{H, CfgLabel::T}, FCond{H, CfgLabel::F};
      if (Conds.count(TCond)) {
        Resolution R;
        R.K = Resolution::Kind::DoDerived;
        R.Terms.push_back(condTerm(CD.conditionId(LoopCond), 1.0));
        R.Terms.push_back(nodeTerm(Ph, -1.0));
        Rule(TCond) = std::move(R);
      }
      if (Conds.count(FCond)) {
        Resolution R;
        R.K = Resolution::Kind::DoDerived;
        R.Terms.push_back(nodeTerm(Ph, 1.0));
        Rule(FCond) = std::move(R);
      }
      continue;
    }

    if (UseDerivations) {
      // Observation 2: header executions = entries + latch traversals.
      // One counter shared by all latch edges.
      PlannedCounter PC;
      PC.Name = "latch(" + C.nodeName(H) + ")";
      for (EdgeId L : IS.backEdges(H)) {
        const Digraph::Edge &Ed = C.graph().edge(L);
        PC.Sites.push_back({CounterSite::Kind::Edge, C.origin(Ed.From),
                            static_cast<CfgLabel>(Ed.Label), 0});
      }
      if (PC.Sites.size() == 1)
        SingleSiteCounters[{PC.Sites[0].S, PC.Sites[0].Label}] =
            Plan.numCounters();
      unsigned Id = Plan.addCounter(std::move(PC));
      Resolution R;
      R.K = Resolution::Kind::LatchSum;
      R.Terms.push_back(nodeTerm(Ph, 1.0));
      R.Terms.push_back(counterTerm(Id, 1.0));
      Rule(LoopCond) = std::move(R);
    } else {
      // Optimization 1 only: count header executions directly.
      PlannedCounter PC;
      PC.Name = "header(" + C.nodeName(H) + ")";
      PC.Sites.push_back(
          {CounterSite::Kind::Statement, C.origin(H), CfgLabel::U, 0});
      unsigned Id = Plan.addCounter(std::move(PC));
      Rule(LoopCond) = {Resolution::Kind::Measured, Id, {}};
    }
  }

  // Observation 1: per loop, one exit's total equals entries minus the
  // other exits. Applied where the dependency structure stays acyclic.
  if (UseDerivations) {
    for (NodeId H : IS.headers()) {
      NodeId Ph = E.preheaderOf(H);
      std::vector<LoopExit> Exits;
      if (!collectLoopExits(FA, H, Conds, Exits))
        continue;

      for (const LoopExit &Candidate : Exits) {
        if (!Candidate.IsCondition)
          continue;
        ControlCondition DropCond{Candidate.Source, Candidate.Label};
        if (Resolved(DropCond))
          continue;
        // Safety: no other exit's traversal count may depend on the
        // dropped condition, i.e. no other exit source is an FCDG
        // descendant of the candidate's source.
        bool Safe = true;
        for (const LoopExit &Other : Exits) {
          if (Other.Source == Candidate.Source &&
              Other.Label == Candidate.Label)
            continue;
          if (fcdgReaches(CD.arena(), Candidate.Source, Other.Source)) {
            Safe = false;
            break;
          }
        }
        if (!Safe)
          continue;

        Resolution R;
        R.K = Resolution::Kind::ExitComplement;
        R.Terms.push_back(nodeTerm(Ph, 1.0)); // entries
        for (const LoopExit &Other : Exits) {
          if (Other.Source == Candidate.Source &&
              Other.Label == Candidate.Label)
            continue;
          if (Other.IsCondition) {
            R.Terms.push_back(condTerm(
                CD.conditionId({Other.Source, Other.Label}), -1.0));
          } else {
            R.Terms.push_back(nodeTerm(Other.Source, -1.0));
          }
        }
        Rule(DropCond) = std::move(R);
        break; // One derivation per loop.
      }
    }
  }

  // Branch conditions node by node: optimization 2 leaves one label per
  // node derived as the complement of its siblings.
  std::map<NodeId, std::vector<CfgLabel>> ByNode;
  for (const ControlCondition &Cond : CD.conditions())
    if (Cond.Label != CfgLabel::Z && Cond.Node != E.start() &&
        E.headerOf(Cond.Node) == InvalidNode)
      ByNode[Cond.Node].push_back(Cond.Label);

  for (auto &[U, Labels] : ByNode) {
    std::vector<CfgLabel> AllLabels = realOutLabels(E, U);

    // Which of this node's conditions still need a resolution?
    std::vector<CfgLabel> Pending;
    for (CfgLabel L : Labels)
      if (!Resolved({U, L}))
        Pending.push_back(L);
    if (Pending.empty())
      continue;

    // Optimization 2 applies when every branch label of U appears as a
    // condition (or is otherwise already resolvable): the last pending
    // label becomes the complement of all the others.
    bool AllPresent = true;
    for (CfgLabel L : AllLabels)
      if (std::find(Labels.begin(), Labels.end(), L) == Labels.end())
        AllPresent = false;

    CfgLabel DropLabel = Pending.back();
    bool UseComplement = UseDerivations && AllPresent && AllLabels.size() > 1;

    for (CfgLabel L : Pending) {
      ControlCondition Cond{U, L};
      if (UseComplement && L == DropLabel) {
        Resolution R;
        R.K = Resolution::Kind::SumComplement;
        R.Terms.push_back(nodeTerm(U, 1.0));
        for (CfgLabel Other : AllLabels)
          if (Other != L)
            R.Terms.push_back(condTerm(CD.conditionId({U, Other}), -1.0));
        Rule(Cond) = std::move(R);
        continue;
      }
      // Reuse a single-site latch counter when it already measures this
      // exact branch event.
      auto Existing = SingleSiteCounters.find({C.origin(U), L});
      if (Existing != SingleSiteCounters.end()) {
        Rule(Cond) = {Resolution::Kind::Measured, Existing->second, {}};
        continue;
      }
      PlannedCounter PC;
      PC.Name = "cond(" + C.nodeName(U) + "," + cfgLabelName(L) + ")";
      PC.Sites.push_back(
          {CounterSite::Kind::Edge, C.origin(U), L, 0});
      unsigned Id = Plan.addCounter(std::move(PC));
      Rule(Cond) = {Resolution::Kind::Measured, Id, {}};
    }
  }
}

FunctionPlan FunctionPlan::build(const FunctionAnalysis &FA,
                                 ProfileMode Mode) {
  FunctionPlan Plan;
  Plan.Mode = Mode;
  if (Mode == ProfileMode::Naive) {
    buildNaive(Plan, FA);
    return Plan;
  }
  buildOptimized(Plan, FA, Mode);

  // Safety net: the derivation rules above are chosen to be acyclic, but
  // adversarial control flow could still produce an unresolvable system.
  // Fall back to direct measurement for any stuck condition, the least
  // unresolved id first, and compile again.
  const std::vector<ControlCondition> &Conds = FA.cd().conditions();
  for (size_t Attempt = 0;; ++Attempt) {
    std::vector<unsigned> Unresolved = Plan.compileSchedule(FA);
    if (Plan.Recoverable || Attempt == Conds.size())
      break;
    if (Unresolved.empty())
      break; // Stuck on node totals only; nothing measurable remains.
    const Cfg &C = FA.cfg();
    const Ecfg &E = FA.ecfg();
    ControlCondition Cond = Conds[Unresolved.front()];
    PlannedCounter PC;
    PC.Name = "repair(" + E.cfg().nodeName(Cond.Node) + "," +
              cfgLabelName(Cond.Label) + ")";
    if (Cond.Node == E.start()) {
      PC.Sites.push_back(
          {CounterSite::Kind::ProcEntry, InvalidStmt, CfgLabel::U, 0});
    } else if (NodeId H = E.headerOf(Cond.Node); H != InvalidNode) {
      PC.Sites.push_back(
          {CounterSite::Kind::Statement, C.origin(H), CfgLabel::U, 0});
    } else {
      PC.Sites.push_back(
          {CounterSite::Kind::Edge, C.origin(Cond.Node), Cond.Label, 0});
    }
    unsigned Id = Plan.addCounter(std::move(PC));
    Plan.Resolutions[Unresolved.front()] = {Resolution::Kind::Measured, Id,
                                            {}};
  }
  return Plan;
}

std::vector<unsigned>
FunctionPlan::compileSchedule(const FunctionAnalysis &FA) {
  const ControlDependence &CD = FA.cd();
  const FlowArena &A = CD.arena();
  const unsigned NumConds = static_cast<unsigned>(CD.conditions().size());
  const unsigned NumPos = A.numPositions();
  const NodeId Start = FA.ecfg().start();
  const unsigned StartCond = CD.conditionId({Start, CfgLabel::U});

  // Entities: condition id C is C, arena position P is NumConds + P. A
  // dependency that can never be met (no rule, a node outside the FCDG)
  // counts as one input that never arrives.
  constexpr uint32_t Never = static_cast<uint32_t>(-1);
  auto ForEachInput = [&](uint32_t Entity, auto &&Visit) {
    if (Entity >= NumConds) {
      unsigned P = Entity - NumConds;
      if (A.node(P) == Start) {
        Visit(StartCond == ControlDependence::InvalidCondition ? Never
                                                               : StartCond);
        return;
      }
      if (A.inBegin(P) == A.inEnd(P))
        Visit(Never);
      for (uint32_t I = A.inBegin(P); I != A.inEnd(P); ++I)
        Visit(A.group(A.inGroup(I)).Cond);
      return;
    }
    const Resolution &R = Resolutions[Entity];
    switch (R.K) {
    case Resolution::Kind::None:
      Visit(Never);
      return;
    case Resolution::Kind::Measured:
    case Resolution::Kind::Zero:
      return;
    default:
      break;
    }
    for (const RecoveryTerm &T : R.Terms) {
      if (T.K == RecoveryTerm::Kind::CondTotal) {
        Visit(T.Cond < NumConds ? T.Cond : Never);
      } else if (T.K == RecoveryTerm::Kind::NodeTotal) {
        unsigned P = A.position(T.Node);
        Visit(P == FlowArena::InvalidPosition ? Never : NumConds + P);
      }
    }
  };

  // Pending input counts, and each entity's dependents as a CSR.
  const uint32_t NumEntities = NumConds + NumPos;
  std::vector<uint32_t> Pending(NumEntities, 0);
  std::vector<uint32_t> DepBegin(NumEntities + 1, 0);
  for (uint32_t E = 0; E < NumEntities; ++E)
    ForEachInput(E, [&](uint32_t In) {
      ++Pending[E];
      if (In != Never)
        ++DepBegin[In + 1];
    });
  for (uint32_t E = 0; E < NumEntities; ++E)
    DepBegin[E + 1] += DepBegin[E];
  std::vector<uint32_t> Dependents(DepBegin[NumEntities]);
  std::vector<uint32_t> Fill(DepBegin.begin(), DepBegin.end() - 1);
  for (uint32_t E = 0; E < NumEntities; ++E)
    ForEachInput(E, [&](uint32_t In) {
      if (In != Never)
        Dependents[Fill[In]++] = E;
    });

  // Kahn's algorithm: the schedule lists each entity once all its inputs
  // are listed. The values recovery computes do not depend on which such
  // order it is, only on each step's own summation order.
  Schedule.clear();
  std::vector<bool> Done(NumEntities, false);
  std::vector<uint32_t> Ready;
  for (uint32_t E = 0; E < NumEntities; ++E)
    if (Pending[E] == 0)
      Ready.push_back(E);
  for (size_t Next = 0; Next < Ready.size(); ++Next) {
    uint32_t E = Ready[Next];
    Done[E] = true;
    Schedule.push_back(E < NumConds ? RecoveryStep{false, E}
                                    : RecoveryStep{true, E - NumConds});
    for (uint32_t D = DepBegin[E]; D != DepBegin[E + 1]; ++D)
      if (--Pending[Dependents[D]] == 0)
        Ready.push_back(Dependents[D]);
  }
  Schedule.shrink_to_fit();
  Recoverable = Schedule.size() == NumEntities;

  std::vector<unsigned> Unresolved;
  for (uint32_t C = 0; C < NumConds; ++C)
    if (!Done[C])
      Unresolved.push_back(C);
  return Unresolved;
}

std::string FunctionPlan::str(const FunctionAnalysis &FA) const {
  std::ostringstream OS;
  OS << "plan(" << profileModeName(Mode) << ") for " << FA.function().name()
     << ": " << Counters.size() << " counters\n";
  for (unsigned I = 0; I < Counters.size(); ++I) {
    OS << "  c" << I << " = " << Counters[I].Name << " [";
    for (size_t S = 0; S < Counters[I].Sites.size(); ++S) {
      if (S != 0)
        OS << ", ";
      const CounterSite &Site = Counters[I].Sites[S];
      switch (Site.K) {
      case CounterSite::Kind::Statement:
        OS << "stmt " << Site.S;
        break;
      case CounterSite::Kind::Edge:
        OS << "edge (" << Site.S << "," << cfgLabelName(Site.Label) << ")";
        break;
      case CounterSite::Kind::ProcEntry:
        OS << "proc-entry";
        break;
      case CounterSite::Kind::DoLoopEntryAdd:
        OS << "do-entry-add stmt " << Site.S << " bias " << Site.Bias;
        break;
      }
    }
    OS << "]\n";
  }
  for (size_t Id = 0; Id < Resolutions.size(); ++Id) {
    const Resolution &R = Resolutions[Id];
    if (R.K == Resolution::Kind::None)
      continue;
    const ControlCondition &Cond = FA.cd().conditions()[Id];
    OS << "  (" << FA.ecfg().cfg().nodeName(Cond.Node) << ", "
       << cfgLabelName(Cond.Label) << ") <- " << resolutionKindName(R.K);
    if (R.K == Resolution::Kind::Measured)
      OS << " c" << R.Counter;
    OS << "\n";
  }
  return OS.str();
}

ProgramPlan ProgramPlan::build(const ProgramAnalysis &PA, ProfileMode Mode) {
  ProgramPlan Plan;
  Plan.Mode = Mode;
  for (const Function *F : PA.analyzed()) {
    FunctionPlan FP = FunctionPlan::build(PA.of(*F), Mode);
    Plan.Offsets[F] = Plan.Total;
    Plan.Total += FP.numCounters();
    Plan.Plans.emplace(F, std::move(FP));
  }
  return Plan;
}

const FunctionPlan &ProgramPlan::of(const Function &F) const {
  auto It = Plans.find(&F);
  if (It == Plans.end())
    reportFatalError("no counter plan for function " + F.name());
  return It->second;
}

unsigned ProgramPlan::offsetOf(const Function &F) const {
  auto It = Offsets.find(&F);
  if (It == Offsets.end())
    reportFatalError("no counter plan for function " + F.name());
  return It->second;
}
