//===--- cdg/ControlDependence.cpp - (Forward) control dependence ---------===//

#include "cdg/ControlDependence.h"

#include "graph/DepthFirst.h"
#include "graph/Dominators.h"
#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>
#include <tuple>

using namespace ptran;

/// Any node left successor-free (a dangling latch) is connected to STOP so
/// the postdominator tree stays rooted.
Digraph ptran::buildForwardGraph(const Ecfg &E, const IntervalStructure &IS) {
  const Digraph &G = E.cfg().graph();
  Digraph Forward(G.numNodes());
  unsigned NumOrig = E.numOriginalNodes();

  // Where a node "logically sits" for back-edge classification: postexits
  // inherit the position of the node whose exit they split (an edge that
  // leaves an inner loop and re-enters an outer header is that outer
  // loop's latch, and in the ECFG its source is a postexit).
  auto Anchor = [&](NodeId N) -> NodeId {
    if (N < NumOrig)
      return N;
    if (const Ecfg::PostexitInfo *Info = E.postexitInfo(N))
      return Info->From;
    return InvalidNode;
  };

  for (EdgeId EId = 0; EId < G.numEdgeSlots(); ++EId) {
    if (!G.isLive(EId))
      continue;
    const Digraph::Edge &Ed = G.edge(EId);
    // Interval back edge: a latch inside the body targeting its header.
    // Re-target it at the loop's ITERATE node: the per-iteration view
    // ends there, and the iterate node's pseudo edges below stand for
    // "some later iteration exits the loop".
    NodeId From = Anchor(Ed.From);
    bool IsBack = Ed.To < NumOrig && From != InvalidNode &&
                  IS.isHeader(Ed.To) && IS.contains(Ed.To, From);
    if (IsBack) {
      NodeId It = E.iterateOf(Ed.To);
      assert(It != InvalidNode && "header without an iterate node");
      Forward.addEdge(Ed.From, It, Ed.Label);
      continue;
    }
    Forward.addEdge(Ed.From, Ed.To, Ed.Label);
  }

  // Pseudo edges from each loop's iterate node to every postexit through
  // which control can leave that loop (including exits of inner loops
  // that jump past this one). These carry zero frequency but make code
  // following the loop postdominate the entire body, so it hangs under
  // the enclosing context in the FCDG — exactly Figure 3's shape, where
  // the final CONTINUE is control dependent on START.
  for (NodeId H : IS.headers()) {
    NodeId It = E.iterateOf(H);
    bool Any = false;
    for (const Ecfg::PostexitInfo &Info : E.postexits()) {
      if (!IS.contains(H, Info.From))
        continue;
      bool LeavesH =
          Info.To == InvalidNode || !IS.contains(H, Info.To);
      if (!LeavesH)
        continue;
      Forward.addEdge(It, Info.Postexit,
                      static_cast<LabelId>(CfgLabel::Z));
      Any = true;
    }
    if (!Any) // A loop with no way out (the paper assumes termination).
      Forward.addEdge(It, E.stop(), static_cast<LabelId>(CfgLabel::Z));
  }

  // Safety net: any node left without successors (cannot happen for
  // well-formed ECFGs) keeps the postdominator tree rooted.
  for (NodeId N = 0; N < Forward.numNodes(); ++N)
    if (N != E.stop() && Forward.outDegree(N) == 0 && G.outDegree(N) > 0)
      Forward.addEdge(N, E.stop(), static_cast<LabelId>(CfgLabel::U));
  return Forward;
}

namespace {

/// The FCDG as a Digraph over ECFG node ids: Ferrante-Ottenstein-Warren
/// on the forward ECFG, keeping only the edges reachable from START. The
/// forward graph, its postdominator tree and the raw dependence graph die
/// here; the constructor freezes the result into the arena.
Digraph buildFcdg(const Ecfg &E, const IntervalStructure &IS) {
  Digraph ForwardG = buildForwardGraph(E, IS);
  DominatorTree Pdt(CsrGraph(ForwardG).view(), E.stop(),
                    DominatorTree::Direction::Post);
  // FOW over the forward graph: for every edge (A, B, l) where B does not
  // postdominate A, every node on the postdominator-tree path
  // [B .. ipostdom(A)) is control dependent on (A, l). Two same-labelled
  // edges from one node (only a preheader's pseudo Z edges) may generate
  // the same dependence; each (A, Y, l) triple is kept once.
  std::set<std::tuple<NodeId, NodeId, LabelId>> Emitted;
  Digraph Cdg(ForwardG.numNodes());
  for (EdgeId EId = 0; EId < ForwardG.numEdgeSlots(); ++EId) {
    const Digraph::Edge &Ed = ForwardG.edge(EId);
    if (!Pdt.isReachable(Ed.From) || !Pdt.isReachable(Ed.To))
      continue;
    if (Pdt.dominates(Ed.To, Ed.From))
      continue;
    NodeId Fence = Pdt.idom(Ed.From);
    for (NodeId Y = Ed.To; Y != Fence; Y = Pdt.idom(Y)) {
      assert(Y != InvalidNode &&
             "walked past the postdominator root; fence must be an ancestor");
      if (Emitted.insert({Ed.From, Y, Ed.Label}).second)
        Cdg.addEdge(Ed.From, Y, Ed.Label);
    }
  }

  // The forward graph is acyclic, and so is its control dependence; the
  // DFS filter below is a safety net only (it also drops dependence edges
  // not reachable from START, e.g. inside code that cannot reach STOP).
  Digraph Fcdg(E.cfg().graph().numNodes());
  DfsResult Dfs(CsrGraph(Cdg).view(), E.start());
  for (EdgeId EId = 0; EId < Cdg.numEdgeSlots(); ++EId) {
    const Digraph::Edge &Ed = Cdg.edge(EId);
    DfsEdgeKind Kind = Dfs.edgeKind(EId);
    if (Kind == DfsEdgeKind::Retreating || Kind == DfsEdgeKind::Unreached)
      continue;
    Fcdg.addEdge(Ed.From, Ed.To, Ed.Label);
  }
  return Fcdg;
}

} // namespace

ControlDependence::ControlDependence(const Ecfg &E,
                                     const IntervalStructure &IS) {
  const Digraph Fcdg = buildFcdg(E, IS);
  CsrGraph FcdgCsr(Fcdg);
  std::optional<std::vector<NodeId>> Order =
      topologicalOrder(FcdgCsr.view());
  if (!Order)
    reportFatalError("forward control dependence graph is cyclic");

  // Keep only nodes reachable from START in the FCDG, in topological
  // order; isolated nodes (e.g. STOP) carry no estimation state.
  DfsResult FDfs(FcdgCsr.view(), E.start());
  Arena.PosOf.assign(Fcdg.numNodes(), FlowArena::InvalidPosition);
  for (NodeId N : *Order)
    if (FDfs.isReachable(N))
      Arena.Nodes.push_back(N);
  for (unsigned P = 0; P < Arena.Nodes.size(); ++P)
    Arena.PosOf[Arena.Nodes[P]] = P;

  // Enumerate control conditions; their sorted order defines the ids.
  std::set<ControlCondition> Seen;
  for (EdgeId EId = 0; EId < Fcdg.numEdgeSlots(); ++EId) {
    const Digraph::Edge &Ed = Fcdg.edge(EId);
    Seen.insert({Ed.From, static_cast<CfgLabel>(Ed.Label)});
  }
  Conds.assign(Seen.begin(), Seen.end());

  // Freeze the FCDG's out-edges into the arena. Per node: label groups in
  // first-appearance order with children in insertion order (the
  // labelsOf/childrenOf contract), plus the raw insertion-order edge list
  // (the equation-3 accumulation order). Children are stored as topo
  // positions so the sweeps index dense position-based buffers directly.
  unsigned NumPos = Arena.numPositions();
  Arena.GroupBegin.assign(NumPos + 1, 0);
  Arena.RawBegin.assign(NumPos + 1, 0);
  std::vector<uint32_t> GroupOfEdge(Fcdg.numEdgeSlots());
  struct LocalGroup {
    CfgLabel Label;
    uint32_t Count;
    uint32_t Global;
  };
  std::vector<LocalGroup> Local;
  std::vector<uint32_t> Fill;
  for (unsigned P = 0; P < NumPos; ++P) {
    NodeId U = Arena.Nodes[P];
    Local.clear();
    for (EdgeId EId : Fcdg.outEdges(U)) {
      CfgLabel L = static_cast<CfgLabel>(Fcdg.edge(EId).Label);
      auto It = std::find_if(Local.begin(), Local.end(),
                             [&](const LocalGroup &G) {
                               return G.Label == L;
                             });
      if (It == Local.end())
        Local.push_back({L, 1, 0});
      else
        ++It->Count;
    }
    uint32_t ChildCursor = static_cast<uint32_t>(Arena.Children.size());
    Fill.clear();
    for (LocalGroup &G : Local) {
      G.Global = static_cast<uint32_t>(Arena.Groups.size());
      Arena.Groups.push_back(
          {G.Label, conditionId({U, G.Label}), ChildCursor,
           ChildCursor + G.Count});
      Fill.push_back(ChildCursor);
      ChildCursor += G.Count;
    }
    Arena.Children.resize(ChildCursor);
    for (EdgeId EId : Fcdg.outEdges(U)) {
      const Digraph::Edge &Ed = Fcdg.edge(EId);
      CfgLabel L = static_cast<CfgLabel>(Ed.Label);
      auto It = std::find_if(Local.begin(), Local.end(),
                             [&](const LocalGroup &G) {
                               return G.Label == L;
                             });
      assert(It != Local.end());
      unsigned LocalIdx = static_cast<unsigned>(It - Local.begin());
      unsigned ChildPos = Arena.PosOf[Ed.To];
      assert(ChildPos != FlowArena::InvalidPosition &&
             "FCDG edge target must be START-reachable");
      Arena.Children[Fill[LocalIdx]++] = ChildPos;
      Arena.Raw.push_back({Ed.To, It->Global});
      GroupOfEdge[EId] = It->Global;
    }
    Arena.GroupBegin[P + 1] = static_cast<uint32_t>(Arena.Groups.size());
    Arena.RawBegin[P + 1] = static_cast<uint32_t>(Arena.Raw.size());
  }

  // In-edges per position, in the Digraph's per-target insertion order.
  Arena.InBegin.assign(NumPos + 1, 0);
  Arena.In.reserve(Arena.Raw.size());
  for (unsigned P = 0; P < NumPos; ++P) {
    for (EdgeId EId : Fcdg.inEdges(Arena.Nodes[P]))
      Arena.In.push_back(GroupOfEdge[EId]);
    Arena.InBegin[P + 1] = static_cast<uint32_t>(Arena.In.size());
  }
}

unsigned ControlDependence::conditionId(const ControlCondition &C) const {
  auto It = std::lower_bound(Conds.begin(), Conds.end(), C);
  return It == Conds.end() || !(*It == C)
             ? InvalidCondition
             : static_cast<unsigned>(It - Conds.begin());
}

std::vector<NodeId> ControlDependence::childrenOf(NodeId U,
                                                  CfgLabel L) const {
  std::vector<NodeId> Kids;
  unsigned P = Arena.position(U);
  if (P == FlowArena::InvalidPosition)
    return Kids;
  for (uint32_t G = Arena.groupsBegin(P); G != Arena.groupsEnd(P); ++G) {
    const FlowArena::Group &Grp = Arena.group(G);
    if (Grp.Label != L)
      continue;
    for (uint32_t C = Grp.ChildBegin; C != Grp.ChildEnd; ++C)
      Kids.push_back(Arena.node(Arena.child(C)));
  }
  return Kids;
}

std::string ControlDependence::dot(const Cfg &Ecfg,
                                   std::string_view Title) const {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (NodeId N : Arena.Nodes) {
    OS << "  n" << N << " [label=\"" << Ecfg.nodeName(N) << "\"";
    CfgNodeType Ty = Ecfg.nodeType(N);
    if (Ty != CfgNodeType::Other && Ty != CfgNodeType::Header)
      OS << ", style=dashed";
    OS << "];\n";
  }
  for (unsigned P = 0; P < Arena.numPositions(); ++P) {
    for (uint32_t R = Arena.rawBegin(P); R != Arena.rawEnd(P); ++R) {
      const FlowArena::RawEdge &Ed = Arena.raw(R);
      CfgLabel L = Arena.group(Ed.Group).Label;
      OS << "  n" << Arena.node(P) << " -> n" << Ed.To << " [label=\""
         << cfgLabelName(L) << "\"";
      if (L == CfgLabel::Z)
        OS << ", style=dashed";
      OS << "];\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

std::vector<CfgLabel> ControlDependence::labelsOf(NodeId U) const {
  std::vector<CfgLabel> Labels;
  unsigned P = Arena.position(U);
  if (P == FlowArena::InvalidPosition)
    return Labels;
  for (uint32_t G = Arena.groupsBegin(P); G != Arena.groupsEnd(P); ++G)
    Labels.push_back(Arena.group(G).Label);
  return Labels;
}
