//===--- graph/Scc.cpp - Strongly connected components --------------------===//

#include "graph/Scc.h"

#include <algorithm>

using namespace ptran;

bool SccResult::isInCycle(const GraphView &G, NodeId N) const {
  const std::vector<NodeId> &Comp = Members[Component[N]];
  if (Comp.size() > 1)
    return true;
  // Single-node component: cyclic only with a self-loop.
  for (const CsrEdgeRef &E : G.succs(N))
    if (E.Node == N)
      return true;
  return false;
}

SccResult ptran::computeSccs(const GraphView &G) {
  unsigned N = G.numNodes();
  SccResult Result;
  Result.Component.assign(N, 0);

  constexpr unsigned Unvisited = static_cast<unsigned>(-1);
  std::vector<unsigned> Index(N, Unvisited);
  std::vector<unsigned> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<NodeId> Stack;
  unsigned NextIndex = 0;

  // Iterative Tarjan with explicit frames over borrowed CSR ranges.
  struct Frame {
    NodeId Node;
    const CsrEdgeRef *Next;
    const CsrEdgeRef *End;
  };
  std::vector<Frame> Frames;

  auto PushFrame = [&](NodeId Node) {
    GraphView::Range Out = G.succs(Node);
    Frames.push_back({Node, Out.begin(), Out.end()});
  };

  for (NodeId Start = 0; Start < N; ++Start) {
    if (Index[Start] != Unvisited)
      continue;
    Index[Start] = LowLink[Start] = NextIndex++;
    Stack.push_back(Start);
    OnStack[Start] = true;
    PushFrame(Start);

    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.Next != F.End) {
        NodeId Succ = (F.Next++)->Node;
        if (Index[Succ] == Unvisited) {
          Index[Succ] = LowLink[Succ] = NextIndex++;
          Stack.push_back(Succ);
          OnStack[Succ] = true;
          PushFrame(Succ);
        } else if (OnStack[Succ]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], Index[Succ]);
        }
        continue;
      }
      // Finished this node: pop an SCC if it is a root.
      NodeId Done = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        LowLink[Frames.back().Node] =
            std::min(LowLink[Frames.back().Node], LowLink[Done]);
      if (LowLink[Done] == Index[Done]) {
        std::vector<NodeId> Comp;
        NodeId Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Comp.push_back(Member);
        } while (Member != Done);
        unsigned CompId = static_cast<unsigned>(Result.Members.size());
        for (NodeId M : Comp)
          Result.Component[M] = CompId;
        Result.Members.push_back(std::move(Comp));
      }
    }
  }
  return Result;
}
