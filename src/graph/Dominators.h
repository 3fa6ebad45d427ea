//===--- graph/Dominators.h - (Post)dominator trees ------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and postdominator trees via the Cooper-Harvey-Kennedy
/// iterative algorithm over reverse postorder. The control dependence
/// computation (Section 2 of the paper, following Ferrante-Ottenstein-
/// Warren) is driven by the postdominator tree of the extended CFG, and the
/// reducibility test uses the forward dominator tree.
///
/// The solver runs over a GraphView; Direction::Post simply swaps the
/// view's successor and predecessor arrays (GraphView::reversed()), so no
/// reversed graph is ever materialized.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_GRAPH_DOMINATORS_H
#define PTRAN_GRAPH_DOMINATORS_H

#include "graph/GraphView.h"

#include <vector>

namespace ptran {

/// A dominator tree over the nodes of a graph reachable from a root.
/// For postdominators, construct with Direction::Post and the exit node;
/// the tree is then computed on the reversed view.
class DominatorTree {
public:
  enum class Direction { Forward, Post };

  /// Builds the (post)dominator tree of \p G rooted at \p Root. Nodes not
  /// reachable (in the chosen direction) have no idom and dominate nothing.
  DominatorTree(const GraphView &G, NodeId Root,
                Direction Dir = Direction::Forward);

  NodeId root() const { return Root; }

  bool isReachable(NodeId N) const { return Level[N] != InvalidLevel; }

  /// Immediate dominator of \p N; InvalidNode for the root or unreachable
  /// nodes.
  NodeId idom(NodeId N) const { return Idom[N]; }

  /// True if \p A dominates \p B (reflexively). Both must be reachable.
  bool dominates(NodeId A, NodeId B) const;

  /// Nearest common dominator of \p A and \p B in the tree.
  NodeId findNearestCommonDominator(NodeId A, NodeId B) const;

  /// Depth of \p N below the root (root has level 0).
  unsigned level(NodeId N) const { return Level[N]; }

  /// Children of \p N in the dominator tree.
  const std::vector<NodeId> &children(NodeId N) const { return Kids[N]; }

  static constexpr unsigned InvalidLevel = static_cast<unsigned>(-1);

private:
  NodeId Root;
  std::vector<NodeId> Idom;
  std::vector<unsigned> Level;
  std::vector<std::vector<NodeId>> Kids;
  // Euler-style in/out numbering of the dominator tree for O(1) dominance
  // queries.
  std::vector<unsigned> TreeIn;
  std::vector<unsigned> TreeOut;
};

/// Tests whether \p G is reducible when entered at \p Root: every
/// retreating edge of a DFS must target a node that dominates its source
/// ("Compilers: Principles, Techniques, and Tools", the definition the
/// paper assumes). Unreachable nodes are ignored.
bool isReducible(const GraphView &G, NodeId Root);

} // namespace ptran

#endif // PTRAN_GRAPH_DOMINATORS_H
