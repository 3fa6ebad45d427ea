//===--- graph/DepthFirst.h - DFS numbering and edge classes ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Depth-first traversal utilities: pre/post numbering, reverse postorder,
/// the depth-first spanning tree, DFS edge classification, reachability and
/// topological ordering. The interval analysis and the dominator solver are
/// both driven by reverse postorder.
///
/// All algorithms run over a GraphView (flat CSR adjacency, no per-node
/// allocation during traversal).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_GRAPH_DEPTHFIRST_H
#define PTRAN_GRAPH_DEPTHFIRST_H

#include "graph/GraphView.h"

#include <optional>
#include <vector>

namespace ptran {

/// DFS edge classification relative to the depth-first spanning tree.
enum class DfsEdgeKind {
  Tree,       ///< Edge to a first-visited node.
  Forward,    ///< Edge to a proper descendant (non-tree).
  Retreating, ///< Edge to an ancestor in the spanning tree.
  Cross,      ///< Edge to an unrelated, earlier-finished node.
  Unreached,  ///< Edge whose source is unreachable from the root.
};

/// Result of one depth-first traversal from a root node.
class DfsResult {
public:
  /// Runs an iterative DFS over \p G from \p Root. Successor edges are
  /// visited in insertion order, so the traversal is deterministic.
  DfsResult(const GraphView &G, NodeId Root);

  bool isReachable(NodeId N) const { return Pre[N] != InvalidOrder; }

  /// Preorder (discovery) index, or InvalidOrder if unreachable.
  unsigned preorder(NodeId N) const { return Pre[N]; }

  /// Postorder (finish) index, or InvalidOrder if unreachable.
  unsigned postorder(NodeId N) const { return Post[N]; }

  /// DFS spanning-tree parent, or InvalidNode for the root / unreachable.
  NodeId parent(NodeId N) const { return Parent[N]; }

  /// Reachable nodes in reverse postorder (root first).
  const std::vector<NodeId> &reversePostorder() const { return Rpo; }

  /// Classification of edge \p E (an EdgeId of the source graph).
  DfsEdgeKind edgeKind(EdgeId E) const { return EdgeKinds[E]; }

  /// True if \p Ancestor is an ancestor of (or equal to) \p N in the DFS
  /// spanning tree. Both must be reachable.
  bool isTreeAncestor(NodeId Ancestor, NodeId N) const;

  unsigned numReachable() const { return static_cast<unsigned>(Rpo.size()); }

  static constexpr unsigned InvalidOrder = static_cast<unsigned>(-1);

private:
  std::vector<unsigned> Pre;
  std::vector<unsigned> Post;
  std::vector<NodeId> Parent;
  std::vector<NodeId> Rpo;
  std::vector<DfsEdgeKind> EdgeKinds;
};

/// \returns the reachable nodes of \p G from \p Root in reverse postorder.
std::vector<NodeId> reversePostorder(const GraphView &G, NodeId Root);

/// \returns a topological order of all nodes if \p G is acyclic, or
/// std::nullopt if it contains a cycle. Isolated nodes are included.
std::optional<std::vector<NodeId>> topologicalOrder(const GraphView &G);

} // namespace ptran

#endif // PTRAN_GRAPH_DEPTHFIRST_H
