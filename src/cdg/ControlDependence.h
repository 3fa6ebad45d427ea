//===--- cdg/ControlDependence.h - (Forward) control dependence -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control dependence per Ferrante-Ottenstein-Warren (Definition 2 in the
/// paper) and the *forward* control dependence graph (FCDG) the estimation
/// framework runs on.
///
/// The FCDG is the control dependence of the **forward ECFG**: the
/// extended CFG with every interval back edge removed (dangling latches
/// are routed to STOP so postdominators stay defined). This is the
/// acyclic form of [Hsi88, CHH89] that the paper's "ignoring all back
/// edges" refers to, and it is the construction under which the paper's
/// recurrences are exact: computing control dependence on the cyclic
/// ECFG and merely deleting the CDG's cyclic edges leaves loop-carried
/// dependences (e.g. a latch branch "deciding" the next iteration's body)
/// in the graph, and equation 3 of Section 3 then double-counts node
/// frequencies — observable on Livermore kernel 2's stride-halving loop.
/// Thanks to the ECFG's preheaders and pseudo edges, every interval hangs
/// below its preheader and the graph is rooted at START (Figure 3).
///
/// Besides the Digraph form, the construction freezes the FCDG into a
/// FlowArena: a per-function arena of CSR arrays indexed by *topological
/// position* rather than node id, so the Section 3 frequency recurrences
/// (top-down) and the Section 4/5 TIME/VAR recurrences (bottom-up) become
/// linear sweeps over contiguous memory with no per-node allocation. See
/// DESIGN.md §11 for the layout contract.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_CDG_CONTROLDEPENDENCE_H
#define PTRAN_CDG_CONTROLDEPENDENCE_H

#include "ecfg/Ecfg.h"
#include "graph/Dominators.h"
#include "interval/Intervals.h"

#include <optional>
#include <vector>

namespace ptran {

/// A control condition: "node U takes the branch labelled L". These are
/// the entities Section 3 profiles and Sections 4-5 weight by.
struct ControlCondition {
  NodeId Node = InvalidNode;
  CfgLabel Label = CfgLabel::U;

  bool operator==(const ControlCondition &O) const = default;
  bool operator<(const ControlCondition &O) const {
    return Node != O.Node ? Node < O.Node : Label < O.Label;
  }
};

/// The FCDG flattened into topologically-indexed CSR arrays. Positions
/// 0 .. numPositions()-1 enumerate the FCDG's START-reachable nodes in
/// topological order (parents before children), so a forward sweep is the
/// Section 3 top-down pass and a reverse sweep is the Section 4/5
/// bottom-up pass — both linear over contiguous arrays.
///
/// Two views of each node's out-edges are kept, because the two passes
/// need different — and exactly reproduced — iteration orders:
///
///   - raw edges in edge-insertion order (rawBegin/rawEnd), preserving
///     the equation-3 accumulation order of the old Digraph walk;
///   - label groups (groupsBegin/groupsEnd) in label-first-appearance
///     order, each group's children in insertion order — the L(u) and
///     C(u, l) sets of Section 5 in exactly the order labelsOf()/
///     childrenOf() used to produce them.
///
/// Group indices are global across the arena and double as dense
/// condition ids: Frequencies::GroupFreq is indexed by them.
class FlowArena {
public:
  /// One (node, label) out-edge group: the condition (node(P), Label) and
  /// its children as positions [ChildBegin, ChildEnd) in children order.
  struct Group {
    CfgLabel Label = CfgLabel::U;
    uint32_t ChildBegin = 0;
    uint32_t ChildEnd = 0;
  };
  /// One FCDG edge in insertion order: the target *node id* (NODE_FREQ is
  /// node-indexed) and the global index of the group it belongs to.
  struct RawEdge {
    NodeId To = InvalidNode;
    uint32_t Group = 0;
  };

  static constexpr unsigned InvalidPosition = static_cast<unsigned>(-1);

  unsigned numPositions() const {
    return static_cast<unsigned>(Nodes.size());
  }
  /// ECFG node at topological position \p P.
  NodeId node(unsigned P) const { return Nodes[P]; }

  unsigned numGroups() const { return static_cast<unsigned>(Groups.size()); }
  uint32_t groupsBegin(unsigned P) const { return GroupBegin[P]; }
  uint32_t groupsEnd(unsigned P) const { return GroupBegin[P + 1]; }
  const Group &group(uint32_t G) const { return Groups[G]; }
  /// Child topological position \p C (index into the group's
  /// [ChildBegin, ChildEnd) range).
  unsigned child(uint32_t C) const { return Children[C]; }

  uint32_t rawBegin(unsigned P) const { return RawBegin[P]; }
  uint32_t rawEnd(unsigned P) const { return RawBegin[P + 1]; }
  const RawEdge &raw(uint32_t R) const { return Raw[R]; }

private:
  friend class ControlDependence;
  std::vector<NodeId> Nodes;       ///< Position -> node (the topo order).
  std::vector<unsigned> PosOf;     ///< Node -> position (InvalidPosition).
  std::vector<uint32_t> GroupBegin;///< numPositions + 1 offsets.
  std::vector<Group> Groups;
  std::vector<uint32_t> Children;  ///< Child topological positions.
  std::vector<uint32_t> RawBegin;  ///< numPositions + 1 offsets.
  std::vector<RawEdge> Raw;
};

/// The forward control dependence graph and its supporting structures.
class ControlDependence {
public:
  /// Computes the FCDG for \p E. \p IS must be the interval structure of
  /// the CFG \p E was built from (it identifies the back edges). Nodes
  /// that cannot reach STOP even in the forward graph acquire no control
  /// dependences; the paper assumes the program completes execution.
  ControlDependence(const Ecfg &E, const IntervalStructure &IS);

  /// The acyclic "forward ECFG" the dependence was computed on: the ECFG
  /// minus interval back edges, with dangling latches connected to STOP.
  const Digraph &forwardGraph() const { return ForwardG; }

  /// Forward control dependence graph over the ECFG's node ids.
  /// Guaranteed acyclic.
  const Digraph &fcdg() const { return FcdgGraph; }

  /// The FCDG frozen into topologically-indexed CSR arrays — what the
  /// frequency and TIME/VAR sweeps actually run on.
  const FlowArena &arena() const { return Arena; }

  /// Topological order of the FCDG (parents before children), covering
  /// every node reachable from START in the FCDG.
  const std::vector<NodeId> &topoOrder() const { return Arena.Nodes; }

  /// All control conditions (U, L) that appear as FCDG edge labels,
  /// sorted. Only branch points appear: real conditionals, preheaders
  /// (loop frequency on U, pseudo on Z) and START.
  const std::vector<ControlCondition> &conditions() const { return Conds; }

  /// FCDG children of \p U reached via label \p L — the set C(u, l) of
  /// Section 5. Allocates; the hot paths read the arena instead.
  std::vector<NodeId> childrenOf(NodeId U, CfgLabel L) const;

  /// Distinct labels on FCDG out-edges of \p U — the set L(u) of
  /// Section 5. Allocates; the hot paths read the arena instead.
  std::vector<CfgLabel> labelsOf(NodeId U) const;

  /// Graphviz rendering of the FCDG; node names come from \p Ecfg (the
  /// ECFG the dependence was computed for).
  std::string dot(const Cfg &Ecfg, std::string_view Title) const;

private:
  Digraph ForwardG;
  Digraph FcdgGraph;
  DominatorTree Pdt;
  FlowArena Arena;
  std::vector<ControlCondition> Conds;
};

} // namespace ptran

#endif // PTRAN_CDG_CONTROLDEPENDENCE_H
