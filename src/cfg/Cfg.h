//===--- cfg/Cfg.h - Statement-level control flow graph ---------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control flow graph of Definition 1 in the paper: a labelled
/// multigraph over typed nodes. Nodes represent MiniIR statements (plus
/// the synthesized START/STOP/PREHEADER/POSTEXIT nodes of the extended
/// CFG); edges carry the labels T (true branch), F (false branch), U
/// (unconditional) and Z (pseudo edges that can never be taken).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_CFG_CFG_H
#define PTRAN_CFG_CFG_H

#include "graph/Digraph.h"
#include "ir/Function.h"

#include <string>
#include <vector>

namespace ptran {

/// Edge labels of the control flow graph (the set L of Definition 1).
/// Values >= FirstCaseLabel are the arms of computed GOTOs ("C1", "C2",
/// ...), demonstrating that the framework handles arbitrary label sets,
/// not just two-way branches.
enum class CfgLabel : LabelId {
  U = 0, ///< Unconditional branch.
  T = 1, ///< Conditional branch taken (also: DO loop continues).
  F = 2, ///< Conditional branch not taken (also: DO loop exits).
  Z = 3, ///< Pseudo edge; never taken at run time (Figure 2's Z1/Z2).
};

/// First label value used for computed-GOTO arms.
inline constexpr LabelId FirstCaseLabel = 4;

/// The label of the \p K-th (1-based) arm of a computed GOTO.
inline CfgLabel caseLabel(unsigned K) {
  return static_cast<CfgLabel>(FirstCaseLabel + K - 1);
}

/// True for computed-GOTO arm labels.
inline bool isCaseLabel(CfgLabel L) {
  return static_cast<LabelId>(L) >= FirstCaseLabel;
}

/// 1-based arm index of a case label.
inline unsigned caseIndex(CfgLabel L) {
  return static_cast<LabelId>(L) - FirstCaseLabel + 1;
}

/// \returns "U", "T", "F", "Z" or "C<k>" for case labels.
std::string cfgLabelName(CfgLabel L);

/// Node types of Definition 1 (the mapping T_c). The type only helps
/// identify the interval structure in the forward control dependence
/// graph; it does not change the graph's semantics.
enum class CfgNodeType {
  Start,
  Stop,
  Header,
  Preheader,
  Postexit,
  Other,
  /// Synthetic per-loop "iterate" node. Isolated in the (cyclic) ECFG;
  /// the forward control dependence construction re-targets the loop's
  /// back edges at it and connects it to the loop's postexits with pseudo
  /// edges, so that per-iteration control dependence stays acyclic while
  /// code following the loop postdominates the whole body.
  Iterate,
};

/// \returns "START", "STOP", "HEADER", "PREHEADER", "POSTEXIT", "OTHER" or
/// "ITERATE".
const char *cfgNodeTypeName(CfgNodeType Ty);

/// A statement-level control flow graph. Wraps a Digraph with per-node
/// type and statement-origin information.
class Cfg {
public:
  /// Creates an empty CFG over \p F's statements (\p F may be null for
  /// synthetic graphs used in tests).
  explicit Cfg(const Function *F = nullptr) : Func(F) {}

  /// Adds a node of the given type, optionally recording the statement it
  /// represents.
  NodeId createNode(CfgNodeType Ty, StmtId Origin = InvalidStmt);

  EdgeId addEdge(NodeId From, NodeId To, CfgLabel L) {
    return G.addEdge(From, To, static_cast<LabelId>(L));
  }
  void eraseEdge(EdgeId E) { G.eraseEdge(E); }

  const Digraph &graph() const { return G; }
  unsigned numNodes() const { return G.numNodes(); }

  CfgNodeType nodeType(NodeId N) const { return Types[N]; }

  /// The statement this node represents, or InvalidStmt for synthesized
  /// nodes (START, STOP, preheaders, postexits).
  StmtId origin(NodeId N) const { return Origins[N]; }

  /// The node representing statement \p S, or InvalidNode. Only meaningful
  /// for graphs produced by buildCfg.
  NodeId nodeForStmt(StmtId S) const;

  NodeId entry() const { return Entry; }
  void setEntry(NodeId N) { Entry = N; }

  /// A branch that leaves the procedure: taking label \p Label from
  /// \p Node transfers control out (RETURN, or falling off the end).
  struct ExitBranch {
    NodeId Node;
    CfgLabel Label;
  };
  const std::vector<ExitBranch> &exitBranches() const { return Exits; }
  void addExitBranch(NodeId N, CfgLabel L) { Exits.push_back({N, L}); }

  const Function *function() const { return Func; }

  /// Human-readable node description, e.g. "S3: IF (M .GE. 0) GOTO 20".
  std::string nodeName(NodeId N) const;

  /// Graphviz rendering (synthesized nodes shown with dashed borders,
  /// pseudo edges dashed).
  std::string dot(std::string_view Title) const;

private:
  Digraph G;
  std::vector<CfgNodeType> Types;
  std::vector<StmtId> Origins;
  std::vector<ExitBranch> Exits;
  NodeId Entry = InvalidNode;
  const Function *Func;
};

/// Builds the statement-level CFG of a finalized function: one node per
/// statement, edges per statement semantics. The entry is the node of
/// statement 0; exit branches record RETURNs and fall-off-the-end paths.
Cfg buildCfg(const Function &F);

/// Bypasses GOTO nodes: every in-edge of a GOTO node is redirected to the
/// GOTO's target with its original label, and the GOTO node is detached.
/// This recovers the compact statement CFGs the paper draws (Figure 1
/// folds `GOTO 10` into the CALL node's out-edge). Self-looping GOTOs are
/// kept. \returns the number of nodes elided.
unsigned elideGotoNodes(Cfg &C);

/// Partitions the nodes of \p C into maximal single-entry straight-line
/// sequences (basic blocks). Used by the naive profiling baseline, which
/// maintains one counter per basic block. Unreachable nodes are grouped
/// into blocks too (their counters simply stay zero).
std::vector<std::vector<NodeId>> computeBasicBlocks(const Cfg &C);

} // namespace ptran

#endif // PTRAN_CFG_CFG_H
