//===--- core/Analysis.h - Per-function analysis pipeline ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience drivers chaining the paper's program representations:
/// statement CFG (GOTOs folded into edges, as the paper draws it) ->
/// interval structure -> extended CFG -> (forward)
/// control dependence graph, per function and per program, plus the
/// program's call structure (call graph, its strongly connected
/// components and every call site's callee), compiled once here because
/// it belongs to the program, not to any profile. Everything downstream
/// (profiling plans, frequency recovery, time and variance estimation)
/// consumes these bundles.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_CORE_ANALYSIS_H
#define PTRAN_CORE_ANALYSIS_H

#include "cdg/ControlDependence.h"
#include "cfg/Cfg.h"
#include "ecfg/Ecfg.h"
#include "interval/Intervals.h"
#include "obs/Observability.h"
#include "support/Cancellation.h"

#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace ptran {

/// Options controlling the per-function pipeline.
struct AnalysisOptions {
  /// Worker threads for ProgramAnalysis::compute: 1 = serial, 0 =
  /// hardware concurrency. Functions are analyzed independently, so the
  /// fan-out is embarrassingly parallel; each task reports into its own
  /// DiagnosticEngine and the locals are merged back in program order, so
  /// results and diagnostics are bit-for-bit identical under every job
  /// count. The pool lives only for the one compute() call.
  unsigned Jobs = 1;
  /// Tracing/metrics sink: when set, every pass of the pipeline (CFG,
  /// intervals, ECFG, FCDG) records a per-function timing span and the
  /// pool reports task counters. Disabled (the default) costs one branch
  /// per pass.
  ObsRegistry *Obs = nullptr;
  /// Cooperative cancellation: the fan-out polls the token once per
  /// function, so an expired token stops scheduling new work and the
  /// remaining functions land in skipped() with a structured
  /// Timeout/Cancelled diagnostic. Null (the default) = unbounded.
  CancelToken *Cancel = nullptr;
};

/// All derived representations of one function.
class FunctionAnalysis {
public:
  /// Runs the pipeline on \p F. Fails (null) on irreducible control flow
  /// or other structural errors, reported to \p Diags.
  static std::unique_ptr<FunctionAnalysis>
  compute(const Function &F, DiagnosticEngine &Diags,
          const AnalysisOptions &Opts = AnalysisOptions());

  const Function &function() const { return *F; }
  const Cfg &cfg() const { return C; }
  const IntervalStructure &intervals() const { return IS; }
  const Ecfg &ecfg() const { return E; }
  const ControlDependence &cd() const { return *CD; }

private:
  FunctionAnalysis() = default;

  const Function *F = nullptr;
  Cfg C;
  IntervalStructure IS;
  Ecfg E;
  std::unique_ptr<ControlDependence> CD;
};

/// The call structure of a program's analyzed functions, compiled once by
/// ProgramAnalysis::compute. Its nodes are the analyzed functions in
/// Function::index() order; the interprocedural TIME/VAR sweep (Section 4,
/// rule 2) reads its components callees-first and resolves every call
/// site through it, so no analysis run rebuilds the call graph. Functions
/// whose analysis failed (or was skipped) are not nodes: calls into them,
/// like calls to undefined procedures, have no callee node.
class CallStructure {
public:
  /// "No node": an unanalyzed function, or a call site without a callee.
  static constexpr uint32_t NoNode = static_cast<uint32_t>(-1);

  /// One call node of a function's ECFG and the node of its callee
  /// (NoNode when the callee is undefined or failed analysis).
  struct Site {
    NodeId Node = InvalidNode;
    uint32_t Callee = NoNode;
  };

  unsigned numNodes() const { return static_cast<unsigned>(Funcs.size()); }
  /// The function at node \p N.
  const Function &function(uint32_t N) const { return *Funcs[N]; }
  /// The node of \p F, or NoNode when \p F was not analyzed (or belongs
  /// to no program).
  uint32_t nodeOf(const Function &F) const {
    unsigned I = F.index();
    if (I >= NodeOfIndex.size())
      return NoNode;
    uint32_t N = NodeOfIndex[I];
    return N != NoNode && Funcs[N] == &F ? N : NoNode;
  }

  /// The distinct callee nodes of node \p N, in first-call order.
  std::span<const uint32_t> callees(uint32_t N) const {
    return {CalleeNodes.data() + CalleeBegin[N],
            CalleeNodes.data() + CalleeBegin[N + 1]};
  }

  /// The call graph's strongly connected components, numbered
  /// callees-first (Tarjan order): visiting 0, 1, 2, ... evaluates every
  /// component after all the components it calls.
  unsigned numComponents() const {
    return static_cast<unsigned>(Cyclic.size());
  }
  std::span<const uint32_t> members(unsigned C) const {
    return {Members.data() + MemberBegin[C],
            Members.data() + MemberBegin[C + 1]};
  }
  unsigned componentOf(uint32_t N) const { return ComponentOf[N]; }
  /// True when component \p C is a recursive cycle (several members, or
  /// one that calls itself).
  bool cyclic(unsigned C) const { return Cyclic[C] != 0; }
  /// True when some component is cyclic.
  bool hasRecursion() const { return Recursive; }

  /// The call nodes of node \p N's ECFG, sorted by ECFG node id.
  std::span<const Site> sites(uint32_t N) const {
    return {Sites.data() + SiteBegin[N], Sites.data() + SiteBegin[N + 1]};
  }
  /// The callee node of ECFG call node \p Call in node \p N's function
  /// (NoNode when unresolved or not a call node).
  uint32_t calleeAt(uint32_t N, NodeId Call) const;

private:
  friend class ProgramAnalysis;
  std::vector<const Function *> Funcs;
  /// Function::index() -> node (NoNode for unanalyzed functions).
  std::vector<uint32_t> NodeOfIndex;
  std::vector<uint32_t> CalleeBegin; ///< numNodes + 1 offsets.
  std::vector<uint32_t> CalleeNodes;
  std::vector<uint32_t> MemberBegin; ///< numComponents + 1 offsets.
  std::vector<uint32_t> Members;
  std::vector<uint32_t> ComponentOf;
  std::vector<uint8_t> Cyclic;
  std::vector<uint32_t> SiteBegin; ///< numNodes + 1 offsets.
  std::vector<Site> Sites;
  bool Recursive = false;
};

/// FunctionAnalysis for every procedure of a program.
class ProgramAnalysis {
public:
  /// Analyzes all procedures (across Opts.Jobs workers). Always
  /// returns a bundle: functions whose analysis fails (e.g. irreducible
  /// control flow) are recorded in failures() with their diagnostics in
  /// \p Diags, while every other function stays usable — callers decide
  /// whether partial coverage is acceptable via allOk().
  static std::unique_ptr<ProgramAnalysis>
  compute(const Program &P, DiagnosticEngine &Diags,
          const AnalysisOptions &Opts = AnalysisOptions());

  const Program &program() const { return *P; }
  /// Analysis of \p F. Fatal-errors if \p F failed analysis or was never
  /// part of the program (with distinct messages for the two cases); use
  /// tryOf() to probe.
  const FunctionAnalysis &of(const Function &F) const;
  /// Analysis of \p F, or null if \p F failed analysis or is unknown.
  /// A dense lookup by Function::index().
  const FunctionAnalysis *tryOf(const Function &F) const {
    unsigned I = F.index();
    return I < PerFunction.size() && PerFunction[I] &&
                   &PerFunction[I]->function() == &F
               ? PerFunction[I].get()
               : nullptr;
  }

  /// True if every function of the program was analyzed successfully.
  bool allOk() const { return Failures.empty() && Skipped.empty(); }
  /// True if \p F was seen but its analysis failed.
  bool failed(const Function &F) const;
  /// The functions whose analysis failed, in program order.
  const std::vector<const Function *> &failures() const { return Failures; }

  /// The functions never analyzed because Opts.Cancel expired mid-run, in
  /// program order. Distinct from failures(): these functions have nothing
  /// wrong with them and analyze fine given a fresh token. Non-empty only
  /// when cutShort().
  const std::vector<const Function *> &skipped() const { return Skipped; }
  /// True when the run was cut short by an expired CancelToken.
  bool cutShort() const { return !Skipped.empty(); }

  /// The analyzed functions in program order (the call structure's
  /// nodes).
  std::span<const Function *const> analyzed() const {
    return {Calls.Funcs.data(), Calls.Funcs.size()};
  }

  /// The call structure over analyzed(), compiled once by compute().
  const CallStructure &calls() const { return Calls; }

private:
  void buildCallStructure();

  const Program *P = nullptr;
  /// Indexed by Function::index(); null for failed and skipped functions.
  std::vector<std::unique_ptr<FunctionAnalysis>> PerFunction;
  CallStructure Calls;
  std::vector<const Function *> Failures;
  std::vector<const Function *> Skipped;
};

} // namespace ptran

#endif // PTRAN_CORE_ANALYSIS_H
