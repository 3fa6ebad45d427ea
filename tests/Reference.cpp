//===--- tests/Reference.cpp - Brute-force reference algorithms -----------===//

#include "Reference.h"

#include "support/Casting.h"
#include "support/FatalError.h"

#include <cmath>
#include <utility>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// Nodes reachable from \p From, optionally pretending \p Removed is
/// absent.
std::vector<bool> reachableFrom(const Digraph &G, NodeId From,
                                NodeId Removed = InvalidNode) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (From == Removed)
    return Seen;
  std::vector<NodeId> Worklist = {From};
  Seen[From] = true;
  while (!Worklist.empty()) {
    NodeId N = Worklist.back();
    Worklist.pop_back();
    for (NodeId S : G.successors(N)) {
      if (S == Removed || Seen[S])
        continue;
      Seen[S] = true;
      Worklist.push_back(S);
    }
  }
  return Seen;
}

/// Solves A x = B by Gaussian elimination with partial pivoting.
std::vector<double> solveDense(std::vector<std::vector<double>> A,
                               std::vector<double> B) {
  size_t N = B.size();
  for (size_t Col = 0; Col < N; ++Col) {
    size_t Pivot = Col;
    for (size_t Row = Col + 1; Row < N; ++Row)
      if (std::fabs(A[Row][Col]) > std::fabs(A[Pivot][Col]))
        Pivot = Row;
    if (A[Pivot][Col] == 0.0)
      reportFatalError("markov oracle: singular system (a non-absorbing "
                       "statement set)");
    std::swap(A[Col], A[Pivot]);
    std::swap(B[Col], B[Pivot]);
    for (size_t Row = Col + 1; Row < N; ++Row) {
      double Factor = A[Row][Col] / A[Col][Col];
      if (Factor == 0.0)
        continue;
      for (size_t K = Col; K < N; ++K)
        A[Row][K] -= Factor * A[Col][K];
      B[Row] -= Factor * B[Col];
    }
  }
  std::vector<double> X(N, 0.0);
  for (size_t Row = N; Row-- > 0;) {
    double Sum = B[Row];
    for (size_t K = Row + 1; K < N; ++K)
      Sum -= A[Row][K] * X[K];
    X[Row] = Sum / A[Row][Row];
  }
  return X;
}

/// Moments of one procedure's chain, given its callees' moments.
ChainMoments
solveChain(const Function &F, const ChainObserver::Counts &C,
           const CostModel &CM, const StmtCostOverride &Override,
           const std::map<const Function *, ChainMoments> &Solved,
           const Program &P) {
  // Transient states: the executed statements, densely renumbered.
  std::map<StmtId, size_t> Index;
  std::vector<StmtId> States;
  for (const auto &Executed : C.Executions) {
    Index[Executed.first] = States.size();
    States.push_back(Executed.first);
  }
  size_t N = States.size();

  std::vector<double> Cost(N), CostSq(N);
  for (size_t I = 0; I < N; ++I) {
    const Stmt *St = F.stmt(States[I]);
    std::optional<double> Local;
    if (Override)
      Local = Override(F, St);
    double Mean = Local ? *Local : CM.statementCost(St);
    double SecondMoment = Mean * Mean;
    if (const auto *Call = dyn_cast<CallStmt>(St)) {
      const Function *Callee = P.findFunction(Call->callee());
      auto It = Callee ? Solved.find(Callee) : Solved.end();
      if (It != Solved.end()) {
        // An independent draw of the callee's time added to the local
        // cost: E[(c + T)^2] = c^2 + 2 c E[T] + E[T^2].
        double CalleeSq = It->second.Var + It->second.Time * It->second.Time;
        SecondMoment += 2.0 * Mean * It->second.Time + CalleeSq;
        Mean += It->second.Time;
      }
    }
    Cost[I] = Mean;
    CostSq[I] = SecondMoment;
  }

  // I - Q, with Q(s, t) = transfers(s -> t) / executions(s).
  std::vector<std::vector<double>> M(N, std::vector<double>(N, 0.0));
  for (size_t I = 0; I < N; ++I)
    M[I][I] = 1.0;
  for (const auto &[Edge, Count] : C.Transfers) {
    if (Edge.second == InvalidStmt)
      continue; // Absorption: control leaves the procedure.
    size_t From = Index.at(Edge.first);
    size_t To = Index.at(Edge.second);
    M[From][To] -= static_cast<double>(Count) /
                   static_cast<double>(C.Executions.at(Edge.first));
  }

  std::vector<double> T = solveDense(M, Cost);
  std::vector<double> Rhs(N);
  for (size_t I = 0; I < N; ++I)
    Rhs[I] = CostSq[I] + 2.0 * Cost[I] * (T[I] - Cost[I]);
  std::vector<double> S = solveDense(M, Rhs);

  double Time = 0.0, Second = 0.0;
  for (const auto &[First, Count] : C.Firsts) {
    double Init =
        static_cast<double>(Count) / static_cast<double>(C.Activations);
    Time += Init * T[Index.at(First)];
    Second += Init * S[Index.at(First)];
  }
  return {Time, Second - Time * Time};
}

} // namespace

void ChainObserver::onProcedureEntry(const Function &F, unsigned Depth) {
  ++PerFunction[&F].Activations;
  if (Fresh.size() <= Depth)
    Fresh.resize(Depth + 1);
  Fresh[Depth] = true;
}

void ChainObserver::onStatement(const Function &F, StmtId S, unsigned Depth) {
  Counts &C = PerFunction[&F];
  ++C.Executions[S];
  if (Depth < Fresh.size() && Fresh[Depth]) {
    ++C.Firsts[S];
    Fresh[Depth] = false;
  }
}

void ChainObserver::onTransfer(const Function &F, StmtId From, CfgLabel,
                               StmtId To, unsigned) {
  ++PerFunction[&F].Transfers[{From, To}];
}

std::map<const Function *, ChainMoments>
ptran::testing::markovMoments(const Program &P, const ChainObserver &Observed,
                              const CostModel &CM,
                              const StmtCostOverride &Override) {
  std::map<const Function *, ChainMoments> Solved;
  // Depth-first over the call graph so every callee is solved before its
  // callers; a function met again while still open closes a cycle.
  std::set<const Function *> Open, Done;
  std::function<void(const Function *)> Visit = [&](const Function *F) {
    if (Done.count(F))
      return;
    if (!Open.insert(F).second)
      reportFatalError("markov oracle: recursive call graph through " +
                       F->name());
    for (StmtId S = 0; S < F->numStmts(); ++S)
      if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
        if (const Function *Callee = P.findFunction(Call->callee()))
          Visit(Callee);
    Open.erase(F);
    Done.insert(F);
    // Only procedures the run executed get a chain.
    auto It = Observed.counts().find(F);
    if (It != Observed.counts().end() && It->second.Activations > 0)
      Solved[F] = solveChain(*F, It->second, CM, Override, Solved, P);
  };
  for (const auto &F : P.functions())
    Visit(F.get());
  return Solved;
}

std::vector<std::set<NodeId>>
ptran::testing::bruteForceDominators(const Digraph &G, NodeId Root) {
  std::vector<std::set<NodeId>> Dom(G.numNodes());
  std::vector<bool> Base = reachableFrom(G, Root);
  for (NodeId A = 0; A < G.numNodes(); ++A) {
    if (!Base[A])
      continue;
    std::vector<bool> Without = reachableFrom(G, Root, A);
    for (NodeId B = 0; B < G.numNodes(); ++B)
      if (Base[B] && (B == A || !Without[B]))
        Dom[B].insert(A);
  }
  return Dom;
}

std::vector<std::set<NodeId>>
ptran::testing::bruteForcePostDominators(const Digraph &G, NodeId Stop) {
  return bruteForceDominators(G.reversed(), Stop);
}

std::set<std::tuple<NodeId, NodeId, LabelId>>
ptran::testing::bruteForceControlDependence(const Digraph &G, NodeId Stop) {
  std::vector<std::set<NodeId>> Pdom = bruteForcePostDominators(G, Stop);

  auto Postdom = [&](NodeId A, NodeId B) { return Pdom[B].count(A) != 0; };

  std::set<std::tuple<NodeId, NodeId, LabelId>> Out;
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.isLive(E))
      continue;
    const Digraph::Edge &Ed = G.edge(E);
    NodeId X = Ed.From;
    NodeId Z = Ed.To;
    // Skip nodes with undefined postdominators (cannot reach Stop).
    if (Pdom[X].empty() || Pdom[Z].empty())
      continue;
    for (NodeId Y = 0; Y < G.numNodes(); ++Y) {
      if (Pdom[Y].empty())
        continue;
      if (Postdom(Y, X))
        continue; // Condition 1 fails (note: reflexive, so Y != X holds).
      // Condition 2/3: a path X -> Z -> ... -> Y whose intermediate nodes
      // (everything after X and before Y) are postdominated by Y.
      bool Found = false;
      if (Z == Y) {
        Found = true; // Single-edge path: no intermediates.
      } else if (Postdom(Y, Z)) {
        // BFS from Z over nodes postdominated by Y, looking for Y.
        std::vector<bool> Seen(G.numNodes(), false);
        std::vector<NodeId> Worklist = {Z};
        Seen[Z] = true;
        while (!Worklist.empty() && !Found) {
          NodeId N = Worklist.back();
          Worklist.pop_back();
          for (NodeId S : G.successors(N)) {
            if (S == Y) {
              Found = true;
              break;
            }
            if (!Seen[S] && !Pdom[S].empty() && Postdom(Y, S)) {
              Seen[S] = true;
              Worklist.push_back(S);
            }
          }
        }
      }
      if (Found)
        Out.insert({X, Y, Ed.Label});
    }
  }
  return Out;
}
