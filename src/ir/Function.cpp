//===--- ir/Function.cpp - MiniIR functions and programs ------------------===//

#include "ir/Function.h"

#include "support/Casting.h"
#include "support/StringUtils.h"

#include <cctype>

using namespace ptran;

int64_t Symbol::elementCount() const {
  int64_t Count = 1;
  for (int64_t D : Dims)
    Count *= D;
  return Count;
}

VarId Function::declare(Symbol Sym) {
  Symbols.push_back(std::move(Sym));
  return static_cast<VarId>(Symbols.size() - 1);
}

VarId Function::lookup(std::string_view VarName) const {
  for (unsigned I = 0; I < Symbols.size(); ++I)
    if (equalsLower(Symbols[I].Name, VarName))
      return I;
  return static_cast<VarId>(-1);
}

StmtId Function::append(std::unique_ptr<Stmt> S) {
  Stmts.push_back(std::move(S));
  return static_cast<StmtId>(Stmts.size() - 1);
}

StmtId Function::findLabel(int Label) const {
  auto It = LabelMap.find(Label);
  return It == LabelMap.end() ? InvalidStmt : It->second;
}

bool Function::finalize(DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.errorCount();
  // Index labels, diagnosing duplicates.
  LabelMap.clear();
  for (StmtId I = 0; I < Stmts.size(); ++I) {
    int Label = Stmts[I]->label();
    if (Label == 0)
      continue;
    auto [It, Inserted] = LabelMap.try_emplace(Label, I);
    if (!Inserted)
      Diags.error(Stmts[I]->loc(), "duplicate statement label " +
                                       std::to_string(Label) +
                                       " in procedure " + Name);
  }

  // Resolve branch targets.
  for (auto &SPtr : Stmts) {
    Stmt *S = SPtr.get();
    auto Resolve = [&](int TargetLabel) {
      StmtId Target = findLabel(TargetLabel);
      if (Target == InvalidStmt)
        Diags.error(S->loc(), "undefined statement label " +
                                  std::to_string(TargetLabel) +
                                  " in procedure " + Name);
      return Target;
    };
    if (auto *If = dyn_cast<IfGotoStmt>(S)) {
      StmtId T = Resolve(If->targetLabel());
      if (T != InvalidStmt)
        If->setTarget(T);
    } else if (auto *Go = dyn_cast<GotoStmt>(S)) {
      StmtId T = Resolve(Go->targetLabel());
      if (T != InvalidStmt)
        Go->setTarget(T);
    } else if (auto *Cg = dyn_cast<ComputedGotoStmt>(S)) {
      for (size_t K = 0; K < Cg->targetLabels().size(); ++K) {
        StmtId T = Resolve(Cg->targetLabels()[K]);
        if (T != InvalidStmt)
          Cg->setTarget(K, T);
      }
    }
  }

  // Match DO/ENDDO pairs with a stack.
  std::vector<StmtId> DoStack;
  for (StmtId I = 0; I < Stmts.size(); ++I) {
    Stmt *S = Stmts[I].get();
    if (isa<DoStmt>(S)) {
      DoStack.push_back(I);
    } else if (auto *End = dyn_cast<EndDoStmt>(S)) {
      if (DoStack.empty()) {
        Diags.error(S->loc(), "ENDDO without matching DO in procedure " + Name);
        continue;
      }
      StmtId Start = DoStack.back();
      DoStack.pop_back();
      cast<DoStmt>(Stmts[Start].get())->setMatchingEnd(I);
      End->setMatchingDo(Start);
    }
  }
  for (StmtId Open : DoStack)
    Diags.error(Stmts[Open]->loc(),
                "DO without matching ENDDO in procedure " + Name);

  Finalized = Diags.errorCount() == ErrorsBefore;
  return Finalized;
}

size_t Program::NameHash::operator()(std::string_view Name) const {
  uint64_t H = 0xcbf29ce484222325ULL; // FNV-1a over the lowercased bytes.
  for (char C : Name) {
    H ^= static_cast<uint64_t>(std::tolower(static_cast<unsigned char>(C)));
    H *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(H);
}

bool Program::NameEq::operator()(std::string_view A,
                                 std::string_view B) const {
  return equalsLower(A, B);
}

Function *Program::createFunction(std::string Name, DiagnosticEngine &Diags) {
  if (findFunction(Name)) {
    Diags.error("duplicate procedure name " + Name);
    return nullptr;
  }
  Funcs.push_back(std::make_unique<Function>(std::move(Name)));
  Function *F = Funcs.back().get();
  F->Index = static_cast<unsigned>(Funcs.size() - 1);
  ByName.emplace(toLower(F->name()), F);
  return F;
}

Function *Program::findFunction(std::string_view Name) {
  auto It = ByName.find(Name);
  return It == ByName.end() ? nullptr : It->second;
}

const Function *Program::findFunction(std::string_view Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? nullptr : It->second;
}

bool Program::finalize(DiagnosticEngine &Diags) {
  bool Ok = true;
  for (auto &F : Funcs)
    Ok &= F->finalize(Diags);
  return Ok;
}
