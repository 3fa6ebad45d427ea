//===--- ir/Function.h - MiniIR functions and programs ---------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function and Program containers for the MiniIR. A Function owns its
/// symbol table, its flat statement list and an arena of expressions; a
/// Program owns a set of Functions and designates an entry procedure.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_IR_FUNCTION_H
#define PTRAN_IR_FUNCTION_H

#include "ir/Stmt.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ptran {

/// A declared variable: scalar or array, integer or real.
struct Symbol {
  std::string Name;
  Type Ty = Type::Integer;
  /// Array extents; empty for scalars. At most two dimensions, column-major
  /// addressing as in Fortran.
  std::vector<int64_t> Dims;
  /// True for procedure parameters (passed by reference).
  bool IsParam = false;

  bool isArray() const { return !Dims.empty(); }
  /// Total number of elements; 1 for scalars.
  int64_t elementCount() const;
};

/// A procedure: symbol table + flat statement list + expression arena.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  static constexpr unsigned InvalidIndex = static_cast<unsigned>(-1);

  /// Position in its Program's functions() (InvalidIndex outside one):
  /// a dense key for per-function tables.
  unsigned index() const { return Index; }

  /// -- Symbols ----------------------------------------------------------

  /// Declares a variable; returns its VarId. Duplicate names are the
  /// caller's responsibility (the parser diagnoses them).
  VarId declare(Symbol Sym);

  /// \returns the VarId of \p Name, or -1u if not declared. Lookup is
  /// case-insensitive, like Fortran.
  VarId lookup(std::string_view VarName) const;

  const Symbol &symbol(VarId V) const { return Symbols[V]; }
  /// Mutable access for the front end (e.g. a declaration refining the type
  /// of an already-registered parameter).
  Symbol &symbolMutable(VarId V) { return Symbols[V]; }
  unsigned numSymbols() const { return static_cast<unsigned>(Symbols.size()); }

  /// Parameter VarIds in declaration order.
  const std::vector<VarId> &params() const { return Params; }
  void addParam(VarId V) { Params.push_back(V); }

  /// -- Expressions ------------------------------------------------------

  /// Allocates an expression node in this function's arena.
  template <typename T, typename... Args> T *make(Args &&...A) {
    auto Owned = std::make_unique<T>(std::forward<Args>(A)...);
    T *Raw = Owned.get();
    Arena.push_back(std::move(Owned));
    return Raw;
  }

  /// -- Statements -------------------------------------------------------

  /// Appends a statement; returns its StmtId.
  StmtId append(std::unique_ptr<Stmt> S);

  Stmt *stmt(StmtId S) { return Stmts[S].get(); }
  const Stmt *stmt(StmtId S) const { return Stmts[S].get(); }
  unsigned numStmts() const { return static_cast<unsigned>(Stmts.size()); }

  /// \returns the StmtId carrying numeric label \p Label, or InvalidStmt.
  StmtId findLabel(int Label) const;

  /// Resolves GOTO/IF-GOTO targets and matches DO/ENDDO pairs. Reports
  /// unresolved labels and unbalanced DO nesting to \p Diags.
  /// \returns true on success.
  bool finalize(DiagnosticEngine &Diags);

  /// True once finalize() succeeded.
  bool isFinalized() const { return Finalized; }

private:
  friend class Program;
  std::string Name;
  unsigned Index = InvalidIndex;
  std::vector<Symbol> Symbols;
  std::vector<VarId> Params;
  std::vector<std::unique_ptr<Expr>> Arena;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::map<int, StmtId> LabelMap;
  bool Finalized = false;
};

/// A whole program: a set of procedures and a designated entry point.
class Program {
public:
  Program() = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Creates and registers an empty function. Names are case-insensitive
  /// and must be unique; returns null and reports to \p Diags otherwise.
  Function *createFunction(std::string Name, DiagnosticEngine &Diags);

  /// \returns the function named \p Name (case-insensitive), or null.
  Function *findFunction(std::string_view Name);
  const Function *findFunction(std::string_view Name) const;

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// The program entry procedure ("main" unless overridden).
  const std::string &entryName() const { return Entry; }
  void setEntryName(std::string Name) { Entry = std::move(Name); }
  Function *entry() { return findFunction(Entry); }
  const Function *entry() const { return findFunction(Entry); }

  /// Finalizes every function. \returns true if all succeeded.
  bool finalize(DiagnosticEngine &Diags);

private:
  /// Case-insensitive hashing and equality, so a lookup by any spelling
  /// needs no lowercased copy of the name.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view Name) const;
  };
  struct NameEq {
    using is_transparent = void;
    bool operator()(std::string_view A, std::string_view B) const;
  };

  std::vector<std::unique_ptr<Function>> Funcs;
  /// Functions by lowercased name.
  std::unordered_map<std::string, Function *, NameHash, NameEq> ByName;
  std::string Entry = "main";
};

} // namespace ptran

#endif // PTRAN_IR_FUNCTION_H
