//===--- support/Diagnostics.h - Source locations and diagnostics -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations and a diagnostic sink used by the mini-language front
/// end and by structural verifiers. The library reports recoverable errors
/// (malformed input programs, irreducible graphs, ...) through a
/// DiagnosticEngine rather than exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_DIAGNOSTICS_H
#define PTRAN_SUPPORT_DIAGNOSTICS_H

#include <string>
#include <vector>

namespace ptran {

/// A 1-based line/column position in a source buffer. Line 0 means "no
/// location" (diagnostics about whole programs or graphs).
struct SourceLoc {
  unsigned Line = 0;
  unsigned Column = 0;

  bool isValid() const { return Line != 0; }
  bool operator==(const SourceLoc &Other) const = default;
};

/// Severity of a diagnostic. Errors make the producing pass fail; warnings
/// and notes are informational.
enum class DiagSeverity { Error, Warning, Note };

/// One diagnostic message with an optional source location.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics produced by a pass. Cheap to construct; passes take
/// one by reference and append to it.
class DiagnosticEngine {
public:
  /// Appends an error diagnostic at \p Loc.
  void error(SourceLoc Loc, std::string Message);
  /// Appends an error diagnostic with no source location.
  void error(std::string Message) { error(SourceLoc(), std::move(Message)); }
  /// Appends a warning diagnostic at \p Loc.
  void warning(SourceLoc Loc, std::string Message);
  /// Appends a warning diagnostic with no source location.
  void warning(std::string Message) {
    warning(SourceLoc(), std::move(Message));
  }
  /// Appends a note diagnostic at \p Loc.
  void note(SourceLoc Loc, std::string Message);

  /// \returns true if any error has been reported.
  bool hasErrors() const { return NumErrors != 0; }
  /// \returns the number of error-severity diagnostics.
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders all diagnostics as "line:col: severity: message" lines.
  std::string str() const;

  /// Splices every diagnostic of \p Other onto the end of this engine.
  /// Parallel drivers give each task its own engine and merge the locals
  /// back in task-submission order, so the combined stream is identical to
  /// what a serial run would have produced.
  void append(DiagnosticEngine Other);

  /// Drops all collected diagnostics.
  void clear();

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace ptran

#endif // PTRAN_SUPPORT_DIAGNOSTICS_H
