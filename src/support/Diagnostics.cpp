//===--- support/Diagnostics.cpp - Source locations and diagnostics -------===//

#include "support/Diagnostics.h"

#include <iterator>
#include <sstream>

using namespace ptran;

void DiagnosticEngine::error(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagSeverity::Error, Loc, std::move(Message)});
  ++NumErrors;
}

void DiagnosticEngine::warning(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagSeverity::Warning, Loc, std::move(Message)});
}

void DiagnosticEngine::note(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagSeverity::Note, Loc, std::move(Message)});
}

std::string DiagnosticEngine::str() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags) {
    if (D.Loc.isValid())
      OS << D.Loc.Line << ':' << D.Loc.Column << ": ";
    switch (D.Severity) {
    case DiagSeverity::Error:
      OS << "error: ";
      break;
    case DiagSeverity::Warning:
      OS << "warning: ";
      break;
    case DiagSeverity::Note:
      OS << "note: ";
      break;
    }
    OS << D.Message << '\n';
  }
  return OS.str();
}

void DiagnosticEngine::append(DiagnosticEngine Other) {
  Diags.insert(Diags.end(), std::make_move_iterator(Other.Diags.begin()),
               std::make_move_iterator(Other.Diags.end()));
  NumErrors += Other.NumErrors;
}

void DiagnosticEngine::clear() {
  Diags.clear();
  NumErrors = 0;
}
