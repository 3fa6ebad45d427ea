//===--- pdb/ProgramDatabase.h - Persistent profile store -------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PTRAN-style program database of Section 3: TOTAL_FREQ values (and
/// loop-frequency moments for the variance analysis) are accumulated
/// across program runs and persisted, "so as to get a more representative
/// set of frequency values". The store is keyed by procedure name, ECFG
/// node id and label, which is stable as long as the program (and the
/// analysis pipeline) is unchanged; a structural fingerprint guards
/// against mixing incompatible profiles.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PDB_PROGRAMDATABASE_H
#define PTRAN_PDB_PROGRAMDATABASE_H

#include "core/Analysis.h"
#include "profile/ProfileRuntime.h"

#include <map>
#include <optional>
#include <string>

namespace ptran {

/// Accumulated profile data for one program.
class ProgramDatabase {
public:
  ProgramDatabase() = default;

  /// Folds one run's recovered totals for \p F into the store. \p FA is
  /// used to fingerprint the function's shape; a record stamped with a
  /// different shape is dropped (totals and loop moments) first.
  void accumulateTotals(const FunctionAnalysis &FA,
                        const FrequencyTotals &Totals);

  /// Folds one run's loop-frequency moments for \p F into the store.
  void accumulateLoopMoments(const Function &F, StmtId HeaderStmt,
                             const LoopFrequencyStats::Moments &M);

  /// Accumulated totals of \p FA's function. Returns totals with Ok ==
  /// false if the store has no (or fingerprint-incompatible) data.
  FrequencyTotals totalsFor(const FunctionAnalysis &FA) const;

  /// Accumulated loop moments, or null.
  const LoopFrequencyStats::Moments *momentsFor(const Function &F,
                                                StmtId HeaderStmt) const;

  /// Number of accumulate calls folded in (roughly: runs recorded).
  unsigned runsRecorded() const { return Runs; }
  void noteRunCompleted() { ++Runs; }

  /// -- Persistence (line-oriented text format) ---------------------------

  std::string serialize() const;

  /// Parses a serialized database. Malformed input yields std::nullopt and
  /// diagnostics.
  static std::optional<ProgramDatabase> deserialize(std::string_view Text,
                                                    DiagnosticEngine &Diags);

  /// Merges \p Other into this database (summing all totals and moments).
  /// Fingerprint conflicts are reported and those functions skipped.
  void merge(const ProgramDatabase &Other, DiagnosticEngine &Diags);

  bool saveToFile(const std::string &Path, DiagnosticEngine &Diags) const;
  static std::optional<ProgramDatabase> loadFromFile(const std::string &Path,
                                                     DiagnosticEngine &Diags);

private:
  struct FunctionRecord {
    /// Structural fingerprint (see structuralFingerprintOf()).
    uint64_t Fingerprint = 0;
    /// Condition totals keyed by (node, label).
    std::map<std::pair<NodeId, unsigned>, double> Cond;
    /// Loop moments keyed by header statement.
    std::map<StmtId, LoopFrequencyStats::Moments> Loops;
  };

  std::map<std::string, FunctionRecord> Functions;
  unsigned Runs = 0;
};

} // namespace ptran

#endif // PTRAN_PDB_PROGRAMDATABASE_H
