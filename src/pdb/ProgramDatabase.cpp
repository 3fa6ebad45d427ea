//===--- pdb/ProgramDatabase.cpp - Persistent profile store ---------------===//

#include "pdb/ProgramDatabase.h"

#include "profile/ProfileFile.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ptran;

void ProgramDatabase::accumulateTotals(const FunctionAnalysis &FA,
                                       const FrequencyTotals &Totals) {
  FunctionRecord &Rec = Functions[FA.function().name()];
  uint64_t Fingerprint = structuralFingerprintOf(FA);
  // A changed shape invalidates every total keyed by the old one's nodes
  // and loop headers: start the record afresh instead of mixing shapes.
  if (Rec.Fingerprint != Fingerprint)
    Rec = FunctionRecord{Fingerprint, {}, {}};
  for (const auto &[Cond, Total] : Totals.Cond)
    Rec.Cond[{Cond.Node, static_cast<unsigned>(Cond.Label)}] += Total;
}

void ProgramDatabase::accumulateLoopMoments(
    const Function &F, StmtId HeaderStmt,
    const LoopFrequencyStats::Moments &M) {
  FunctionRecord &Rec = Functions[F.name()];
  LoopFrequencyStats::Moments &Acc = Rec.Loops[HeaderStmt];
  Acc.Entries += M.Entries;
  Acc.Sum += M.Sum;
  Acc.SumSq += M.SumSq;
}

FrequencyTotals ProgramDatabase::totalsFor(const FunctionAnalysis &FA) const {
  FrequencyTotals Out;
  auto It = Functions.find(FA.function().name());
  if (It == Functions.end() ||
      It->second.Fingerprint != structuralFingerprintOf(FA))
    return Out; // Ok stays false.
  for (const auto &[Key, Total] : It->second.Cond)
    Out.Cond[{Key.first, static_cast<CfgLabel>(Key.second)}] = Total;
  Out.Node = nodeTotalsFromConds(FA, Out.Cond);
  Out.Ok = true;
  return Out;
}

const LoopFrequencyStats::Moments *
ProgramDatabase::momentsFor(const Function &F, StmtId HeaderStmt) const {
  auto It = Functions.find(F.name());
  if (It == Functions.end())
    return nullptr;
  auto LIt = It->second.Loops.find(HeaderStmt);
  return LIt == It->second.Loops.end() ? nullptr : &LIt->second;
}

std::string ProgramDatabase::serialize() const {
  std::ostringstream OS;
  OS << "ptran-pdb 1\n";
  OS << "runs " << Runs << "\n";
  OS.precision(17);
  for (const auto &[Name, Rec] : Functions) {
    OS << "function " << Name << " " << Rec.Fingerprint << "\n";
    for (const auto &[Key, Total] : Rec.Cond)
      OS << "cond " << Key.first << " " << Key.second << " " << Total << "\n";
    for (const auto &[Header, M] : Rec.Loops)
      OS << "loop " << Header << " " << M.Entries << " " << M.Sum << " "
         << M.SumSq << "\n";
    OS << "end\n";
  }
  return OS.str();
}

std::optional<ProgramDatabase>
ProgramDatabase::deserialize(std::string_view Text, DiagnosticEngine &Diags) {
  ProgramDatabase Db;
  std::istringstream IS{std::string(Text)};
  std::string Line;
  unsigned LineNo = 0;
  FunctionRecord *Cur = nullptr;

  auto Error = [&](const std::string &Message) {
    Diags.error(SourceLoc{LineNo, 1}, "program database: " + Message);
  };

  if (!std::getline(IS, Line) || trim(Line) != "ptran-pdb 1") {
    Error("missing or unsupported header");
    return std::nullopt;
  }
  ++LineNo;

  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag) || Tag.empty())
      continue;
    if (Tag == "runs") {
      if (!(LS >> Db.Runs)) {
        Error("malformed runs line");
        return std::nullopt;
      }
    } else if (Tag == "function") {
      std::string Name;
      uint64_t Fp = 0;
      if (!(LS >> Name >> Fp)) {
        Error("malformed function line");
        return std::nullopt;
      }
      Cur = &Db.Functions[Name];
      Cur->Fingerprint = Fp;
    } else if (Tag == "cond") {
      NodeId Node = 0;
      unsigned Label = 0;
      double Total = 0;
      if (!Cur || !(LS >> Node >> Label >> Total)) {
        Error("malformed cond line");
        return std::nullopt;
      }
      Cur->Cond[{Node, Label}] += Total;
    } else if (Tag == "loop") {
      StmtId Header = 0;
      LoopFrequencyStats::Moments M;
      if (!Cur || !(LS >> Header >> M.Entries >> M.Sum >> M.SumSq)) {
        Error("malformed loop line");
        return std::nullopt;
      }
      Cur->Loops[Header] = M;
    } else if (Tag == "end") {
      Cur = nullptr;
    } else {
      Error("unknown record tag '" + Tag + "'");
      return std::nullopt;
    }
  }
  return Db;
}

void ProgramDatabase::merge(const ProgramDatabase &Other,
                            DiagnosticEngine &Diags) {
  Runs += Other.Runs;
  for (const auto &[Name, Rec] : Other.Functions) {
    auto It = Functions.find(Name);
    if (It == Functions.end()) {
      Functions[Name] = Rec;
      continue;
    }
    if (It->second.Fingerprint != Rec.Fingerprint) {
      Diags.warning(SourceLoc(),
                    "program database: fingerprint mismatch for function " +
                        Name + "; skipping its records");
      continue;
    }
    for (const auto &[Key, Total] : Rec.Cond)
      It->second.Cond[Key] += Total;
    for (const auto &[Header, M] : Rec.Loops) {
      LoopFrequencyStats::Moments &Acc = It->second.Loops[Header];
      Acc.Entries += M.Entries;
      Acc.Sum += M.Sum;
      Acc.SumSq += M.SumSq;
    }
  }
}

bool ProgramDatabase::saveToFile(const std::string &Path,
                                 DiagnosticEngine &Diags) const {
  std::ofstream OS(Path);
  if (!OS) {
    Diags.error("cannot open program database file " + Path +
                " for writing");
    return false;
  }
  OS << serialize();
  return static_cast<bool>(OS);
}

std::optional<ProgramDatabase>
ProgramDatabase::loadFromFile(const std::string &Path,
                              DiagnosticEngine &Diags) {
  std::ifstream IS(Path);
  if (!IS) {
    Diags.error("cannot open program database file " + Path);
    return std::nullopt;
  }
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  return deserialize(Buffer.str(), Diags);
}
