//===--- profile/ProfileFile.cpp - Durable on-disk profiles ---------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileFile.h"

#include "support/Bytes.h"
#include "support/FaultInjection.h"
#include "support/Saturation.h"

#include <algorithm>
#include <cstdio>

using namespace ptran;

uint64_t ptran::structuralFingerprintOf(const FunctionAnalysis &FA) {
  // FNV offset basis + golden-ratio mixing; on-disk fingerprints (PTPF and
  // the program database) must keep matching session cache keys.
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix(FA.function().numStmts());
  Mix(FA.ecfg().cfg().numNodes());
  Mix(FA.cd().conditions().size());
  for (const ControlCondition &C : FA.cd().conditions()) {
    Mix(C.Node);
    Mix(static_cast<uint64_t>(C.Label));
  }
  return H;
}

uint64_t ptran::programFingerprintOf(const ProgramAnalysis &PA) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix(PA.program().functions().size());
  for (const auto &FPtr : PA.program().functions()) {
    if (const FunctionAnalysis *FA = PA.tryOf(*FPtr))
      Mix(structuralFingerprintOf(*FA));
    else
      Mix(0x4241444642414446ULL); // Failed-analysis marker.
  }
  return H;
}

namespace {

void serializePayload(std::vector<uint8_t> &Out, const FunctionSection &S) {
  ByteWriter W(Out);
  W.u32(static_cast<uint32_t>(S.Counters.size()));
  for (double C : S.Counters)
    W.f64(C);
  W.u32(static_cast<uint32_t>(S.Loops.size()));
  for (const ProfileLoopMoments &L : S.Loops) {
    W.u32(L.HeaderStmt);
    W.f64(L.Entries);
    W.f64(L.Sum);
    W.f64(L.SumSq);
  }
}

/// Parses one section payload. Returns false (leaving \p S empty) when the
/// payload is internally inconsistent — possible even under a matching CRC
/// if the writer was corrupt in memory.
bool parsePayload(const uint8_t *Data, size_t Size, FunctionSection &S) {
  ByteReader R(Data, Size);
  uint32_t NumCounters = R.u32();
  if (!R.ok() || R.remaining() < static_cast<size_t>(NumCounters) * 8)
    return false;
  S.Counters.reserve(NumCounters);
  for (uint32_t I = 0; I < NumCounters; ++I)
    S.Counters.push_back(R.f64());
  uint32_t NumLoops = R.u32();
  if (!R.ok() || R.remaining() < static_cast<size_t>(NumLoops) * 28)
    return false;
  S.Loops.reserve(NumLoops);
  for (uint32_t I = 0; I < NumLoops; ++I) {
    ProfileLoopMoments L;
    L.HeaderStmt = R.u32();
    L.Entries = R.f64();
    L.Sum = R.f64();
    L.SumSq = R.f64();
    S.Loops.push_back(L);
  }
  if (!R.ok() || R.remaining() != 0) {
    S.Counters.clear();
    S.Loops.clear();
    return false;
  }
  return true;
}

} // namespace

ProfileFile ProfileFile::capture(const ProgramAnalysis &PA,
                                 const ProgramPlan &Plan,
                                 const ProfileRuntime &RT,
                                 const LoopFrequencyStats *Stats,
                                 uint32_t Runs) {
  ProfileFile PF;
  PF.ProgramFingerprint = programFingerprintOf(PA);
  PF.Mode = Plan.mode();
  PF.Runs = Runs;
  for (const auto &FPtr : PA.program().functions()) {
    const FunctionAnalysis *FA = PA.tryOf(*FPtr);
    if (!FA)
      continue; // Failed analysis: no plan, no counters.
    FunctionSection S;
    S.Name = FPtr->name();
    S.Fingerprint = structuralFingerprintOf(*FA);
    S.Counters = RT.countersFor(*FPtr);
    if (Stats)
      for (const auto &[Header, M] : Stats->momentsOf(*FPtr))
        S.Loops.push_back({static_cast<uint32_t>(Header), M.Entries, M.Sum,
                           M.SumSq});
    PF.Sections.push_back(std::move(S));
  }
  return PF;
}

std::vector<uint8_t> ProfileFile::serialize() const {
  // Payloads first, so the directory can carry offsets and CRCs.
  std::vector<std::vector<uint8_t>> Payloads;
  Payloads.reserve(Sections.size());
  size_t HeaderSize = 4 + 4 + 8 + 4 + 4 + 4; // magic..numFunctions
  for (const FunctionSection &S : Sections) {
    Payloads.emplace_back();
    serializePayload(Payloads.back(), S);
    HeaderSize += 4 + S.Name.size() + 8 + 8 + 8 + 4; // directory entry
  }
  HeaderSize += 4; // header CRC

  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u32(MagicValue);
  W.u32(Version);
  W.u64(ProgramFingerprint);
  W.u32(static_cast<uint32_t>(Mode));
  W.u32(Runs);
  W.u32(static_cast<uint32_t>(Sections.size()));

  uint64_t Offset = HeaderSize;
  for (size_t I = 0; I < Sections.size(); ++I) {
    const FunctionSection &S = Sections[I];
    W.str(S.Name);
    W.u64(S.Fingerprint);
    W.u64(Offset);
    W.u64(Payloads[I].size());
    W.u32(crc32(Payloads[I].data(), Payloads[I].size()));
    Offset += Payloads[I].size();
  }
  W.u32(crc32(Out.data(), Out.size()));

  for (const std::vector<uint8_t> &P : Payloads)
    W.raw(P.data(), P.size());
  return Out;
}

std::optional<ProfileFile>
ProfileFile::deserialize(const std::vector<uint8_t> &Bytes,
                         DiagnosticEngine *Diags) {
  auto HeaderError = [&](const std::string &What) -> std::optional<ProfileFile> {
    if (Diags)
      Diags->error("cannot load profile: " + What);
    return std::nullopt;
  };

  ByteReader R(Bytes.data(), Bytes.size());
  if (R.u32() != MagicValue)
    return HeaderError("bad magic (not a ptran profile file)");
  uint32_t FileVersion = R.u32();
  if (FileVersion != CurrentVersion)
    return HeaderError("unsupported version " + std::to_string(FileVersion) +
                       " (this build reads version " +
                       std::to_string(CurrentVersion) + ")");

  ProfileFile PF;
  PF.Version = FileVersion;
  PF.ProgramFingerprint = R.u64();
  uint32_t ModeValue = R.u32();
  PF.Runs = R.u32();
  uint32_t NumFunctions = R.u32();
  if (!R.ok())
    return HeaderError("truncated header");
  if (ModeValue > static_cast<uint32_t>(ProfileMode::Smart))
    return HeaderError("invalid profile mode " + std::to_string(ModeValue));
  PF.Mode = static_cast<ProfileMode>(ModeValue);

  struct DirEntry {
    uint64_t Offset = 0;
    uint64_t Size = 0;
    uint32_t Crc = 0;
  };
  std::vector<DirEntry> Dir;
  Dir.reserve(std::min<size_t>(NumFunctions, Bytes.size() / 32));
  for (uint32_t I = 0; I < NumFunctions; ++I) {
    FunctionSection S;
    S.Name = R.str();
    S.Fingerprint = R.u64();
    DirEntry E;
    E.Offset = R.u64();
    E.Size = R.u64();
    E.Crc = R.u32();
    if (!R.ok())
      return HeaderError("truncated or garbled directory");
    Dir.push_back(E);
    PF.Sections.push_back(std::move(S));
  }

  // The header CRC covers every byte read so far; nothing above can be
  // trusted until it checks out.
  size_t CrcPos = R.pos();
  uint32_t StoredCrc = R.u32();
  if (!R.ok())
    return HeaderError("truncated header (missing checksum)");
  if (crc32(Bytes.data(), CrcPos) != StoredCrc)
    return HeaderError("header checksum mismatch (corrupt or truncated file)");

  // Directory is now trusted: validate and parse each payload in
  // isolation, so one bad section cannot take down its neighbors.
  for (size_t I = 0; I < PF.Sections.size(); ++I) {
    FunctionSection &S = PF.Sections[I];
    const DirEntry &E = Dir[I];
    auto Invalidate = [&](const std::string &What) {
      S.Valid = false;
      S.Issue = What;
      S.Counters.clear();
      S.Loops.clear();
      if (Diags)
        Diags->warning("profile section for " + S.Name + ": " + What);
    };
    if (E.Offset > Bytes.size() || E.Size > Bytes.size() - E.Offset) {
      Invalidate("section extends past end of file (truncated)");
      continue;
    }
    const uint8_t *Payload = Bytes.data() + E.Offset;
    if (crc32(Payload, E.Size) != E.Crc) {
      Invalidate("section checksum mismatch (corrupt data)");
      continue;
    }
    if (!parsePayload(Payload, E.Size, S))
      Invalidate("section payload is garbled");
  }
  return PF;
}

namespace {

/// One attempt at writing \p Bytes to \p Path. Every failure mode here is
/// transient by the retry taxonomy (the bytes themselves are fixed);
/// \p Error receives the message of the failing step.
bool writeBytesOnce(const std::string &Path, const std::vector<uint8_t> &Bytes,
                    std::string &Error) {
  if (FaultInjection::maybeFailIo()) {
    Error = "cannot write profile " + Path + ": injected IO failure";
    return false;
  }
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open profile " + Path + " for writing";
    return false;
  }
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  if (std::fclose(F) != 0 || Written != Bytes.size()) {
    Error = "short write while saving profile " + Path;
    return false;
  }
  return true;
}

/// One attempt at reading all of \p Path into \p Bytes. Transient only;
/// whether the bytes parse is the caller's (permanent) concern.
bool readBytesOnce(const std::string &Path, std::vector<uint8_t> &Bytes,
                   std::string &Error) {
  if (FaultInjection::maybeFailIo()) {
    Error = "cannot read profile " + Path + ": injected IO failure";
    return false;
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open profile " + Path;
    return false;
  }
  Bytes.clear();
  uint8_t Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool ReadOk = std::ferror(F) == 0;
  std::fclose(F);
  if (!ReadOk) {
    Error = "read error while loading profile " + Path;
    return false;
  }
  return true;
}

} // namespace

bool ProfileFile::saveToFile(const std::string &Path,
                             DiagnosticEngine *Diags) const {
  return saveToFile(Path, Diags, RetryPolicy());
}

bool ProfileFile::saveToFile(const std::string &Path, DiagnosticEngine *Diags,
                             const RetryPolicy &Retry, ObsSink *Obs) const {
  // Serialize (and apply the simulated disk corruption, which flips after
  // the CRCs are computed so the damage is real and a later load must
  // detect it) exactly once: retried attempts write identical bytes.
  std::vector<uint8_t> Bytes = serialize();
  FaultInjection::maybeFlipByte(Bytes);

  std::string LastError;
  RetryOutcome Out = retryWithBackoff(
      Retry,
      [&] {
        return writeBytesOnce(Path, Bytes, LastError)
                   ? AttemptResult::Success
                   : AttemptResult::Transient;
      },
      /*Cancel=*/nullptr, Obs);
  if (!Out.Ok) {
    if (Diags)
      Diags->error(LastError +
                   (Out.Attempts > 1
                        ? " (persisted across " +
                              std::to_string(Out.Attempts) + " attempts)"
                        : ""));
    return false;
  }
  if (Out.Retries > 0 && Diags)
    Diags->note(SourceLoc(), "profile write to " + Path + " succeeded after " +
                                 std::to_string(Out.Retries) +
                                 " retried transient IO failures");
  return true;
}

std::optional<ProfileFile> ProfileFile::loadFromFile(const std::string &Path,
                                                     DiagnosticEngine *Diags) {
  return loadFromFile(Path, Diags, RetryPolicy());
}

std::optional<ProfileFile>
ProfileFile::loadFromFile(const std::string &Path, DiagnosticEngine *Diags,
                          const RetryPolicy &Retry, ObsSink *Obs) {
  std::vector<uint8_t> Bytes;
  std::string LastError;
  RetryOutcome Out = retryWithBackoff(
      Retry,
      [&] {
        return readBytesOnce(Path, Bytes, LastError)
                   ? AttemptResult::Success
                   : AttemptResult::Transient;
      },
      /*Cancel=*/nullptr, Obs);
  if (!Out.Ok) {
    if (Diags)
      Diags->error(LastError +
                   (Out.Attempts > 1
                        ? " (persisted across " +
                              std::to_string(Out.Attempts) + " attempts)"
                        : ""));
    return std::nullopt;
  }
  if (Out.Retries > 0 && Diags)
    Diags->note(SourceLoc(), "profile read from " + Path +
                                 " succeeded after " +
                                 std::to_string(Out.Retries) +
                                 " retried transient IO failures");
  // Corruption is permanent — deserialize stays outside the retry loop.
  return deserialize(Bytes, Diags);
}

bool ProfileFile::merge(const ProfileFile &Other, DiagnosticEngine *Diags) {
  if (Other.ProgramFingerprint != ProgramFingerprint) {
    if (Diags)
      Diags->error("cannot merge profiles: program fingerprint mismatch "
                   "(recorded against different program versions)");
    return false;
  }
  if (Other.Mode != Mode) {
    if (Diags)
      Diags->error(std::string("cannot merge profiles: counter mode ") +
                   profileModeName(Other.Mode) + " vs " +
                   profileModeName(Mode));
    return false;
  }

  for (const FunctionSection &Theirs : Other.Sections) {
    auto Skip = [&](const std::string &Why) {
      if (Diags)
        Diags->warning("merge: skipping section for " + Theirs.Name + ": " +
                       Why);
    };
    if (!Theirs.Valid) {
      Skip("section is invalid (" + Theirs.Issue + ")");
      continue;
    }
    FunctionSection *Ours = nullptr;
    for (FunctionSection &S : Sections)
      if (S.Name == Theirs.Name)
        Ours = &S;
    if (!Ours) {
      Skip("unknown function");
      continue;
    }
    if (!Ours->Valid) {
      Skip("local section is invalid (" + Ours->Issue + ")");
      continue;
    }
    if (Ours->Fingerprint != Theirs.Fingerprint) {
      Skip("function fingerprint mismatch");
      continue;
    }
    if (Ours->Counters.size() != Theirs.Counters.size()) {
      Skip("counter count mismatch");
      continue;
    }
    bool Saturated = false;
    for (size_t I = 0; I < Ours->Counters.size(); ++I)
      Saturated |= saturatingAdd(Ours->Counters[I], Theirs.Counters[I]);
    for (const ProfileLoopMoments &L : Theirs.Loops) {
      ProfileLoopMoments *Mine = nullptr;
      for (ProfileLoopMoments &M : Ours->Loops)
        if (M.HeaderStmt == L.HeaderStmt)
          Mine = &M;
      if (!Mine) {
        // A loop this accumulation never entered before; adopt it.
        Ours->Loops.push_back(L);
        continue;
      }
      Saturated |= saturatingAdd(Mine->Entries, L.Entries);
      Saturated |= saturatingAdd(Mine->Sum, L.Sum);
      Saturated |= saturatingAdd(Mine->SumSq, L.SumSq);
    }
    if (Saturated && Diags)
      Diags->warning("merge: counters for " + Theirs.Name +
                     " saturated at 2^53; totals are now lower bounds");
  }

  uint64_t MergedRuns = static_cast<uint64_t>(Runs) + Other.Runs;
  Runs = MergedRuns > UINT32_MAX ? UINT32_MAX
                                 : static_cast<uint32_t>(MergedRuns);
  return true;
}

const FunctionSection *ProfileFile::sectionFor(std::string_view Name) const {
  for (const FunctionSection &S : Sections)
    if (S.Name == Name)
      return &S;
  return nullptr;
}
