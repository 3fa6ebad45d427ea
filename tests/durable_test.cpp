//===--- tests/durable_test.cpp - Crash-safe state store tests ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the daemon's durable state: the journal record codecs reject
/// every truncation, a journal cut at EVERY byte length recovers (torn
/// tail quarantined, valid prefix intact, journal appendable again),
/// snapshots detect every single-byte corruption, injected kill -9
/// crashes (torn append, post-append, mid-rotate, mid-snapshot) leave a
/// recoverable store, and — the acceptance property — a ServeCore
/// restored from every byte prefix of a real journal answers estimates
/// byte-identically to the live daemon at that prefix. The ubsan preset
/// reruns this binary, which drives every truncation point through the
/// decoders under UndefinedBehaviorSanitizer.
///
//===----------------------------------------------------------------------===//

#include "durable/Journal.h"
#include "durable/Records.h"
#include "durable/Snapshot.h"
#include "durable/StateStore.h"
#include "obs/Observability.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Bytes.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;
using namespace ptran::serve;

namespace {

//===--- filesystem helpers ----------------------------------------------===//

/// A fresh directory under /tmp, recursively removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ptran-durable-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = Buf;
  }
  ~TempDir() {
    DIR *D = ::opendir(Path.c_str());
    if (D) {
      while (dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Out;
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Out;
  struct stat St;
  if (::fstat(Fd, &St) == 0) {
    Out.resize(static_cast<size_t>(St.st_size));
    size_t Got = 0;
    while (Got < Out.size()) {
      ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
      if (N <= 0)
        break;
      Got += static_cast<size_t>(N);
    }
    Out.resize(Got);
  }
  ::close(Fd);
  return Out;
}

void writeFileBytes(const std::string &Path, const uint8_t *Data,
                    size_t Len) {
  int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(Fd, 0);
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    ASSERT_GT(N, 0);
    Off += static_cast<size_t>(N);
  }
  ::close(Fd);
}

//===--- record fixtures --------------------------------------------------===//

DurableRecord makeCreate() {
  DurableRecord R;
  R.Type = RecordType::SessionCreate;
  R.Session = "s0";
  R.Source = "      program main\n      end\n";
  R.Mode = 3;
  R.LoopVariance = 2;
  R.OnBadProfile = 1;
  return R;
}

DurableRecord makeFold() {
  DurableRecord R;
  R.Type = RecordType::EpochFold;
  R.Session = "s0";
  FoldEntry F;
  F.Function = "leaf";
  F.Conds.push_back({7, 1, 16.0});
  F.Conds.push_back({9, 0, 0.5});
  R.Folds.push_back(F);
  FoldEntry G;
  G.Function = "main";
  G.Conds.push_back({0, 0, 1.0});
  R.Folds.push_back(G);
  R.Clamped.push_back("leaf");
  return R;
}

void expectRecordsEqual(const DurableRecord &A, const DurableRecord &B) {
  EXPECT_EQ(A.Type, B.Type);
  EXPECT_EQ(A.Session, B.Session);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Mode, B.Mode);
  EXPECT_EQ(A.LoopVariance, B.LoopVariance);
  EXPECT_EQ(A.OnBadProfile, B.OnBadProfile);
  EXPECT_EQ(A.RunCount, B.RunCount);
  EXPECT_EQ(A.Profile, B.Profile);
  EXPECT_EQ(A.FunctionName, B.FunctionName);
  EXPECT_EQ(A.Clamped, B.Clamped);
  ASSERT_EQ(A.Folds.size(), B.Folds.size());
  for (size_t I = 0; I < A.Folds.size(); ++I) {
    EXPECT_EQ(A.Folds[I].Function, B.Folds[I].Function);
    ASSERT_EQ(A.Folds[I].Conds.size(), B.Folds[I].Conds.size());
    for (size_t C = 0; C < A.Folds[I].Conds.size(); ++C) {
      EXPECT_EQ(A.Folds[I].Conds[C].Node, B.Folds[I].Conds[C].Node);
      EXPECT_EQ(A.Folds[I].Conds[C].Label, B.Folds[I].Conds[C].Label);
      EXPECT_EQ(A.Folds[I].Conds[C].Total, B.Folds[I].Conds[C].Total);
    }
  }
}

} // namespace

//===--- record codec -----------------------------------------------------===//

TEST(DurableRecords, RoundTripsEveryRecordType) {
  std::vector<DurableRecord> Originals;
  Originals.push_back(makeCreate());
  {
    DurableRecord R;
    R.Type = RecordType::SessionEvict;
    R.Session = "victim";
    Originals.push_back(R);
  }
  {
    DurableRecord R;
    R.Type = RecordType::RunExec;
    R.Session = "s0";
    R.RunCount = 17;
    Originals.push_back(R);
  }
  Originals.push_back(makeFold());
  {
    DurableRecord R;
    R.Type = RecordType::ProfileIngest;
    R.Session = "s0";
    for (int I = 0; I < 64; ++I)
      R.Profile.push_back(static_cast<uint8_t>(I * 7));
    Originals.push_back(R);
  }
  {
    DurableRecord R;
    R.Type = RecordType::SaturationMark;
    R.Session = "s0";
    R.FunctionName = "leaf";
    Originals.push_back(R);
  }

  for (const DurableRecord &R : Originals) {
    std::vector<uint8_t> Body = encodeRecord(R);
    DurableRecord Back;
    std::string Error;
    ASSERT_TRUE(decodeRecord(Body.data(), Body.size(), Back, Error))
        << Error;
    expectRecordsEqual(R, Back);
  }
}

TEST(DurableRecords, RejectsEveryStrictPrefixTrailingGarbageAndBadTag) {
  // The fattest record exercises every field decoder.
  std::vector<uint8_t> Body = encodeRecord(makeFold());
  DurableRecord Back;
  std::string Error;
  for (size_t Len = 0; Len < Body.size(); ++Len)
    EXPECT_FALSE(decodeRecord(Body.data(), Len, Back, Error))
        << "prefix of " << Len << " bytes decoded";

  std::vector<uint8_t> Longer = Body;
  Longer.push_back(0);
  EXPECT_FALSE(decodeRecord(Longer.data(), Longer.size(), Back, Error));

  std::vector<uint8_t> BadTag = Body;
  BadTag[0] = 99;
  EXPECT_FALSE(decodeRecord(BadTag.data(), BadTag.size(), Back, Error));
}

//===--- journal ----------------------------------------------------------===//

TEST(DeltaJournal, AppendScanRoundTripAssignsMonotonicLsns) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";
  std::string Error;
  DeltaJournal::OpenReport Report;
  {
    auto J = DeltaJournal::open(Path, FsyncPolicy::Always, Report, nullptr,
                                Error);
    ASSERT_TRUE(J) << Error;
    EXPECT_EQ(Report.NextLsn, 1u);
    EXPECT_EQ(J->append(makeCreate(), Error), 1u) << Error;
    EXPECT_EQ(J->append(makeFold(), Error), 2u) << Error;
    DurableRecord Evict;
    Evict.Type = RecordType::SessionEvict;
    Evict.Session = "s0";
    EXPECT_EQ(J->append(Evict, Error), 3u) << Error;
    EXPECT_EQ(J->lastLsn(), 3u);
  }
  std::vector<DurableRecord> Records;
  auto J = DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records,
                              Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_EQ(Report.RecordsScanned, 3u);
  EXPECT_FALSE(Report.TailQuarantined);
  ASSERT_EQ(Records.size(), 3u);
  EXPECT_EQ(Records[0].Lsn, 1u);
  EXPECT_EQ(Records[2].Lsn, 3u);
  expectRecordsEqual(Records[0], makeCreate());
  expectRecordsEqual(Records[1], makeFold());
  EXPECT_EQ(Records[2].Type, RecordType::SessionEvict);
  EXPECT_EQ(J->nextLsn(), 4u);
}

TEST(DeltaJournal, EveryBytePrefixRecovers) {
  // Build a small journal and remember where each frame ends; then cut
  // the file at EVERY byte length and prove open() recovers: the complete
  // frames survive, a torn tail (or torn header) is quarantined, and the
  // journal accepts appends again.
  TempDir Dir;
  std::string RefPath = Dir.Path + "/ref.ptwj";
  std::vector<DurableRecord> Originals;
  Originals.push_back(makeCreate());
  {
    DurableRecord R;
    R.Type = RecordType::RunExec;
    R.Session = "s0";
    R.RunCount = 3;
    Originals.push_back(R);
  }
  Originals.push_back(makeFold());
  {
    DurableRecord R;
    R.Type = RecordType::SaturationMark;
    R.Session = "s0";
    R.FunctionName = "leaf";
    Originals.push_back(R);
  }

  std::string Error;
  DeltaJournal::OpenReport Report;
  std::vector<uint64_t> FrameEnds; // File size after each append.
  {
    auto J = DeltaJournal::open(RefPath, FsyncPolicy::Always, Report,
                                nullptr, Error);
    ASSERT_TRUE(J) << Error;
    for (const DurableRecord &R : Originals) {
      ASSERT_NE(J->append(R, Error), 0u) << Error;
      FrameEnds.push_back(J->sizeBytes());
    }
  }
  std::vector<uint8_t> Full = readFileBytes(RefPath);
  ASSERT_EQ(Full.size(), FrameEnds.back());

  std::string CutPath = Dir.Path + "/cut.ptwj";
  std::string QPath = CutPath + ".quarantine";
  for (size_t Len = 0; Len <= Full.size(); ++Len) {
    SCOPED_TRACE("prefix length " + std::to_string(Len));
    ::unlink(CutPath.c_str());
    ::unlink(QPath.c_str());
    writeFileBytes(CutPath, Full.data(), Len);

    std::vector<DurableRecord> Records;
    auto J = DeltaJournal::open(CutPath, FsyncPolicy::Never, Report,
                                &Records, Error);
    ASSERT_TRUE(J) << Error; // Corruption is never unrecoverable.

    size_t Complete = 0;
    while (Complete < FrameEnds.size() && FrameEnds[Complete] <= Len)
      ++Complete;
    EXPECT_EQ(Report.RecordsScanned, Complete);
    ASSERT_EQ(Records.size(), Complete);
    for (size_t I = 0; I < Complete; ++I) {
      EXPECT_EQ(Records[I].Lsn, I + 1);
      expectRecordsEqual(Records[I], Originals[I]);
    }

    // Quarantined exactly when the cut fell inside a header or a frame.
    bool AtBoundary = Len == 0 || Len == 16 ||
                      (Complete > 0 && FrameEnds[Complete - 1] == Len);
    EXPECT_EQ(Report.TailQuarantined, !AtBoundary);
    EXPECT_EQ(fileExists(QPath), !AtBoundary);
    if (!AtBoundary) {
      EXPECT_FALSE(Report.TailReason.empty());
      uint64_t Boundary = Len < 16
                              ? 0
                              : (Complete > 0 ? FrameEnds[Complete - 1] : 16);
      EXPECT_EQ(Report.QuarantinedBytes, Len - Boundary);
      // The quarantine file holds exactly the torn suffix.
      EXPECT_EQ(readFileBytes(QPath).size(), Len - Boundary);
    }

    // The recovered journal must accept appends on a clean boundary.
    DurableRecord More;
    More.Type = RecordType::SessionEvict;
    More.Session = "s0";
    EXPECT_EQ(J->append(More, Error), Complete + 1) << Error;
    J.reset();

    std::vector<DurableRecord> Again;
    auto J2 = DeltaJournal::open(CutPath, FsyncPolicy::Never, Report, &Again,
                                 Error);
    ASSERT_TRUE(J2) << Error;
    EXPECT_FALSE(Report.TailQuarantined);
    EXPECT_EQ(Again.size(), Complete + 1);
  }
}

TEST(DeltaJournal, RotationKeepsLsnsGloballyMonotonic) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";
  std::string Error;
  DeltaJournal::OpenReport Report;
  auto J =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, nullptr, Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_EQ(J->append(makeCreate(), Error), 1u);
  EXPECT_EQ(J->append(makeFold(), Error), 2u);
  ASSERT_TRUE(J->rotate(Error)) << Error;
  EXPECT_EQ(J->nextLsn(), 3u);
  EXPECT_EQ(J->sizeBytes(), 16u); // Header only: the records are gone.
  EXPECT_EQ(J->append(makeFold(), Error), 3u);
  J.reset();

  std::vector<DurableRecord> Records;
  auto J2 =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records, Error);
  ASSERT_TRUE(J2) << Error;
  EXPECT_EQ(Report.FirstLsn, 3u);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Lsn, 3u);
}

//===--- injected crashes -------------------------------------------------===//

namespace {

/// Forks, runs \p Child in the child process, and expects the child to
/// die at an injected crash point (_exit(42), the harness's kill -9
/// stand-in). A child that survives exits 7 and fails the expectation.
void expectInjectedCrash(const std::function<void()> &Child) {
  ::fflush(nullptr); // Keep buffered gtest output out of the child.
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    Child();
    ::_exit(7);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 42)
      << "child did not die at the injected crash point";
}

} // namespace

TEST(DurableCrash, TornAppendQuarantinesExactlyTheTornFrame) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";
  std::string Error;
  DeltaJournal::OpenReport Report;
  {
    auto J = DeltaJournal::open(Path, FsyncPolicy::Always, Report, nullptr,
                                Error);
    ASSERT_TRUE(J) << Error;
    ASSERT_EQ(J->append(makeCreate(), Error), 1u) << Error;
  }

  expectInjectedCrash([&] {
    std::string E;
    DeltaJournal::OpenReport R;
    auto J = DeltaJournal::open(Path, FsyncPolicy::Always, R, nullptr, E);
    if (!J)
      ::_exit(7);
    ScopedFaultInjection Fault("io.torn_write=1");
    if (!Fault.ok())
      ::_exit(7);
    J->append(makeFold(), E); // Dies mid-frame.
  });

  std::vector<DurableRecord> Records;
  auto J =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records, Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_TRUE(Report.TailQuarantined);
  EXPECT_GT(Report.QuarantinedBytes, 0u);
  EXPECT_TRUE(fileExists(Path + ".quarantine"));
  ASSERT_EQ(Records.size(), 1u); // The torn append cost only itself.
  expectRecordsEqual(Records[0], makeCreate());
  EXPECT_EQ(J->append(makeFold(), Error), 2u) << Error;
}

TEST(DurableCrash, CrashAfterAppendKeepsTheFullFrame) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";

  expectInjectedCrash([&] {
    std::string E;
    DeltaJournal::OpenReport R;
    auto J = DeltaJournal::open(Path, FsyncPolicy::Always, R, nullptr, E);
    if (!J)
      ::_exit(7);
    if (J->append(makeCreate(), E) != 1)
      ::_exit(7);
    ScopedFaultInjection Fault("crash.at=durable.append");
    if (!Fault.ok())
      ::_exit(7);
    J->append(makeFold(), E); // Dies right after the frame hit disk.
  });

  std::string Error;
  DeltaJournal::OpenReport Report;
  std::vector<DurableRecord> Records;
  auto J =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records, Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_FALSE(Report.TailQuarantined);
  ASSERT_EQ(Records.size(), 2u); // The acknowledged frame survived whole.
  expectRecordsEqual(Records[1], makeFold());
}

TEST(DurableCrash, CrashMidRotateLeavesTheOldJournalIntact) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";

  expectInjectedCrash([&] {
    std::string E;
    DeltaJournal::OpenReport R;
    auto J = DeltaJournal::open(Path, FsyncPolicy::Always, R, nullptr, E);
    if (!J)
      ::_exit(7);
    if (J->append(makeCreate(), E) != 1 || J->append(makeFold(), E) != 2)
      ::_exit(7);
    ScopedFaultInjection Fault("crash.at=durable.truncate");
    if (!Fault.ok())
      ::_exit(7);
    J->rotate(E); // Dies between writing the replacement and renaming it.
  });

  std::string Error;
  DeltaJournal::OpenReport Report;
  std::vector<DurableRecord> Records;
  auto J =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records, Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_FALSE(Report.TailQuarantined);
  EXPECT_EQ(Report.FirstLsn, 1u); // The rename never happened.
  ASSERT_EQ(Records.size(), 2u);  // Nothing was lost.
}

TEST(DurableCrash, CrashMidSnapshotLeavesThePreviousSnapshot) {
  TempDir Dir;
  DurableSessionState V1;
  V1.Name = "s0";
  V1.Source = "      program main\n      end\n";
  V1.Runs = 1;
  std::string Error;
  ASSERT_TRUE(writeSnapshotFile(Dir.Path, V1, 5, Error)) << Error;

  expectInjectedCrash([&] {
    ScopedFaultInjection Fault("crash.at=durable.snapshot");
    if (!Fault.ok())
      ::_exit(7);
    DurableSessionState V2 = V1;
    V2.Runs = 2;
    std::string E;
    writeSnapshotFile(Dir.Path, V2, 9, E); // Dies before the rename.
  });

  DurableSessionState Back;
  uint64_t Watermark = 0;
  ASSERT_TRUE(readSnapshotFile(Dir.Path + "/" + snapshotFileName("s0"), Back,
                               Watermark, Error))
      << Error;
  EXPECT_EQ(Back.Runs, 1u); // Still version 1.
  EXPECT_EQ(Watermark, 5u);
}

//===--- snapshots --------------------------------------------------------===//

namespace {

DurableSessionState makeState() {
  DurableSessionState S;
  S.Name = "s0";
  S.Source = "      program main\n      end\n";
  S.Mode = 3;
  S.LoopVariance = 1;
  S.OnBadProfile = 1;
  S.Runs = 4;
  for (int I = 0; I < 32; ++I)
    S.ProfileImage.push_back(static_cast<uint8_t>(I));
  FoldEntry F;
  F.Function = "leaf";
  F.Conds.push_back({3, 1, 128.0});
  S.External.push_back(F);
  S.Saturated.push_back("leaf");
  S.Quarantined.push_back({"bad", "profile failed checksum"});
  return S;
}

} // namespace

TEST(DurableSnapshot, RoundTripsFullState) {
  DurableSessionState S = makeState();
  std::vector<uint8_t> Image = encodeSnapshot(S, 41);
  DurableSessionState Back;
  uint64_t Watermark = 0;
  std::string Error;
  ASSERT_TRUE(decodeSnapshot(Image.data(), Image.size(), Back, Watermark,
                             Error))
      << Error;
  EXPECT_EQ(Watermark, 41u);
  EXPECT_EQ(Back.Name, S.Name);
  EXPECT_EQ(Back.Source, S.Source);
  EXPECT_EQ(Back.Mode, S.Mode);
  EXPECT_EQ(Back.LoopVariance, S.LoopVariance);
  EXPECT_EQ(Back.OnBadProfile, S.OnBadProfile);
  EXPECT_EQ(Back.Runs, S.Runs);
  EXPECT_EQ(Back.ProfileImage, S.ProfileImage);
  EXPECT_EQ(Back.Saturated, S.Saturated);
  EXPECT_EQ(Back.Quarantined, S.Quarantined);
  ASSERT_EQ(Back.External.size(), 1u);
  EXPECT_EQ(Back.External[0].Function, "leaf");
  EXPECT_EQ(Back.External[0].Conds[0].Total, 128.0);
}

TEST(DurableSnapshot, DetectsEveryByteCorruptionAndEveryTruncation) {
  std::vector<uint8_t> Image = encodeSnapshot(makeState(), 41);
  DurableSessionState Back;
  uint64_t Watermark = 0;
  std::string Error;
  for (size_t I = 0; I < Image.size(); ++I) {
    std::vector<uint8_t> Bad = Image;
    Bad[I] ^= 0x5A;
    EXPECT_FALSE(
        decodeSnapshot(Bad.data(), Bad.size(), Back, Watermark, Error))
        << "corrupt byte " << I << " went undetected";
  }
  for (size_t Len = 0; Len < Image.size(); ++Len)
    EXPECT_FALSE(decodeSnapshot(Image.data(), Len, Back, Watermark, Error))
        << "truncation to " << Len << " bytes went undetected";
}

//===--- state store ------------------------------------------------------===//

TEST(StateStore, RecoversSnapshotsAndQuarantinesTheCorruptOne) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Recovered;
  {
    auto Store =
        StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    DurableSessionState A = makeState();
    DurableSessionState B = makeState();
    B.Name = "s1";
    B.Runs = 9;
    ASSERT_TRUE(Store->writeSnapshot(A, 3, Error)) << Error;
    ASSERT_TRUE(Store->writeSnapshot(B, 3, Error)) << Error;
    ASSERT_NE(Store->journal().append(makeFold(), Error), 0u) << Error;
  }

  // Corrupt s1's snapshot mid-file.
  std::string BadPath = Dir.Path + "/" + snapshotFileName("s1");
  std::vector<uint8_t> Bytes = readFileBytes(BadPath);
  ASSERT_GT(Bytes.size(), 20u);
  Bytes[Bytes.size() / 2] ^= 0xFF;
  writeFileBytes(BadPath, Bytes.data(), Bytes.size());

  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  ASSERT_EQ(Recovered.Snapshots.size(), 1u);
  EXPECT_EQ(Recovered.Snapshots[0].State.Name, "s0");
  EXPECT_EQ(Recovered.Snapshots[0].Watermark, 3u);
  ASSERT_EQ(Recovered.SnapshotDiagnostics.size(), 1u);
  EXPECT_FALSE(fileExists(BadPath));
  EXPECT_TRUE(fileExists(BadPath + ".corrupt"));
  ASSERT_EQ(Recovered.Records.size(), 1u);
  expectRecordsEqual(Recovered.Records[0], makeFold());
}

TEST(StateStore, PruneRemovesOnlyNonResidentSnapshots) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  DurableSessionState A = makeState();
  DurableSessionState B = makeState();
  B.Name = "evicted";
  ASSERT_TRUE(Store->writeSnapshot(A, 1, Error)) << Error;
  ASSERT_TRUE(Store->writeSnapshot(B, 1, Error)) << Error;
  ASSERT_TRUE(Store->pruneSnapshotsExcept({"s0"}, Error)) << Error;
  EXPECT_TRUE(fileExists(Dir.Path + "/" + snapshotFileName("s0")));
  EXPECT_FALSE(fileExists(Dir.Path + "/" + snapshotFileName("evicted")));
}

//===--- ServeCore restore ------------------------------------------------===//

namespace {

/// Same shape as serve_test's TinySource: calls, loops, a branch.
const char *TinySource = R"(      program main
      integer i, n
      n = 16
      do 10 i = 1, n
        call leaf(i)
 10   continue
      end
      subroutine leaf(k)
      integer k, j
      real s
      s = 0
      do 20 j = 1, 4
        if (s .gt. 10) then
          s = s - 10
        else
          s = s + j * k
        endif
 20   continue
      end
)";

WireMessage makeRequest(const std::string &Verb, const std::string &Session) {
  WireMessage M;
  M.Verb = Verb;
  if (!Session.empty())
    M.Params["session"] = Session;
  return M;
}

/// Appends one 16-byte little-endian stream record to \p Body.
void appendStreamRecord(std::string &Body, uint32_t FuncIdx, uint32_t CondIdx,
                        double Delta) {
  std::vector<uint8_t> Rec;
  ByteWriter W(Rec);
  W.u32(FuncIdx);
  W.u32(CondIdx);
  W.f64(Delta);
  Body.append(Rec.begin(), Rec.end());
}

/// The full-precision estimate answer for (session, function): the verb
/// plus the params recovery must reproduce byte-for-byte.
std::vector<std::string> estimateFingerprint(ServeCore &Core,
                                             const std::string &Session,
                                             const std::string &Function) {
  WireMessage Req = makeRequest("estimate", Session);
  if (!Function.empty())
    Req.Params["function"] = Function;
  WireMessage Resp = Core.handle(Req);
  std::vector<std::string> Fp;
  Fp.push_back(Resp.Verb);
  for (const char *Key : {"time", "var", "stddev", "code"})
    Fp.push_back(Resp.param(Key));
  return Fp;
}

} // namespace

TEST(ServeCoreDurable, EveryJournalPrefixRestoresTheReferenceEstimates) {
  // Drive a real daemon core against a store, remembering the estimate
  // fingerprint after every journaled mutation. Then cut the journal at
  // EVERY byte length, restore a fresh core from the prefix, and demand
  // the estimates match the reference at that prefix byte-for-byte —
  // including cuts inside a frame (the torn final record costs itself,
  // never the prefix before it).
  TempDir DirA;
  // Fingerprints per journal record count: RefAt[N] is the expected
  // answers once N records are durable.
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  auto Fingerprints = [](ServeCore &Core) {
    std::vector<std::vector<std::string>> Fp;
    Fp.push_back(estimateFingerprint(Core, "s0", ""));
    Fp.push_back(estimateFingerprint(Core, "s0", "leaf"));
    return Fp;
  };

  {
    std::string Error;
    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(DirA.Path, FsyncPolicy::Never, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);
    RefAt.push_back(Fingerprints(Core)); // 0 records: no sessions.

    WireMessage Load = makeRequest("load-program", "s0");
    Load.Body = TinySource;
    WireMessage Resp = Core.handle(Load);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    ASSERT_EQ(Store->journal().lastLsn(), 1u); // SessionCreate
    RefAt.push_back(Fingerprints(Core));

    Resp = Core.handle(makeRequest("run", "s0"));
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    ASSERT_EQ(Store->journal().lastLsn(), 2u); // RunExec
    RefAt.push_back(Fingerprints(Core));

    WireMessage Ing = makeRequest("stream-deltas", "s0");
    Ing.Params["describe"] = "1";
    Resp = Core.handle(Ing);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    unsigned N = static_cast<unsigned>(std::stoul(Resp.param("functions")));
    unsigned Leaf = N;
    for (unsigned I = 0; I < N; ++I)
      if (Resp.param("function." + std::to_string(I)) == "leaf")
        Leaf = I;
    ASSERT_LT(Leaf, N);
    WireMessage Deltas = makeRequest("stream-deltas", "s0");
    for (int I = 0; I < 8; ++I)
      appendStreamRecord(Deltas.Body, Leaf, 0, 2.0);
    Deltas.Params["flush"] = "1";
    Resp = Core.handle(Deltas);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    ASSERT_EQ(Store->journal().lastLsn(), 3u); // EpochFold
    RefAt.push_back(Fingerprints(Core));

    WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
    ASSERT_EQ(Cap.Verb, "ok") << Cap.param("message");
    WireMessage Re = makeRequest("ingest-profile", "s0");
    Re.Body = Cap.Body;
    Resp = Core.handle(Re);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    ASSERT_EQ(Store->journal().lastLsn(), 4u); // ProfileIngest
    RefAt.push_back(Fingerprints(Core));

    Resp = Core.handle(makeRequest("run", "s0"));
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    ASSERT_EQ(Store->journal().lastLsn(), 5u); // RunExec
    RefAt.push_back(Fingerprints(Core));
  }

  std::vector<uint8_t> Full = readFileBytes(DirA.Path + "/journal.ptwj");
  ASSERT_GT(Full.size(), 16u);

  TempDir DirB;
  std::string CutPath = DirB.Path + "/journal.ptwj";
  for (size_t Len = 0; Len <= Full.size(); ++Len) {
    SCOPED_TRACE("prefix length " + std::to_string(Len));
    ::unlink(CutPath.c_str());
    ::unlink((CutPath + ".quarantine").c_str());
    writeFileBytes(CutPath, Full.data(), Len);

    std::string Error;
    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(DirB.Path, FsyncPolicy::Never, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    size_t R = Recovered.Records.size();
    ASSERT_LT(R, RefAt.size());

    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);
    ServeCore::RestoreReport RR;
    Core.restore(Recovered, RR);
    EXPECT_EQ(RR.RecordsReplayed, R);
    EXPECT_TRUE(RR.Diagnostics.empty())
        << (RR.Diagnostics.empty() ? "" : RR.Diagnostics.front());
    EXPECT_EQ(Core.sessionCount(), R == 0 ? 0u : 1u);
    EXPECT_EQ(Fingerprints(Core), RefAt[R]);
  }
}

TEST(ServeCoreDurable, CheckpointThenMoreTrafficRecoversAcrossRestart) {
  TempDir Dir;
  std::vector<std::vector<std::string>> Expected;
  {
    std::string Error;
    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);

    WireMessage Load = makeRequest("load-program", "s0");
    Load.Body = TinySource;
    ASSERT_EQ(Core.handle(Load).Verb, "ok");
    ASSERT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");

    // The checkpoint verb snapshots and rotates.
    WireMessage Ck = Core.handle(makeRequest("checkpoint", ""));
    ASSERT_EQ(Ck.Verb, "ok") << Ck.param("message");
    EXPECT_TRUE(fileExists(Dir.Path + "/" + snapshotFileName("s0")));
    EXPECT_EQ(Store->journal().lastLsn(), 2u); // LSNs survive the rotation.
    EXPECT_EQ(Store->journal().sizeBytes(), 16u);

    // Post-checkpoint traffic lands in the fresh journal.
    WireMessage Run2 = makeRequest("run", "s0");
    Run2.Params["runs"] = "2";
    ASSERT_EQ(Core.handle(Run2).Verb, "ok");
    EXPECT_EQ(Store->journal().lastLsn(), 3u);

    Expected.push_back(estimateFingerprint(Core, "s0", ""));
    Expected.push_back(estimateFingerprint(Core, "s0", "leaf"));
  }

  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Recovered.JournalReport.FirstLsn, 3u);
  ASSERT_EQ(Recovered.Snapshots.size(), 1u);
  EXPECT_EQ(Recovered.Snapshots[0].Watermark, 2u);

  ServeOptions Opts;
  Opts.Store = Store.get();
  ServeCore Core(Opts);
  ServeCore::RestoreReport RR;
  Core.restore(Recovered, RR);
  EXPECT_EQ(RR.SessionsRestored, 1u);
  EXPECT_EQ(RR.RecordsReplayed, 1u); // Only the post-checkpoint RunExec.
  EXPECT_EQ(estimateFingerprint(Core, "s0", ""), Expected[0]);
  EXPECT_EQ(estimateFingerprint(Core, "s0", "leaf"), Expected[1]);
}

TEST(ServeCoreDurable, RestoreRebuildsTheSnapshottedProfileAndRunCount) {
  // A snapshot restore rebuilds exactly the state it captured: the same
  // capture-profile bytes, a run count that continues where it stopped,
  // and the same snapshot bytes at the next checkpoint.
  TempDir Dir;
  std::string SnapPath = Dir.Path + "/" + snapshotFileName("s0");
  std::string Captured;
  std::vector<uint8_t> Snapshot;
  {
    std::string Error;
    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(Dir.Path, FsyncPolicy::Never, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);
    WireMessage Load = makeRequest("load-program", "s0");
    Load.Body = TinySource;
    ASSERT_EQ(Core.handle(Load).Verb, "ok");
    WireMessage Run = makeRequest("run", "s0");
    Run.Params["runs"] = "2";
    WireMessage Ran = Core.handle(Run);
    ASSERT_EQ(Ran.Verb, "ok") << Ran.param("message");
    EXPECT_EQ(Ran.param("runs"), "2");
    ASSERT_EQ(Core.handle(makeRequest("checkpoint", "")).Verb, "ok");
    WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
    ASSERT_EQ(Cap.Verb, "ok") << Cap.param("message");
    Captured = Cap.Body;
    Snapshot = readFileBytes(SnapPath);
    ASSERT_FALSE(Snapshot.empty());
  }

  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Never, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  ServeOptions Opts;
  Opts.Store = Store.get();
  ServeCore Core(Opts);
  ServeCore::RestoreReport RR;
  Core.restore(Recovered, RR);
  ASSERT_EQ(RR.SessionsRestored, 1u);
  EXPECT_EQ(RR.RecordsReplayed, 0u);
  WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(Cap.Verb, "ok") << Cap.param("message");
  EXPECT_EQ(Cap.Body, Captured);
  ASSERT_EQ(Core.handle(makeRequest("checkpoint", "")).Verb, "ok");
  EXPECT_EQ(readFileBytes(SnapPath), Snapshot);
  WireMessage Ran = Core.handle(makeRequest("run", "s0"));
  ASSERT_EQ(Ran.Verb, "ok") << Ran.param("message");
  EXPECT_EQ(Ran.param("runs"), "3");
}

TEST(ServeCoreDurable, EvictedSessionStaysDeadAcrossRestart) {
  TempDir Dir;
  {
    std::string Error;
    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
    ASSERT_TRUE(Store) << Error;
    ServeOptions Opts;
    Opts.Store = Store.get();
    Opts.MaxSessions = 1;
    ServeCore Core(Opts);
    for (const char *Name : {"s0", "s1"}) {
      WireMessage Load = makeRequest("load-program", Name);
      Load.Body = TinySource;
      ASSERT_EQ(Core.handle(Load).Verb, "ok");
    }
    EXPECT_EQ(Core.sessionCount(), 1u); // s0 was evicted by s1.
  }

  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.MaxSessions = 1;
  ServeCore Core(Opts);
  ServeCore::RestoreReport RR;
  Core.restore(Recovered, RR);
  EXPECT_EQ(Core.sessionCount(), 1u);
  EXPECT_EQ(Core.handle(makeRequest("estimate", "s1")).Verb, "ok");
  WireMessage Dead = Core.handle(makeRequest("estimate", "s0"));
  EXPECT_EQ(Dead.Verb, "error");
  EXPECT_EQ(Dead.param("code"), "unknown-session");
}

TEST(ServeCoreDurable, SaturationMarksSurviveRestartAndRecheckpoint) {
  // A SaturationMark in the journal (and a Saturated list in a snapshot)
  // must restore the lower-bound diagnostic: the obs counter reappears
  // and the next checkpoint's snapshot carries the mark forward.
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Always, Recovered, Error);
  ASSERT_TRUE(Store) << Error;

  StateStore::Recovery Synthetic;
  {
    DurableRecord Create;
    Create.Type = RecordType::SessionCreate;
    Create.Lsn = 1;
    Create.Session = "s0";
    Create.Source = TinySource;
    Create.Mode = 3; // Smart
    Synthetic.Records.push_back(Create);
    DurableRecord Mark;
    Mark.Type = RecordType::SaturationMark;
    Mark.Lsn = 2;
    Mark.Session = "s0";
    Mark.FunctionName = "leaf";
    Synthetic.Records.push_back(Mark);
  }

  ObsRegistry Obs;
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Obs = &Obs;
  ServeCore Core(Opts);
  ServeCore::RestoreReport RR;
  Core.restore(Synthetic, RR);
  ASSERT_EQ(Core.sessionCount(), 1u);
  EXPECT_TRUE(RR.Diagnostics.empty())
      << (RR.Diagnostics.empty() ? "" : RR.Diagnostics.front());
  // The restored mark re-raised the saturation diagnostic.
  EXPECT_EQ(Obs.counterValue("session.saturated_functions"), 1u);

  // And a checkpoint rolls it into the snapshot, so it survives a SECOND
  // restart through the snapshot path too.
  ASSERT_TRUE(Core.checkpoint(Error)) << Error;
  DurableSessionState Snap;
  uint64_t Watermark = 0;
  ASSERT_TRUE(readSnapshotFile(Dir.Path + "/" + snapshotFileName("s0"), Snap,
                               Watermark, Error))
      << Error;
  ASSERT_EQ(Snap.Saturated.size(), 1u);
  EXPECT_EQ(Snap.Saturated[0], "leaf");

  ObsRegistry Obs2;
  ServeOptions Opts2;
  Opts2.Obs = &Obs2;
  ServeCore Core2(Opts2);
  StateStore::Recovery FromSnap;
  StateStore::RecoveredSession RS;
  RS.State = Snap;
  RS.Watermark = Watermark;
  FromSnap.Snapshots.push_back(RS);
  ServeCore::RestoreReport RR2;
  Core2.restore(FromSnap, RR2);
  ASSERT_EQ(Core2.sessionCount(), 1u);
  EXPECT_EQ(Obs2.counterValue("session.saturated_functions"), 1u);
}
