//===--- tests/repl_test.cpp - Warm-standby replication tests -------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for journal shipping and the warm standby: the journal's
/// replication primitives (readFrames/appendRaw/resetTo) round-trip
/// byte-identically and reject every truncation, a read-only ServeCore
/// refuses exactly the mutating verbs, bootstrap capture/adopt reproduces
/// estimates, a socketpair-connected shipper/standby pair catches up live
/// (including across a rotation-forced bootstrap) and promotes into a
/// writable primary whose answers match the reference byte-for-byte, the
/// standby's journal cut at EVERY byte length restores the reference
/// estimates or quarantines only the torn tail, injected crashes at the
/// standby apply path leave a recoverable store, and the adaptive flusher
/// seals a hot stream epoch before the timer cadence. The ubsan preset
/// reruns this binary to drive the frame validators over garbled input.
///
//===----------------------------------------------------------------------===//

#include "durable/Journal.h"
#include "durable/StateStore.h"
#include "obs/Observability.h"
#include "repl/Replication.h"
#include "repl/Standby.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "support/Bytes.h"
#include "support/FaultInjection.h"
#include "support/Retry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;
using namespace ptran::serve;
using namespace ptran::repl;

namespace {

//===--- helpers ----------------------------------------------------------===//

/// A fresh directory under /tmp, recursively removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ptran-repl-XXXXXX";
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

/// Polls \p Cond every few ms until it holds or \p Ms elapse.
bool waitFor(const std::function<bool()> &Cond, int Ms = 10000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Cond();
}

/// Same shape as durable_test's TinySource: calls, loops, a branch.
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

/// The full-precision estimate answer for (session, function): what two
/// daemons whose state agrees must reproduce byte-for-byte.
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

std::vector<std::vector<std::string>> fingerprints(ServeCore &Core) {
  std::vector<std::vector<std::string>> Fp;
  Fp.push_back(estimateFingerprint(Core, "s0", ""));
  Fp.push_back(estimateFingerprint(Core, "s0", "leaf"));
  return Fp;
}

/// Finds the stream cell index of function "leaf" via a describe request.
unsigned leafIndex(ServeCore &Core) {
  WireMessage Req = makeRequest("stream-deltas", "s0");
  Req.Params["describe"] = "1";
  WireMessage Resp = Core.handle(Req);
  EXPECT_EQ(Resp.Verb, "ok") << Resp.param("message");
  unsigned N = static_cast<unsigned>(std::stoul(Resp.param("functions")));
  for (unsigned I = 0; I < N; ++I)
    if (Resp.param("function." + std::to_string(I)) == "leaf")
      return I;
  ADD_FAILURE() << "no leaf function in describe";
  return 0;
}

/// Drives the standard journaled mutation sequence (5 records) against
/// \p Core, recording the fingerprint after each into \p RefAt (which
/// starts with the 0-record state).
void driveReference(ServeCore &Core, DeltaJournal &Journal,
                    std::vector<std::vector<std::vector<std::string>>> &RefAt) {
  RefAt.push_back(fingerprints(Core));

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  WireMessage Resp = Core.handle(Load);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  ASSERT_EQ(Journal.lastLsn(), 1u); // SessionCreate
  RefAt.push_back(fingerprints(Core));

  Resp = Core.handle(makeRequest("run", "s0"));
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  ASSERT_EQ(Journal.lastLsn(), 2u); // RunExec
  RefAt.push_back(fingerprints(Core));

  unsigned Leaf = leafIndex(Core);
  WireMessage Deltas = makeRequest("stream-deltas", "s0");
  for (int I = 0; I < 8; ++I)
    appendStreamRecord(Deltas.Body, Leaf, 0, 2.0);
  Deltas.Params["flush"] = "1";
  Resp = Core.handle(Deltas);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  ASSERT_EQ(Journal.lastLsn(), 3u); // EpochFold
  RefAt.push_back(fingerprints(Core));

  WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(Cap.Verb, "ok") << Cap.param("message");
  WireMessage Re = makeRequest("ingest-profile", "s0");
  Re.Body = Cap.Body;
  Resp = Core.handle(Re);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  ASSERT_EQ(Journal.lastLsn(), 4u); // ProfileIngest
  RefAt.push_back(fingerprints(Core));

  Resp = Core.handle(makeRequest("run", "s0"));
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  ASSERT_EQ(Journal.lastLsn(), 5u); // RunExec
  RefAt.push_back(fingerprints(Core));
}

/// Forks, runs \p Child, and expects it to die at an injected crash point
/// (_exit(42)). A child that survives exits 7 and fails the expectation.
void expectInjectedCrash(const std::function<void()> &Child) {
  ::fflush(nullptr);
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

//===--- ack-mode parsing --------------------------------------------------===//

TEST(AckMode, ParsesTheThreeLevelsAndRejectsGarbage) {
  EXPECT_EQ(parseAckMode("none"), AckMode::None);
  EXPECT_EQ(parseAckMode("batch"), AckMode::Batch);
  EXPECT_EQ(parseAckMode("always"), AckMode::Always);
  EXPECT_EQ(parseAckMode("ALWAYS"), AckMode::Always); // Case-insensitive.
  EXPECT_FALSE(parseAckMode("").has_value());
  EXPECT_FALSE(parseAckMode("sometimes").has_value());
  EXPECT_STREQ(ackModeName(AckMode::None), "none");
  EXPECT_STREQ(ackModeName(AckMode::Batch), "batch");
  EXPECT_STREQ(ackModeName(AckMode::Always), "always");
}

//===--- journal replication primitives -----------------------------------===//

namespace {

DurableRecord makeMark(const std::string &Session) {
  DurableRecord R;
  R.Type = RecordType::SaturationMark;
  R.Session = Session;
  return R;
}

} // namespace

TEST(JournalShipping, ReadFramesRoundTripsByteIdenticallyThroughAppendRaw) {
  TempDir DirA, DirB;
  std::string PathA = DirA.Path + "/journal.ptwj";
  std::string PathB = DirB.Path + "/journal.ptwj";
  std::string Error;
  DeltaJournal::OpenReport Report;
  auto A = DeltaJournal::open(PathA, FsyncPolicy::Always, Report, nullptr,
                              Error);
  ASSERT_TRUE(A) << Error;
  for (uint64_t I = 1; I <= 3; ++I)
    ASSERT_EQ(A->append(makeMark("s" + std::to_string(I)), Error), I);

  DeltaJournal::ReadCursor Cursor;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  ASSERT_EQ(A->readFrames(Cursor, 1 << 20, 512, Raw, Count, Error),
            DeltaJournal::ReadResult::Ok)
      << Error;
  EXPECT_EQ(Count, 3u);
  EXPECT_EQ(Cursor.NextLsn, 4u);
  EXPECT_FALSE(Raw.empty());

  // The cursor is now at the tail.
  std::vector<uint8_t> More;
  uint32_t MoreCount = 0;
  EXPECT_EQ(A->readFrames(Cursor, 1 << 20, 512, More, MoreCount, Error),
            DeltaJournal::ReadResult::AtEnd);

  // Replaying the raw frames into a fresh journal reproduces the file
  // byte-for-byte — the property that makes a promoted standby's journal
  // interchangeable with the primary's.
  auto B = DeltaJournal::open(PathB, FsyncPolicy::Always, Report, nullptr,
                              Error);
  ASSERT_TRUE(B) << Error;
  std::vector<DurableRecord> Records;
  ASSERT_TRUE(B->appendRaw(Raw.data(), Raw.size(), 1, 3, &Records, Error))
      << Error;
  ASSERT_EQ(Records.size(), 3u);
  EXPECT_EQ(Records[0].Lsn, 1u);
  EXPECT_EQ(Records[2].Lsn, 3u);
  EXPECT_EQ(B->nextLsn(), 4u);
  EXPECT_EQ(readFileBytes(PathA), readFileBytes(PathB));

  // A batch cap slices the stream without losing records.
  DeltaJournal::ReadCursor Capped;
  Raw.clear();
  ASSERT_EQ(A->readFrames(Capped, 1 << 20, 2, Raw, Count, Error),
            DeltaJournal::ReadResult::Ok);
  EXPECT_EQ(Count, 2u);
  EXPECT_EQ(Capped.NextLsn, 3u);
  Raw.clear();
  ASSERT_EQ(A->readFrames(Capped, 1 << 20, 2, Raw, Count, Error),
            DeltaJournal::ReadResult::Ok);
  EXPECT_EQ(Count, 1u);
}

TEST(JournalShipping, RotationMovesCursorsToRotatedAndResetAdoptsTheBase) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";
  std::string Error;
  DeltaJournal::OpenReport Report;
  auto J =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, nullptr, Error);
  ASSERT_TRUE(J) << Error;
  ASSERT_EQ(J->append(makeMark("s0"), Error), 1u);
  ASSERT_EQ(J->append(makeMark("s0"), Error), 2u);
  ASSERT_TRUE(J->rotate(Error)) << Error;

  // A cursor still wanting LSN 1 finds the records gone: bootstrap time.
  DeltaJournal::ReadCursor Stale;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  EXPECT_EQ(J->readFrames(Stale, 1 << 20, 512, Raw, Count, Error),
            DeltaJournal::ReadResult::Rotated);

  // resetTo adopts a foreign LSN base (the standby adopting the primary's
  // snapshot watermark), discarding local records.
  ASSERT_TRUE(J->resetTo(101, Error)) << Error;
  EXPECT_EQ(J->nextLsn(), 101u);
  EXPECT_EQ(J->sizeBytes(), 16u);
  EXPECT_EQ(J->append(makeMark("s0"), Error), 101u);
  J.reset();

  std::vector<DurableRecord> Records;
  auto J2 =
      DeltaJournal::open(Path, FsyncPolicy::Always, Report, &Records, Error);
  ASSERT_TRUE(J2) << Error;
  EXPECT_EQ(Report.FirstLsn, 101u);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Lsn, 101u);
}

TEST(JournalShipping, AppendRawRejectsEveryTruncationWithoutWriting) {
  // Validation property (rerun under UBSan): a frame batch cut at every
  // byte length, a wrong LSN base, a wrong count, and a flipped body byte
  // must all be rejected before ANY byte lands in the journal.
  TempDir DirA;
  std::string Error;
  DeltaJournal::OpenReport Report;
  auto A = DeltaJournal::open(DirA.Path + "/journal.ptwj",
                              FsyncPolicy::Always, Report, nullptr, Error);
  ASSERT_TRUE(A) << Error;
  for (uint64_t I = 1; I <= 3; ++I)
    ASSERT_EQ(A->append(makeMark("sess-" + std::to_string(I)), Error), I);
  DeltaJournal::ReadCursor Cursor;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  ASSERT_EQ(A->readFrames(Cursor, 1 << 20, 512, Raw, Count, Error),
            DeltaJournal::ReadResult::Ok);
  ASSERT_EQ(Count, 3u);

  TempDir DirB;
  auto B = DeltaJournal::open(DirB.Path + "/journal.ptwj",
                              FsyncPolicy::Never, Report, nullptr, Error);
  ASSERT_TRUE(B) << Error;
  for (size_t Len = 0; Len < Raw.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(B->appendRaw(Raw.data(), Len, 1, 3, nullptr, Err))
        << "prefix length " << Len << " was accepted";
    EXPECT_EQ(B->nextLsn(), 1u);
    EXPECT_EQ(B->sizeBytes(), 16u);
  }
  std::string Err;
  EXPECT_FALSE(B->appendRaw(Raw.data(), Raw.size(), 2, 3, nullptr, Err));
  EXPECT_FALSE(B->appendRaw(Raw.data(), Raw.size(), 1, 2, nullptr, Err));
  std::vector<uint8_t> Flipped = Raw;
  Flipped[Flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(
      B->appendRaw(Flipped.data(), Flipped.size(), 1, 3, nullptr, Err));
  EXPECT_EQ(B->nextLsn(), 1u);

  // The pristine batch still lands afterwards: rejection left no residue.
  EXPECT_TRUE(B->appendRaw(Raw.data(), Raw.size(), 1, 3, nullptr, Err))
      << Err;
  EXPECT_EQ(B->nextLsn(), 4u);
}

//===--- read-only core + promote verb -------------------------------------===//

TEST(ReadOnlyCore, RefusesExactlyTheMutatingVerbs) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Recovered;
  auto Store =
      StateStore::open(Dir.Path, FsyncPolicy::Never, Recovered, Error);
  ASSERT_TRUE(Store) << Error;
  ObsRegistry Obs;
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Obs = &Obs;
  ServeCore Core(Opts);

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  ASSERT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");
  uint64_t LsnBefore = Store->journal().lastLsn();

  Core.setReadOnly(true);
  for (const char *Verb :
       {"load-program", "run", "ingest-profile", "checkpoint"}) {
    WireMessage Resp = Core.handle(makeRequest(Verb, "s0"));
    EXPECT_EQ(Resp.Verb, "error") << Verb;
    EXPECT_EQ(Resp.param("code"), "read-only") << Verb;
  }
  WireMessage Append = makeRequest("stream-deltas", "s0");
  appendStreamRecord(Append.Body, 0, 0, 1.0);
  EXPECT_EQ(Core.handle(Append).param("code"), "read-only");

  // Reads still flow: estimate, stats, and the describe form of
  // stream-deltas (it only serves the cell-address table).
  EXPECT_EQ(Core.handle(makeRequest("estimate", "s0")).Verb, "ok");
  EXPECT_EQ(Core.handle(makeRequest("stats", "")).Verb, "ok");
  WireMessage Describe = makeRequest("stream-deltas", "s0");
  Describe.Params["describe"] = "1";
  EXPECT_EQ(Core.handle(Describe).Verb, "ok");

  EXPECT_EQ(Store->journal().lastLsn(), LsnBefore);
  EXPECT_GE(Obs.counterValue("serve.read-only-rejects"), 5u);

  Core.setReadOnly(false);
  EXPECT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");
}

TEST(ReadOnlyCore, PromoteVerbRoutesThroughTheCallback) {
  ServeOptions NoPromote;
  ServeCore Plain(NoPromote);
  WireMessage Resp = Plain.handle(makeRequest("promote", ""));
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");

  bool Called = false;
  ServeOptions WithPromote;
  WithPromote.Promote = [&Called](std::string &) {
    Called = true;
    return true;
  };
  ServeCore Standby(WithPromote);
  Resp = Standby.handle(makeRequest("promote", ""));
  EXPECT_EQ(Resp.Verb, "ok");
  EXPECT_EQ(Resp.param("role"), "primary");
  EXPECT_TRUE(Called);

  ServeOptions Failing;
  Failing.Promote = [](std::string &Err) {
    Err = "mid-bootstrap";
    return false;
  };
  ServeCore Refusing(Failing);
  Resp = Refusing.handle(makeRequest("promote", ""));
  EXPECT_EQ(Resp.param("code"), "promote-failed");
}

//===--- bootstrap capture/adopt -------------------------------------------===//

TEST(Bootstrap, CaptureAdoptRoundTripReproducesEstimates) {
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);

  ServeCore::BootstrapCapture Capture;
  ASSERT_TRUE(A.captureBootstrap(Capture, Error)) << Error;
  EXPECT_EQ(Capture.Watermark, 5u);
  ASSERT_EQ(Capture.Snapshots.size(), 1u);
  EXPECT_EQ(Capture.Snapshots[0].Session, "s0");

  ServeOptions OptsB;
  OptsB.Store = StoreB.get();
  ServeCore B(OptsB);
  std::vector<std::string> Diagnostics;
  ASSERT_TRUE(
      B.adoptSnapshotImage(Capture.Snapshots[0].Image, Diagnostics, Error))
      << Error;
  EXPECT_TRUE(Diagnostics.empty());
  ASSERT_TRUE(StoreB->journal().resetTo(Capture.Watermark + 1, Error))
      << Error;

  EXPECT_EQ(fingerprints(B), RefAt.back());
  EXPECT_EQ(B.sessionCount(), 1u);
  // The image carries the primary's whole profile, ingested one included,
  // so the standby's capture-profile answers byte for byte alike.
  WireMessage CapA = A.handle(makeRequest("capture-profile", "s0"));
  WireMessage CapB = B.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(CapA.Verb, "ok") << CapA.param("message");
  ASSERT_EQ(CapB.Verb, "ok") << CapB.param("message");
  EXPECT_EQ(CapB.Body, CapA.Body);

  // The adopted image was persisted BEFORE registration: a fresh store
  // restores the session without ever seeing a journal record.
  B.clearAllSessions();
  EXPECT_EQ(B.sessionCount(), 0u);
  StateStore::Recovery RecB2;
  auto StoreB2 =
      StateStore::open(DirB.Path, FsyncPolicy::Never, RecB2, Error);
  ASSERT_TRUE(StoreB2) << Error;
  ServeOptions OptsB2;
  OptsB2.Store = StoreB2.get();
  ServeCore B2(OptsB2);
  ServeCore::RestoreReport RR;
  B2.restore(RecB2, RR);
  EXPECT_EQ(RR.SessionsRestored, 1u);
  EXPECT_EQ(fingerprints(B2), RefAt.back());
}

//===--- applyReplicatedBatch ----------------------------------------------===//

TEST(ApplyBatch, ShippedFramesReplayToTheReferenceEstimates) {
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);

  ServeOptions OptsB;
  OptsB.Store = StoreB.get();
  ServeCore B(OptsB);
  B.setReadOnly(true);

  // Apply the journal one record per batch, checking the standby tracks
  // the reference at every step.
  DeltaJournal::ReadCursor Cursor;
  for (size_t Step = 1; Step <= 5; ++Step) {
    std::vector<uint8_t> Raw;
    uint32_t Count = 0;
    ASSERT_EQ(StoreA->journal().readFrames(Cursor, 1 << 20, 1, Raw, Count,
                                           Error),
              DeltaJournal::ReadResult::Ok)
        << Error;
    ASSERT_EQ(Count, 1u);
    uint64_t Applied = 0;
    std::vector<std::string> Diagnostics;
    ASSERT_TRUE(B.applyReplicatedBatch(Raw.data(), Raw.size(), Step, 1,
                                       /*Sync=*/false, Applied, Diagnostics,
                                       Error))
        << Error;
    EXPECT_EQ(Applied, Step);
    EXPECT_TRUE(Diagnostics.empty())
        << (Diagnostics.empty() ? "" : Diagnostics.front());
    EXPECT_EQ(fingerprints(B), RefAt[Step]) << "after record " << Step;
  }
  // Both journals now hold the identical record run.
  EXPECT_EQ(readFileBytes(DirA.Path + "/journal.ptwj"),
            readFileBytes(DirB.Path + "/journal.ptwj"));
}

//===--- shipper hooks -----------------------------------------------------===//

TEST(Shipper, WaitDurableDegradesWithoutSubscribers) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;
  JournalShipper::Options O;
  O.Store = Store.get();
  O.Ack = AckMode::Always;
  O.AckWaitMs = 50;
  JournalShipper Shipper(O);
  EXPECT_EQ(Shipper.minSubscriberLsn(), ~0ull);
  // No standby is subscribed: blocking a mutation forever on a durability
  // promise nobody can fulfill would wedge the primary, so the wait
  // degrades to an immediate success.
  auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Shipper.waitDurable(7));
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(500));

  JournalShipper::Options N = O;
  N.Ack = AckMode::None;
  JournalShipper NoAck(N);
  EXPECT_TRUE(NoAck.waitDurable(7));
}

namespace {

struct FakeHooks : serve::ReplicationHooks {
  std::atomic<uint64_t> Min{~0ull};
  bool waitDurable(uint64_t) override { return true; }
  uint64_t minSubscriberLsn() override { return Min.load(); }
};

} // namespace

TEST(RotationGuard, CheckpointDefersRotationWhileASubscriberLags) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;
  FakeHooks Hooks;
  ObsRegistry Obs;
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Repl = &Hooks;
  Opts.Obs = &Obs;
  ServeCore Core(Opts);

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  ASSERT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");
  uint64_t Tail = Store->journal().lastLsn();
  ASSERT_GE(Tail, 2u);

  // A subscriber still needs LSN 1: the checkpoint must keep the journal.
  Hooks.Min.store(1);
  ASSERT_TRUE(Core.checkpoint(Error)) << Error;
  EXPECT_EQ(Obs.counterValue("repl.rotations_deferred"), 1u);
  EXPECT_EQ(Store->journal().nextLsn(), Tail + 1);
  EXPECT_GT(Store->journal().sizeBytes(), 16u); // Records still present.

  // Everyone caught up: the next checkpoint rotates as usual.
  Hooks.Min.store(~0ull);
  ASSERT_TRUE(Core.checkpoint(Error)) << Error;
  EXPECT_EQ(Store->journal().sizeBytes(), 16u);
  EXPECT_EQ(Store->journal().nextLsn(), Tail + 1);
}

//===--- live shipper <-> standby over socketpairs -------------------------===//

namespace {

/// An in-process primary endpoint: every connect() yields the client end
/// of a fresh socketpair whose server end is pumped through
/// JournalShipper::runSubscription on its own thread — exactly the
/// daemon's connection-thread arrangement, minus the listener.
struct FakePrimary {
  JournalShipper Shipper;
  std::vector<std::thread> Threads;
  std::mutex Mu;

  explicit FakePrimary(const JournalShipper::Options &O) : Shipper(O) {}
  ~FakePrimary() {
    Shipper.stop();
    std::lock_guard<std::mutex> L(Mu);
    for (std::thread &T : Threads)
      T.join();
  }

  int connect(std::string &Error) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) < 0) {
      Error = "socketpair failed";
      return -1;
    }
    std::lock_guard<std::mutex> L(Mu);
    Threads.emplace_back([this, Fd = Sv[0]] {
      WireMessage Sub;
      std::string Err;
      if (readFrame(Fd, Sub, Err) == 1 && Sub.Verb == "repl-subscribe")
        Shipper.runSubscription(Fd, Sub);
      ::close(Fd);
    });
    return Sv[1];
  }
};

} // namespace

TEST(LiveReplication, StandbyCatchesUpAndPromotesToTheReferenceAnswers) {
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ObsRegistry ObsA, ObsB;
  JournalShipper::Options ShipOpts;
  ShipOpts.Store = StoreA.get();
  ShipOpts.Ack = AckMode::Batch;
  ShipOpts.Obs = &ObsA;
  FakePrimary Primary(ShipOpts);

  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  OptsA.Obs = &ObsA;
  OptsA.Repl = &Primary.Shipper;
  ServeCore A(OptsA);
  Primary.Shipper.setCore(&A);

  // Half the traffic lands before the standby exists (catch-up), half
  // after (live tail).
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  RefAt.push_back(fingerprints(A));
  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(A.handle(Load).Verb, "ok");
  ASSERT_EQ(A.handle(makeRequest("run", "s0")).Verb, "ok");
  ASSERT_EQ(StoreA->journal().lastLsn(), 2u);

  ServeOptions OptsB;
  OptsB.Store = StoreB.get();
  OptsB.Obs = &ObsB;
  ServeCore B(OptsB);
  StandbyReplicator::Options StandbyOpts;
  StandbyOpts.Core = &B;
  StandbyOpts.Store = StoreB.get();
  StandbyOpts.Ack = AckMode::Batch;
  StandbyOpts.Obs = &ObsB;
  StandbyOpts.Backoff =
      RetryPolicy().retries(1u << 30).baseDelay(std::chrono::milliseconds(1));
  StandbyOpts.Connect = [&Primary](std::string &Err) {
    return Primary.connect(Err);
  };
  StandbyReplicator Standby(StandbyOpts);
  ASSERT_TRUE(Standby.start(Error)) << Error;

  ASSERT_TRUE(waitFor([&] { return Standby.lastAppliedLsn() >= 2; }))
      << "standby never caught up to LSN 2 (got "
      << Standby.lastAppliedLsn() << ")";
  EXPECT_TRUE(B.isReadOnly());
  EXPECT_EQ(fingerprints(B), fingerprints(A));

  // Live tail: more primary traffic while the subscription is up.
  unsigned Leaf = leafIndex(A);
  WireMessage Deltas = makeRequest("stream-deltas", "s0");
  for (int I = 0; I < 8; ++I)
    appendStreamRecord(Deltas.Body, Leaf, 0, 2.0);
  Deltas.Params["flush"] = "1";
  ASSERT_EQ(A.handle(Deltas).Verb, "ok");
  ASSERT_EQ(A.handle(makeRequest("run", "s0")).Verb, "ok");
  uint64_t Tail = StoreA->journal().lastLsn();

  ASSERT_TRUE(waitFor([&] { return Standby.lastAppliedLsn() >= Tail; }))
      << "standby never reached the live tail " << Tail;
  EXPECT_EQ(fingerprints(B), fingerprints(A));
  // Batch mode: acks flowed back and reported the applied LSN.
  EXPECT_TRUE(waitFor(
      [&] { return ObsA.counterValue("repl.acks_received") >= 1; }));

  // The standby's journal is byte-identical to the primary's: the frames
  // crossed the wire untouched.
  EXPECT_TRUE(waitFor([&] {
    return readFileBytes(DirB.Path + "/journal.ptwj") ==
           readFileBytes(DirA.Path + "/journal.ptwj");
  }));

  // Failover: the primary "dies" (shipper stops), the standby promotes
  // and answers — and accepts writes — exactly like the primary did.
  auto RefFinal = fingerprints(A);
  Primary.Shipper.stop();
  ASSERT_TRUE(Standby.promote(Error)) << Error;
  EXPECT_TRUE(Standby.promoted());
  EXPECT_FALSE(B.isReadOnly());
  EXPECT_EQ(fingerprints(B), RefFinal);
  EXPECT_EQ(B.handle(makeRequest("run", "s0")).Verb, "ok");
  EXPECT_EQ(StoreB->journal().lastLsn(), Tail + 1);
}

TEST(LiveReplication, RotatedPrimaryBootstrapsTheStandby) {
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ObsRegistry ObsA, ObsB;
  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  OptsA.Obs = &ObsA;
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);

  // Checkpoint + rotate BEFORE any standby exists: the journaled history
  // is gone, so a fresh subscriber can only be served by bootstrap.
  ASSERT_TRUE(A.checkpoint(Error)) << Error;
  ASSERT_EQ(StoreA->journal().sizeBytes(), 16u);

  JournalShipper::Options ShipOpts;
  ShipOpts.Store = StoreA.get();
  ShipOpts.Core = &A;
  ShipOpts.Obs = &ObsA;
  FakePrimary Primary(ShipOpts);

  ServeOptions OptsB;
  OptsB.Store = StoreB.get();
  OptsB.Obs = &ObsB;
  ServeCore B(OptsB);
  StandbyReplicator::Options StandbyOpts;
  StandbyOpts.Core = &B;
  StandbyOpts.Store = StoreB.get();
  StandbyOpts.Obs = &ObsB;
  StandbyOpts.Backoff =
      RetryPolicy().retries(1u << 30).baseDelay(std::chrono::milliseconds(1));
  StandbyOpts.Connect = [&Primary](std::string &Err) {
    return Primary.connect(Err);
  };
  StandbyReplicator Standby(StandbyOpts);
  ASSERT_TRUE(Standby.start(Error)) << Error;

  uint64_t Watermark = StoreA->journal().lastLsn();
  ASSERT_TRUE(
      waitFor([&] { return Standby.lastAppliedLsn() >= Watermark; }))
      << "standby never bootstrapped to watermark " << Watermark;
  EXPECT_EQ(fingerprints(B), RefAt.back());
  EXPECT_GE(ObsB.counterValue("repl.bootstraps_applied"), 1u);
  EXPECT_GE(ObsA.counterValue("repl.bootstraps_sent"), 1u);
  EXPECT_EQ(StoreB->journal().nextLsn(), Watermark + 1);

  // Streaming resumes at the watermark: post-bootstrap traffic arrives as
  // plain frames.
  ASSERT_EQ(A.handle(makeRequest("run", "s0")).Verb, "ok");
  ASSERT_TRUE(
      waitFor([&] { return Standby.lastAppliedLsn() >= Watermark + 1; }));
  EXPECT_EQ(fingerprints(B), fingerprints(A));
}

TEST(LiveReplication, ClosedLoopAckAlwaysWritesPayNoPollingFloor) {
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ObsRegistry ObsA, ObsB;
  JournalShipper::Options ShipOpts;
  ShipOpts.Store = StoreA.get();
  ShipOpts.Ack = AckMode::Always;
  ShipOpts.Obs = &ObsA;
  FakePrimary Primary(ShipOpts);

  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  OptsA.Obs = &ObsA;
  OptsA.Repl = &Primary.Shipper;
  ServeCore A(OptsA);
  Primary.Shipper.setCore(&A);
  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(A.handle(Load).Verb, "ok");

  ServeOptions OptsB;
  OptsB.Store = StoreB.get();
  OptsB.Obs = &ObsB;
  ServeCore B(OptsB);
  StandbyReplicator::Options StandbyOpts;
  StandbyOpts.Core = &B;
  StandbyOpts.Store = StoreB.get();
  StandbyOpts.Ack = AckMode::Always;
  StandbyOpts.Obs = &ObsB;
  StandbyOpts.Backoff =
      RetryPolicy().retries(1u << 30).baseDelay(std::chrono::milliseconds(1));
  StandbyOpts.Connect = [&Primary](std::string &Err) {
    return Primary.connect(Err);
  };
  StandbyReplicator Standby(StandbyOpts);
  ASSERT_TRUE(Standby.start(Error)) << Error;
  ASSERT_TRUE(waitFor([&] {
    return Primary.Shipper.subscriberCount() == 1 &&
           Standby.lastAppliedLsn() >= 1;
  }));

  // One writer, each append waiting for its ack before the next: the
  // shipper is idle whenever an append lands, so a lost wake-up would cost
  // every write a full polling tick.
  constexpr int Writes = 40;
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < Writes; ++I) {
    ASSERT_EQ(A.handle(makeRequest("run", "s0")).Verb, "ok");
    // ack=always: the answer came after the standby fsynced the record.
    ASSERT_GE(Standby.lastAppliedLsn(), StoreA->journal().lastLsn());
  }
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_LT(Elapsed, std::chrono::seconds(1))
      << Writes << " acknowledged writes took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
             .count()
      << " ms";
  EXPECT_EQ(ObsA.counterValue("repl.ack_timeouts"), 0u);
}

TEST(LiveReplication, AStalledStandbyStallsOnlyTheWaitingRequest) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;

  ObsRegistry Obs;
  JournalShipper::Options ShipOpts;
  ShipOpts.Store = Store.get();
  ShipOpts.Ack = AckMode::Always;
  ShipOpts.Obs = &Obs;
  ShipOpts.AckWaitMs = 2000;
  JournalShipper Shipper(ShipOpts);
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Obs = &Obs;
  Opts.Repl = &Shipper;
  ServeCore Core(Opts);
  Shipper.setCore(&Core);

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  const unsigned Leaf = leafIndex(Core);

  // A subscriber that takes every frame and never acks: each ack=always
  // request waits out AckWaitMs. Past this point only EXPECTs, so a
  // failure still reaches the joins below.
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  WireMessage Subscribe;
  Subscribe.Verb = "repl-subscribe";
  Subscribe.Params["from-lsn"] = std::to_string(Store->journal().nextLsn());
  std::thread ShipperThread([&] { Shipper.runSubscription(Sv[0], Subscribe); });
  std::thread Sink([&] {
    WireMessage M;
    std::string Err;
    while (readFrame(Sv[1], M, Err) == 1) {
    }
  });
  EXPECT_TRUE(waitFor([&] { return Shipper.subscriberCount() == 1; }));

  const auto Bound = std::chrono::milliseconds(ShipOpts.AckWaitMs / 4);
  auto Timed = [&](const WireMessage &Req) {
    auto Start = std::chrono::steady_clock::now();
    WireMessage Resp = Core.handle(Req);
    EXPECT_EQ(Resp.Verb, "ok") << Req.Verb << ": " << Resp.param("message");
    return std::chrono::steady_clock::now() - Start;
  };
  EXPECT_EQ(Core.handle(makeRequest("estimate", "s0")).Verb, "ok");

  // A load-program of another session waits for its ack; an estimate on
  // s0 must not queue behind it on the registry lock.
  uint64_t Before = Store->journal().lastLsn();
  WireMessage LoadB = makeRequest("load-program", "s1");
  LoadB.Body = TinySource;
  std::thread Loader([&] { EXPECT_EQ(Core.handle(LoadB).Verb, "ok"); });
  EXPECT_TRUE(waitFor([&] { return Store->journal().lastLsn() > Before; }));
  EXPECT_LT(Timed(makeRequest("estimate", "s0")), Bound);
  Loader.join();
  EXPECT_EQ(Obs.counterValue("repl.ack_timeouts"), 1u);

  // A checkpoint whose stream fold waits for its ack: neither an estimate
  // nor a stream flush of s1 (which needs the structure lock the
  // checkpoint held exclusively, and has no fold of its own to wait for)
  // may wait for it.
  WireMessage Deltas = makeRequest("stream-deltas", "s0");
  for (int I = 0; I < 8; ++I)
    appendStreamRecord(Deltas.Body, Leaf, 0, 2.0);
  EXPECT_EQ(Core.handle(Deltas).Verb, "ok");
  Before = Store->journal().lastLsn();
  std::thread Checkpointer(
      [&] { EXPECT_EQ(Core.handle(makeRequest("checkpoint", "")).Verb, "ok"); });
  EXPECT_TRUE(waitFor([&] { return Store->journal().lastLsn() > Before; }));
  EXPECT_LT(Timed(makeRequest("estimate", "s0")), Bound);
  WireMessage Flush = makeRequest("stream-deltas", "s1");
  Flush.Params["flush"] = "1";
  EXPECT_LT(Timed(Flush), Bound);
  Checkpointer.join();
  // One wait per request, however many records it appended.
  EXPECT_EQ(Obs.counterValue("repl.ack_timeouts"), 2u);

  Shipper.stop();
  ShipperThread.join();
  Sink.join();
  ::close(Sv[0]);
  ::close(Sv[1]);
}

TEST(LiveReplication, AFlushWaitsForTheFoldThatSealedItsDeltas) {
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;

  ObsRegistry Obs;
  JournalShipper::Options ShipOpts;
  ShipOpts.Store = Store.get();
  ShipOpts.Ack = AckMode::Always;
  ShipOpts.Obs = &Obs;
  ShipOpts.AckWaitMs = 300;
  JournalShipper Shipper(ShipOpts);
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Obs = &Obs;
  Opts.Repl = &Shipper;
  ServeCore Core(Opts);
  Shipper.setCore(&Core);

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  const unsigned Leaf = leafIndex(Core);

  // A subscriber that takes every frame and never acks.
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  WireMessage Subscribe;
  Subscribe.Verb = "repl-subscribe";
  Subscribe.Params["from-lsn"] = std::to_string(Store->journal().nextLsn());
  std::thread ShipperThread([&] { Shipper.runSubscription(Sv[0], Subscribe); });
  std::thread Sink([&] {
    WireMessage M;
    std::string Err;
    while (readFrame(Sv[1], M, Err) == 1) {
    }
  });
  EXPECT_TRUE(waitFor([&] { return Shipper.subscriberCount() == 1; }));

  // This client's deltas, not yet flushed: nothing is journaled.
  WireMessage Deltas = makeRequest("stream-deltas", "s0");
  for (int I = 0; I < 4; ++I)
    appendStreamRecord(Deltas.Body, Leaf, 0, 3.0);
  uint64_t Before = Store->journal().lastLsn();
  EXPECT_EQ(Core.handle(Deltas).Verb, "ok");
  EXPECT_EQ(Store->journal().lastLsn(), Before);

  // Another client's flush seals them into its fold and waits for the
  // ack; this client's flush then finds the epoch empty. Its ok still
  // promises the deltas are on the standby, so it waits for that fold.
  WireMessage Flush = makeRequest("stream-deltas", "s0");
  Flush.Params["flush"] = "1";
  std::thread Other([&] { EXPECT_EQ(Core.handle(Flush).Verb, "ok"); });
  EXPECT_TRUE(waitFor([&] { return Store->journal().lastLsn() > Before; }));
  auto Start = std::chrono::steady_clock::now();
  WireMessage Resp = Core.handle(Flush);
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  Other.join();
  EXPECT_EQ(Resp.Verb, "ok");
  EXPECT_EQ(Resp.param("flushed-cells"), "0");
  EXPECT_GE(Elapsed, std::chrono::milliseconds(ShipOpts.AckWaitMs / 2));
  EXPECT_EQ(Obs.counterValue("repl.ack_timeouts"), 2u);

  Shipper.stop();
  ShipperThread.join();
  Sink.join();
  ::close(Sv[0]);
  ::close(Sv[1]);
}

//===--- standby divergence property (every shipped-journal prefix) --------===//

TEST(StandbyDivergence, EveryShippedJournalPrefixRestoresTheReference) {
  // The acceptance property for replication durability: the journal a
  // standby accumulates purely from shipped frames, cut at EVERY byte
  // length (a standby crash can truncate anywhere), restores a core whose
  // estimates match the reference at that record count byte-for-byte —
  // torn tails cost only themselves.
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA, RecB;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  auto StoreB = StateStore::open(DirB.Path, FsyncPolicy::Never, RecB, Error);
  ASSERT_TRUE(StoreA && StoreB) << Error;

  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);

  // Build the standby journal exclusively through the replication path.
  {
    ServeOptions OptsB;
    OptsB.Store = StoreB.get();
    ServeCore B(OptsB);
    B.setReadOnly(true);
    DeltaJournal::ReadCursor Cursor;
    std::vector<uint8_t> Raw;
    uint32_t Count = 0;
    ASSERT_EQ(StoreA->journal().readFrames(Cursor, 1 << 20, 512, Raw, Count,
                                           Error),
              DeltaJournal::ReadResult::Ok)
        << Error;
    ASSERT_EQ(Count, 5u);
    uint64_t Applied = 0;
    std::vector<std::string> Diagnostics;
    ASSERT_TRUE(B.applyReplicatedBatch(Raw.data(), Raw.size(), 1, Count,
                                       /*Sync=*/true, Applied, Diagnostics,
                                       Error))
        << Error;
    ASSERT_EQ(Applied, 5u);
  }
  std::vector<uint8_t> Full = readFileBytes(DirB.Path + "/journal.ptwj");
  ASSERT_GT(Full.size(), 16u);
  ASSERT_EQ(Full, readFileBytes(DirA.Path + "/journal.ptwj"));

  TempDir DirC;
  std::string CutPath = DirC.Path + "/journal.ptwj";
  for (size_t Len = 0; Len <= Full.size(); ++Len) {
    SCOPED_TRACE("prefix length " + std::to_string(Len));
    ::unlink(CutPath.c_str());
    ::unlink((CutPath + ".quarantine").c_str());
    writeFileBytes(CutPath, Full.data(), Len);

    StateStore::Recovery Recovered;
    auto Store =
        StateStore::open(DirC.Path, FsyncPolicy::Never, Recovered, Error);
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
    EXPECT_EQ(fingerprints(Core), RefAt[R]);
  }
}

//===--- injected crashes on the standby apply path ------------------------===//

TEST(ReplCrash, CrashBetweenJournalAndApplyLosesNothing) {
  // crash.at=repl.journal kills the standby after the shipped frames hit
  // its journal but before any record is applied to live sessions. The
  // batch is already durable: recovery replays it and the restored
  // estimates match the reference.
  TempDir DirA, DirB;
  std::string Error;
  StateStore::Recovery RecA;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  ASSERT_TRUE(StoreA) << Error;
  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);

  DeltaJournal::ReadCursor Cursor;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  ASSERT_EQ(
      StoreA->journal().readFrames(Cursor, 1 << 20, 512, Raw, Count, Error),
      DeltaJournal::ReadResult::Ok)
      << Error;
  ASSERT_EQ(Count, 5u);

  for (const char *Point : {"repl.journal", "repl.apply"}) {
    SCOPED_TRACE(Point);
    TempDir DirS;
    expectInjectedCrash([&] {
      std::string E;
      StateStore::Recovery Rec;
      auto Store = StateStore::open(DirS.Path, FsyncPolicy::Always, Rec, E);
      if (!Store)
        ::_exit(7);
      ServeOptions Opts;
      Opts.Store = Store.get();
      ServeCore Standby(Opts);
      Standby.setReadOnly(true);
      ScopedFaultInjection Fault(std::string("crash.at=") + Point);
      if (!Fault.ok())
        ::_exit(7);
      uint64_t Applied = 0;
      std::vector<std::string> Diagnostics;
      Standby.applyReplicatedBatch(Raw.data(), Raw.size(), 1, Count,
                                   /*Sync=*/true, Applied, Diagnostics, E);
    });

    StateStore::Recovery Rec;
    auto Store = StateStore::open(DirS.Path, FsyncPolicy::Never, Rec, Error);
    ASSERT_TRUE(Store) << Error;
    EXPECT_EQ(Rec.Records.size(), 5u);
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Recovered(Opts);
    ServeCore::RestoreReport RR;
    Recovered.restore(Rec, RR);
    EXPECT_EQ(fingerprints(Recovered), RefAt.back());
  }
}

TEST(ReplCrash, CrashDuringPromotionLeavesTheJournalReplayable) {
  // crash.at=repl.promote kills the standby after its journal is synced
  // but before the read-only gate lifts: the next boot still replays the
  // full replicated history.
  TempDir DirA, DirS;
  std::string Error;
  StateStore::Recovery RecA;
  auto StoreA = StateStore::open(DirA.Path, FsyncPolicy::Never, RecA, Error);
  ASSERT_TRUE(StoreA) << Error;
  ServeOptions OptsA;
  OptsA.Store = StoreA.get();
  ServeCore A(OptsA);
  std::vector<std::vector<std::vector<std::string>>> RefAt;
  driveReference(A, StoreA->journal(), RefAt);
  DeltaJournal::ReadCursor Cursor;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  ASSERT_EQ(
      StoreA->journal().readFrames(Cursor, 1 << 20, 512, Raw, Count, Error),
      DeltaJournal::ReadResult::Ok)
      << Error;

  expectInjectedCrash([&] {
    std::string E;
    StateStore::Recovery Rec;
    auto Store = StateStore::open(DirS.Path, FsyncPolicy::Always, Rec, E);
    if (!Store)
      ::_exit(7);
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);
    Core.setReadOnly(true);
    uint64_t Applied = 0;
    std::vector<std::string> Diagnostics;
    if (!Core.applyReplicatedBatch(Raw.data(), Raw.size(), 1, Count,
                                   /*Sync=*/false, Applied, Diagnostics, E))
      ::_exit(7);
    StandbyReplicator::Options SOpts;
    SOpts.Core = &Core;
    SOpts.Store = Store.get();
    StandbyReplicator Standby(SOpts);
    ScopedFaultInjection Fault("crash.at=repl.promote");
    if (!Fault.ok())
      ::_exit(7);
    Standby.promote(E); // Dies after the journal sync.
  });

  StateStore::Recovery Rec;
  auto Store = StateStore::open(DirS.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Rec.Records.size(), 5u);
  ServeOptions Opts;
  Opts.Store = Store.get();
  ServeCore Recovered(Opts);
  ServeCore::RestoreReport RR;
  Recovered.restore(Rec, RR);
  EXPECT_EQ(fingerprints(Recovered), RefAt.back());
}

TEST(ReplCrash, TornBootstrapMarkerForcesAFullRebootstrap) {
  // A leftover repl-bootstrap.pending marker means a previous incarnation
  // died mid-bootstrap: start() must discard the half-adopted local state
  // (sessions, snapshots, journal) and demand a fresh bootstrap.
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;
  ServeOptions Opts;
  Opts.Store = Store.get();
  ServeCore Core(Opts);
  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  ASSERT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");
  ASSERT_EQ(Core.sessionCount(), 1u);

  std::string Marker = Dir.Path + "/repl-bootstrap.pending";
  int MFd = ::open(Marker.c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(MFd, 0);
  ::close(MFd);

  // Connect always fails: we only care about start()'s recovery step.
  StandbyReplicator::Options SOpts;
  SOpts.Core = &Core;
  SOpts.Store = Store.get();
  SOpts.Backoff =
      RetryPolicy().retries(1u << 30).baseDelay(std::chrono::milliseconds(1));
  SOpts.Connect = [](std::string &Err) {
    Err = "refused";
    return -1;
  };
  StandbyReplicator Standby(SOpts);
  ASSERT_TRUE(Standby.start(Error)) << Error;
  Standby.stop();

  EXPECT_EQ(Core.sessionCount(), 0u);
  EXPECT_EQ(Store->journal().nextLsn(), 1u);
  EXPECT_EQ(Store->journal().sizeBytes(), 16u);
  struct stat St;
  EXPECT_NE(::lstat(Marker.c_str(), &St), 0) << "marker not cleared";
}

//===--- adaptive flush cadence (satellite) --------------------------------===//

TEST(AdaptiveFlush, HotBurstFoldsBeforeTheTimerCadence) {
  // With a one-minute flush interval, an un-flushed stream append would
  // sit in its epoch forever on the timer path; the staleness bound must
  // seal it within tens of milliseconds.
  TempDir Dir;
  std::string Error;
  StateStore::Recovery Rec;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Rec, Error);
  ASSERT_TRUE(Store) << Error;
  ObsRegistry Obs;
  ServeOptions Opts;
  Opts.Store = Store.get();
  Opts.Obs = &Obs;
  Opts.FlushIntervalMs = 60000;
  Opts.FlushMaxStalenessMs = 40;
  Opts.FlushCellThreshold = 1u << 30; // Never trip on cell count.
  Opts.SnapshotIntervalMs = 0;
  ServeCore Core(Opts);

  WireMessage Load = makeRequest("load-program", "s0");
  Load.Body = TinySource;
  ASSERT_EQ(Core.handle(Load).Verb, "ok");
  ASSERT_EQ(Core.handle(makeRequest("run", "s0")).Verb, "ok");
  unsigned Leaf = leafIndex(Core);
  uint64_t Tail = Store->journal().lastLsn();

  Core.startFlusher();
  WireMessage Deltas = makeRequest("stream-deltas", "s0");
  for (int I = 0; I < 4; ++I)
    appendStreamRecord(Deltas.Body, Leaf, 0, 3.0);
  ASSERT_EQ(Core.handle(Deltas).Verb, "ok"); // No flush=1: epoch stays hot.

  EXPECT_TRUE(waitFor(
      [&] { return Obs.counterValue("stream.staleness_flushes") >= 1; },
      5000))
      << "staleness bound never sealed the epoch";
  // The seal journaled the fold: durable, not just folded in memory.
  EXPECT_TRUE(waitFor([&] { return Store->journal().lastLsn() > Tail; }));
  Core.stopFlusher();
}

//===--- wire frame stall deadline (satellite) -----------------------------===//

TEST(WireTimeout, MidFramePeerStallIsATruncatedFrameError) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  // One lonely byte arms the deadline; the peer then goes silent.
  uint8_t Byte = 0x01;
  ASSERT_EQ(::send(Sv[0], &Byte, 1, 0), 1);
  WireMessage M;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  int Rc = readFrame(Sv[1], M, Error, /*MidFrameTimeoutMs=*/100);
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Rc, -1);
  EXPECT_NE(Error.find("stalled"), std::string::npos) << Error;
  EXPECT_NE(Error.find("truncated frame"), std::string::npos) << Error;
  EXPECT_GE(Elapsed, std::chrono::milliseconds(50));
  EXPECT_LT(Elapsed, std::chrono::seconds(5));
  ::close(Sv[0]);
  ::close(Sv[1]);
}

TEST(WireTimeout, CompleteFramesAndIdleConnectionsAreUnaffected) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  WireMessage Out;
  Out.Verb = "ping";
  Out.Params["k"] = "v";
  Out.Body = std::string(4096, 'x');
  std::string Error;
  ASSERT_TRUE(writeFrame(Sv[0], Out, Error)) << Error;
  WireMessage In;
  // A frame already in the buffer round-trips under any deadline.
  EXPECT_EQ(readFrame(Sv[1], In, Error, 100), 1) << Error;
  EXPECT_EQ(In.Verb, "ping");
  EXPECT_EQ(In.param("k"), "v");
  EXPECT_EQ(In.Body, Out.Body);

  // An idle connection does NOT trip the deadline: it only arms once the
  // first byte of a frame arrives. The reader blocks until the peer
  // writes (here: shortly after), then completes normally.
  std::thread Writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    WireMessage Late;
    Late.Verb = "ping";
    std::string E;
    writeFrame(Sv[0], Late, E);
  });
  WireMessage Late;
  EXPECT_EQ(readFrame(Sv[1], Late, Error, 100), 1) << Error;
  EXPECT_EQ(Late.Verb, "ping");
  Writer.join();
  ::close(Sv[0]);
  ::close(Sv[1]);
}
