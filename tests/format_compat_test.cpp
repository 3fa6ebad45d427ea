//===--- tests/format_compat_test.cpp - Byte-level format pins ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins every binary format the daemon and the tools exchange to a hex
/// image: a PTPF profile, a PTWJ journal holding one record of every
/// RecordType, a PTSS snapshot, a length-prefixed protocol frame and a
/// stream-deltas body. Each image must decode to the expected fields and
/// re-encode byte-for-byte. Every other codec test is a round trip, which
/// a format change that keeps encoder and decoder in step would pass;
/// these images were captured once and must never change without a
/// version bump.
///
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "durable/Journal.h"
#include "durable/Records.h"
#include "durable/Snapshot.h"
#include "durable/StateStore.h"
#include "profile/ProfileFile.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;
using namespace ptran::serve;

namespace {

//===--- hex helpers ------------------------------------------------------===//

std::string toHex(const uint8_t *Data, size_t Len) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Len * 2);
  for (size_t I = 0; I < Len; ++I) {
    Out.push_back(Digits[Data[I] >> 4]);
    Out.push_back(Digits[Data[I] & 0xF]);
  }
  return Out;
}

std::string toHex(const std::vector<uint8_t> &Bytes) {
  return toHex(Bytes.data(), Bytes.size());
}

std::string toHex(const std::string &Bytes) {
  return toHex(reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size());
}

std::vector<uint8_t> fromHex(const std::string &Hex) {
  std::vector<uint8_t> Out;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out.push_back(static_cast<uint8_t>(
        std::stoul(Hex.substr(I, 2), nullptr, 16)));
  return Out;
}

//===--- filesystem helpers ----------------------------------------------===//

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ptran-format-XXXXXX";
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
  uint8_t Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  ::close(Fd);
  return Out;
}

void writeFileBytes(const std::string &Path, const std::vector<uint8_t> &B) {
  int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::write(Fd, B.data(), B.size()), static_cast<ssize_t>(B.size()));
  ::close(Fd);
}

//===--- pinned images ----------------------------------------------------===//

/// ProfileFile::serialize() of the Figure 1 program after three profiled
/// runs with profiled loop moments.
const char PtpfImage[] =
    "505450460100000007ba78f3f0d3ac3b03000000030000000200000004000000"
    "6d61696e9f3f26e3eb7192a367000000000000004400000000000000cf18b510"
    "03000000666f6f800f2e10b5913d75ab000000000000001000000000000000e3"
    "759d7419bc60860400000000000000000008400000000000003b400000000000"
    "003e400000000000000840010000000200000000000000000008400000000000"
    "003e400000000000c07240010000000000000000003b4000000000";

/// A journal file holding the records of journalRecords(), in order.
const char PtwjImage[] =
    "5054574a01000000010000000000000034000000996c2417010200000073301d"
    "00000020202020202070726f6772616d206d61696e0a202020202020656e640a"
    "0300000002000000010000000b00000080f8d047030200000073300700000056"
    "000000a572d82f0402000000733002000000040000006c656166020000000700"
    "00000100000000000030400900000000000000000000e03f040000006d61696e"
    "010000000300000002000000000000404301000000040000006d61696e160000"
    "00391e66e60502000000733007000000000000005054504600ff100f000000f0"
    "3c994406020000007330040000006c65616607000000c575f065020200000073"
    "30";

/// encodeSnapshot(snapshotState(), 42).
const char PtssImage[] =
    "50545353010000002a000000000000000700000062656e63682d301d00000020"
    "202020202070726f6772616d206d61696e0a202020202020656e640a02000000"
    "0100000001000000050000000000000005000000000000005054504601020000"
    "00040000006d61696e0200000002000000000000000000000840040000000100"
    "0000000000d03f040000006c6561660100000001000000029c7500883ce4377e"
    "02000000040000006c656166040000006d61696e02000000040000006c656166"
    "16000000636f756e746572207368617065206d69736d61746368050000006f74"
    "6865721900000073656374696f6e20636865636b73756d206d69736d61746368"
    "e58b1401";

/// writeFrame(protocolMessage()): u32 length prefix plus payload.
const char FrameImage[] =
    "460000003a000000657374696d6174652d62617463680a636f756e743d320a66"
    "756e6374696f6e2e303d6d61696e0a6e6f74653d613d620a73657373696f6e3d"
    "73300001feff626f6479";

/// The stream-deltas body the bench client builds for TinySource: one
/// record (function I, condition 0, delta 1.0) per function that has a
/// condition.
const char StreamBodyImage[] =
    "0000000000000000000000000000f03f0100000000000000000000000000f03f";

//===--- fixtures ---------------------------------------------------------===//

std::vector<DurableRecord> journalRecords() {
  std::vector<DurableRecord> Out;
  DurableRecord Create;
  Create.Type = RecordType::SessionCreate;
  Create.Session = "s0";
  Create.Source = "      program main\n      end\n";
  Create.Mode = 3;
  Create.LoopVariance = 2;
  Create.OnBadProfile = 1;
  Out.push_back(Create);

  DurableRecord Run;
  Run.Type = RecordType::RunExec;
  Run.Session = "s0";
  Run.RunCount = 7;
  Out.push_back(Run);

  DurableRecord Fold;
  Fold.Type = RecordType::EpochFold;
  Fold.Session = "s0";
  Fold.Folds.push_back({"leaf", {{7, 1, 16.0}, {9, 0, 0.5}}});
  Fold.Folds.push_back({"main", {{3, 2, 9007199254740992.0}}});
  Fold.Clamped = {"main"};
  Out.push_back(Fold);

  DurableRecord Ingest;
  Ingest.Type = RecordType::ProfileIngest;
  Ingest.Session = "s0";
  Ingest.Profile = {'P', 'T', 'P', 'F', 0x00, 0xFF, 0x10};
  Out.push_back(Ingest);

  DurableRecord Sat;
  Sat.Type = RecordType::SaturationMark;
  Sat.Session = "s0";
  Sat.FunctionName = "leaf";
  Out.push_back(Sat);

  DurableRecord Evict;
  Evict.Type = RecordType::SessionEvict;
  Evict.Session = "s0";
  Out.push_back(Evict);
  return Out;
}

DurableSessionState snapshotState() {
  DurableSessionState S;
  S.Name = "bench-0";
  S.Source = "      program main\n      end\n";
  S.Mode = 2;
  S.LoopVariance = 1;
  S.OnBadProfile = 1;
  S.Runs = 5;
  S.ProfileImage = {0x50, 0x54, 0x50, 0x46, 0x01};
  S.External.push_back({"main", {{2, 0, 3.0}, {4, 1, 0.25}}});
  S.External.push_back({"leaf", {{1, 2, 1e300}}});
  S.Saturated = {"leaf", "main"};
  S.Quarantined = {{"leaf", "counter shape mismatch"},
                   {"other", "section checksum mismatch"}};
  return S;
}

WireMessage protocolMessage() {
  WireMessage M;
  M.Verb = "estimate-batch";
  M.Params["session"] = "s0";
  M.Params["count"] = "2";
  M.Params["function.0"] = "main";
  M.Params["note"] = "a=b";
  M.Body = std::string("\x00\x01\xfe\xff" "body", 8);
  return M;
}

/// Same program shape serve_test uses: two functions, each with branches.
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

void expectSameRecord(const DurableRecord &A, const DurableRecord &B) {
  EXPECT_EQ(A.Type, B.Type);
  EXPECT_EQ(A.Session, B.Session);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Mode, B.Mode);
  EXPECT_EQ(A.LoopVariance, B.LoopVariance);
  EXPECT_EQ(A.OnBadProfile, B.OnBadProfile);
  EXPECT_EQ(A.RunCount, B.RunCount);
  ASSERT_EQ(A.Folds.size(), B.Folds.size());
  for (size_t I = 0; I < A.Folds.size(); ++I) {
    EXPECT_EQ(A.Folds[I].Function, B.Folds[I].Function);
    ASSERT_EQ(A.Folds[I].Conds.size(), B.Folds[I].Conds.size());
    for (size_t J = 0; J < A.Folds[I].Conds.size(); ++J) {
      EXPECT_EQ(A.Folds[I].Conds[J].Node, B.Folds[I].Conds[J].Node);
      EXPECT_EQ(A.Folds[I].Conds[J].Label, B.Folds[I].Conds[J].Label);
      EXPECT_EQ(A.Folds[I].Conds[J].Total, B.Folds[I].Conds[J].Total);
    }
  }
  EXPECT_EQ(A.Clamped, B.Clamped);
  EXPECT_EQ(A.Profile, B.Profile);
  EXPECT_EQ(A.FunctionName, B.FunctionName);
}

/// Every byte \p Fd's peer sent before closing.
std::string drainSocket(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

} // namespace

TEST(FormatCompat, ProfileFileImageIsPinned) {
  ptran::testing::Figure1Program Fig = ptran::testing::makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(
      *Fig.Prog, CostModel::optimizing(),
      EstimatorOptions(Diags).loopVariance(LoopVarianceMode::Profiled));
  ASSERT_NE(Est, nullptr) << Diags.str();
  for (int R = 0; R < 3; ++R)
    ASSERT_TRUE(Est->profiledRun().Ok);
  ProfileFile Captured = ProfileFile::capture(
      Est->analysis(), Est->plan(), Est->runtime(), &Est->loopStats(), 3);
  EXPECT_EQ(toHex(Captured.serialize()), PtpfImage);

  std::vector<uint8_t> Image = fromHex(PtpfImage);
  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> PF = ProfileFile::deserialize(Image, &LoadDiags);
  ASSERT_TRUE(PF.has_value()) << LoadDiags.str();
  EXPECT_TRUE(LoadDiags.diagnostics().empty()) << LoadDiags.str();
  EXPECT_EQ(PF->version(), 1u);
  EXPECT_EQ(PF->programFingerprint(), programFingerprintOf(Est->analysis()));
  EXPECT_EQ(PF->mode(), Est->plan().mode());
  EXPECT_EQ(PF->runs(), 3u);
  ASSERT_EQ(PF->sections().size(), 2u);
  EXPECT_EQ(PF->sections()[0].Name, "main");
  EXPECT_EQ(PF->sections()[1].Name, "foo");
  for (size_t I = 0; I < 2; ++I) {
    const FunctionSection &Got = PF->sections()[I];
    const FunctionSection &Want = Captured.sections()[I];
    EXPECT_TRUE(Got.Valid) << Got.Issue;
    EXPECT_EQ(Got.Fingerprint, Want.Fingerprint);
    EXPECT_EQ(Got.Counters, Want.Counters);
    ASSERT_EQ(Got.Loops.size(), Want.Loops.size());
    for (size_t L = 0; L < Got.Loops.size(); ++L) {
      EXPECT_EQ(Got.Loops[L].HeaderStmt, Want.Loops[L].HeaderStmt);
      EXPECT_EQ(Got.Loops[L].Entries, Want.Loops[L].Entries);
      EXPECT_EQ(Got.Loops[L].Sum, Want.Loops[L].Sum);
      EXPECT_EQ(Got.Loops[L].SumSq, Want.Loops[L].SumSq);
    }
  }
  // The Figure 1 loop runs ten times per run: main's sections carry a
  // loop with nonzero moments, so both payload kinds are pinned.
  ASSERT_FALSE(PF->sections()[0].Loops.empty());
  EXPECT_EQ(PF->sections()[0].Loops[0].Entries, 3.0);
  EXPECT_EQ(toHex(PF->serialize()), PtpfImage);
}

TEST(FormatCompat, ProfileImageRecoversLikeTheFixpoint) {
  // The pinned profile's counters, recovered through the compiled
  // schedule, must equal the fixpoint oracle bit for bit.
  ptran::testing::Figure1Program Fig = ptran::testing::makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fig.Prog, CostModel::optimizing(),
                               EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> PF =
      ProfileFile::deserialize(fromHex(PtpfImage), &LoadDiags);
  ASSERT_TRUE(PF.has_value()) << LoadDiags.str();
  ASSERT_EQ(PF->sections().size(), 2u);
  for (const FunctionSection &S : PF->sections()) {
    const Function *F = Fig.Prog->findFunction(S.Name);
    ASSERT_NE(F, nullptr) << S.Name;
    const FunctionAnalysis &FA = Est->analysis().of(*F);
    const FunctionPlan &Plan = Est->plan().of(*F);
    EXPECT_TRUE(recoverTotals(FA, Plan, S.Counters).Ok) << S.Name;
    EXPECT_EQ(ptran::testing::compareWithFixpoint(FA, Plan, S.Counters), "");
  }
}

TEST(FormatCompat, JournalImageIsPinned) {
  TempDir Dir;
  std::string Path = Dir.Path + "/journal.ptwj";
  std::vector<DurableRecord> Want = journalRecords();
  {
    DeltaJournal::OpenReport Report;
    std::string Error;
    auto J = DeltaJournal::open(Path, FsyncPolicy::Never, Report, nullptr,
                                Error);
    ASSERT_NE(J, nullptr) << Error;
    for (const DurableRecord &R : Want)
      ASSERT_NE(J->append(R, Error), 0u) << Error;
  }
  EXPECT_EQ(toHex(readFileBytes(Path)), PtwjImage);

  // Decode the pinned image through the journal's open scan.
  std::string Pinned = Dir.Path + "/pinned.ptwj";
  writeFileBytes(Pinned, fromHex(PtwjImage));
  DeltaJournal::OpenReport Report;
  std::vector<DurableRecord> Got;
  std::string Error;
  auto J = DeltaJournal::open(Pinned, FsyncPolicy::Never, Report, &Got, Error);
  ASSERT_NE(J, nullptr) << Error;
  EXPECT_FALSE(Report.TailQuarantined) << Report.TailReason;
  EXPECT_EQ(Report.FirstLsn, 1u);
  EXPECT_EQ(Report.NextLsn, 7u);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Lsn, I + 1);
    expectSameRecord(Got[I], Want[I]);
  }

  // Each frame body re-encodes to the bytes it was decoded from, and the
  // raw frames read back for shipping are the file's bytes after its
  // 16-byte header.
  std::vector<uint8_t> Image = fromHex(PtwjImage);
  size_t Off = 16;
  for (const DurableRecord &R : Got) {
    std::vector<uint8_t> Body = encodeRecord(R);
    ASSERT_LE(Off + 8 + Body.size(), Image.size());
    EXPECT_EQ(toHex(Body), toHex(Image.data() + Off + 8, Body.size()));
    Off += 8 + Body.size();
  }
  EXPECT_EQ(Off, Image.size());
  DeltaJournal::ReadCursor Cursor;
  Cursor.NextLsn = 1;
  std::vector<uint8_t> Raw;
  uint32_t Count = 0;
  ASSERT_EQ(J->readFrames(Cursor, 1 << 20, 512, Raw, Count, Error),
            DeltaJournal::ReadResult::Ok)
      << Error;
  EXPECT_EQ(Count, 6u);
  EXPECT_EQ(toHex(Raw), toHex(Image.data() + 16, Image.size() - 16));
}

TEST(FormatCompat, SnapshotImageIsPinned) {
  DurableSessionState Want = snapshotState();
  EXPECT_EQ(toHex(encodeSnapshot(Want, 42)), PtssImage);

  std::vector<uint8_t> Image = fromHex(PtssImage);
  DurableSessionState Got;
  uint64_t Watermark = 0;
  std::string Error;
  ASSERT_TRUE(decodeSnapshot(Image.data(), Image.size(), Got, Watermark,
                             Error))
      << Error;
  EXPECT_EQ(Watermark, 42u);
  EXPECT_EQ(Got.Name, Want.Name);
  EXPECT_EQ(Got.Source, Want.Source);
  EXPECT_EQ(Got.Mode, Want.Mode);
  EXPECT_EQ(Got.LoopVariance, Want.LoopVariance);
  EXPECT_EQ(Got.OnBadProfile, Want.OnBadProfile);
  EXPECT_EQ(Got.Runs, Want.Runs);
  EXPECT_EQ(Got.ProfileImage, Want.ProfileImage);
  ASSERT_EQ(Got.External.size(), Want.External.size());
  for (size_t I = 0; I < Got.External.size(); ++I) {
    EXPECT_EQ(Got.External[I].Function, Want.External[I].Function);
    ASSERT_EQ(Got.External[I].Conds.size(), Want.External[I].Conds.size());
    for (size_t J = 0; J < Got.External[I].Conds.size(); ++J) {
      EXPECT_EQ(Got.External[I].Conds[J].Node, Want.External[I].Conds[J].Node);
      EXPECT_EQ(Got.External[I].Conds[J].Label,
                Want.External[I].Conds[J].Label);
      EXPECT_EQ(Got.External[I].Conds[J].Total,
                Want.External[I].Conds[J].Total);
    }
  }
  EXPECT_EQ(Got.Saturated, Want.Saturated);
  EXPECT_EQ(Got.Quarantined, Want.Quarantined);
  EXPECT_EQ(toHex(encodeSnapshot(Got, Watermark)), PtssImage);
}

TEST(FormatCompat, ProtocolFrameImageIsPinned) {
  WireMessage Want = protocolMessage();
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Error;
  ASSERT_TRUE(writeFrame(Fds[0], Want, Error)) << Error;
  ::close(Fds[0]);
  EXPECT_EQ(toHex(drainSocket(Fds[1])), FrameImage);
  ::close(Fds[1]);

  // The payload after the prefix decodes on its own...
  std::vector<uint8_t> Image = fromHex(FrameImage);
  ASSERT_GE(Image.size(), 4u);
  std::optional<WireMessage> Decoded =
      decodeFrame(Image.data() + 4, Image.size() - 4, Error);
  ASSERT_TRUE(Decoded.has_value()) << Error;
  EXPECT_EQ(Decoded->Verb, Want.Verb);
  EXPECT_EQ(Decoded->Params, Want.Params);
  EXPECT_EQ(Decoded->Body, Want.Body);
  std::optional<std::vector<uint8_t>> Payload = encodeFrame(*Decoded, Error);
  ASSERT_TRUE(Payload.has_value()) << Error;
  EXPECT_EQ(toHex(*Payload), toHex(Image.data() + 4, Image.size() - 4));

  // ... and the whole image, prefix included, reads as one frame.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ASSERT_EQ(::send(Fds[0], Image.data(), Image.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Image.size()));
  ::close(Fds[0]);
  WireMessage Read;
  ASSERT_EQ(readFrame(Fds[1], Read, Error), 1) << Error;
  EXPECT_EQ(Read.Verb, Want.Verb);
  EXPECT_EQ(Read.Params, Want.Params);
  EXPECT_EQ(Read.Body, Want.Body);
  ::close(Fds[1]);
}

TEST(FormatCompat, StreamDeltasBodyIsPinned) {
  TempDir Dir;
  std::vector<std::string> Functions;
  std::vector<uint8_t> Image = fromHex(StreamBodyImage);
  {
    StateStore::Recovery Recovered;
    std::string Error;
    auto Store =
        StateStore::open(Dir.Path, FsyncPolicy::Never, Recovered, Error);
    ASSERT_NE(Store, nullptr) << Error;
    ServeOptions Opts;
    Opts.Store = Store.get();
    Opts.SnapshotIntervalMs = 0;
    ServeCore Core(Opts);

    WireMessage Load;
    Load.Verb = "load-program";
    Load.Params["session"] = "s0";
    Load.Body = TinySource;
    WireMessage Resp = Core.handle(Load);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");

    WireMessage Describe;
    Describe.Verb = "stream-deltas";
    Describe.Params["session"] = "s0";
    Describe.Params["describe"] = "1";
    Resp = Core.handle(Describe);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    unsigned NumFuncs = std::stoul(Resp.param("functions"));

    // The bench client's encoding: u32 function | u32 condition | f64
    // delta, little-endian, one record per function with a condition.
    std::string Body;
    for (unsigned I = 0; I < NumFuncs; ++I) {
      if (std::stoul(Resp.param("conditions." + std::to_string(I))) == 0)
        continue;
      Functions.push_back(Resp.param("function." + std::to_string(I)));
      const uint8_t Rec[16] = {static_cast<uint8_t>(I),
                               static_cast<uint8_t>(I >> 8),
                               static_cast<uint8_t>(I >> 16),
                               static_cast<uint8_t>(I >> 24),
                               0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
      Body.append(reinterpret_cast<const char *>(Rec), sizeof(Rec));
    }
    EXPECT_EQ(toHex(Body), StreamBodyImage);

    WireMessage Stream;
    Stream.Verb = "stream-deltas";
    Stream.Params["session"] = "s0";
    Stream.Params["flush"] = "1";
    Stream.Body.assign(Image.begin(), Image.end());
    Resp = Core.handle(Stream);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    EXPECT_EQ(Resp.param("appended"), std::to_string(Image.size() / 16));
    EXPECT_EQ(Resp.param("dropped"), "0");
  }

  // The decoded records reach the journal as one EpochFold: a 1.0 on
  // the first condition of every function the body names.
  StateStore::Recovery Recovered;
  std::string Error;
  auto Store = StateStore::open(Dir.Path, FsyncPolicy::Never, Recovered, Error);
  ASSERT_NE(Store, nullptr) << Error;
  const DurableRecord *Fold = nullptr;
  for (const DurableRecord &R : Recovered.Records)
    if (R.Type == RecordType::EpochFold)
      Fold = &R;
  ASSERT_NE(Fold, nullptr);
  ASSERT_EQ(Fold->Folds.size(), Functions.size());
  for (size_t I = 0; I < Functions.size(); ++I) {
    EXPECT_EQ(Fold->Folds[I].Function, Functions[I]);
    ASSERT_EQ(Fold->Folds[I].Conds.size(), 1u);
    EXPECT_EQ(Fold->Folds[I].Conds[0].Total, 1.0);
  }
}
