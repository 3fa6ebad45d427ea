//===--- durable/Journal.cpp - Append-only write-ahead journal ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Journal.h"

#include "support/Bytes.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;

namespace {

constexpr uint32_t JournalMagic = 0x4A575450; // "PTWJ" little-endian.
constexpr uint32_t JournalVersion = 1;
constexpr size_t HeaderBytes = 16;
constexpr size_t FrameHeaderBytes = 8;

std::string errnoString(const char *What, const std::string &Path) {
  return std::string(What) + " '" + Path + "': " + std::strerror(errno);
}

void storeHeader(uint8_t *H, uint64_t FirstLsn) {
  storeLE32(H, JournalMagic);
  storeLE32(H + 4, JournalVersion);
  storeLE64(H + 8, FirstLsn);
}

/// Why a `u32 bodyLen | u32 crc32(body) | body` frame is not trusted.
/// The open scan, readFrames and appendRaw all check frames here and word
/// the failure (and quarantine or reject) their own way.
enum class FrameCheck { Ok, TornHeader, BadLength, TornBody, BadChecksum };

/// The length checks of the frame at \p Frame, with \p Avail bytes of
/// log from \p Frame on. Reads only the 8-byte frame header; \p BodyLen
/// is set whenever that header is complete.
FrameCheck checkFrameHeader(const uint8_t *Frame, uint64_t Avail,
                            uint32_t &BodyLen) {
  if (Avail < FrameHeaderBytes)
    return FrameCheck::TornHeader;
  BodyLen = loadLE32(Frame);
  if (BodyLen > MaxRecordBytes)
    return FrameCheck::BadLength;
  if (Avail - FrameHeaderBytes < BodyLen)
    return FrameCheck::TornBody;
  return FrameCheck::Ok;
}

/// checkFrameHeader plus the body's CRC; the whole frame is in memory.
FrameCheck checkFrame(const uint8_t *Frame, uint64_t Avail,
                      uint32_t &BodyLen) {
  FrameCheck C = checkFrameHeader(Frame, Avail, BodyLen);
  if (C == FrameCheck::Ok &&
      crc32(Frame + FrameHeaderBytes, BodyLen) != loadLE32(Frame + 4))
    return FrameCheck::BadChecksum;
  return C;
}

/// Positional write loop: retries EINTR and continues short writes (both
/// genuine and io.short_write-injected ones).
bool writeAllAt(int Fd, uint64_t Offset, const uint8_t *Data, size_t Size,
                const std::string &Path, std::string &Error) {
  while (Size > 0) {
    size_t Want = FaultInjection::maybeShortWrite(Size);
    ssize_t N = ::pwrite(Fd, Data, Want, static_cast<off_t>(Offset));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("write", Path);
      return false;
    }
    Offset += static_cast<uint64_t>(N);
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readWholeFile(int Fd, std::vector<uint8_t> &Out, const std::string &Path,
                   std::string &Error) {
  struct stat St;
  if (::fstat(Fd, &St) < 0) {
    Error = errnoString("stat", Path);
    return false;
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Got = 0;
  while (Got < Out.size()) {
    ssize_t N = ::pread(Fd, Out.data() + Got, Out.size() - Got,
                        static_cast<off_t>(Got));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("read", Path);
      return false;
    }
    if (N == 0) {
      // The file shrank under us; trust what we got.
      Out.resize(Got);
      break;
    }
    Got += static_cast<size_t>(N);
  }
  return true;
}

bool fsyncDirOf(const std::string &Path, std::string &Error) {
  size_t Slash = Path.rfind('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash ? Slash : 1);
  int D = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (D < 0) {
    Error = errnoString("open directory", Dir);
    return false;
  }
  int Rc;
  do {
    Rc = ::fsync(D);
  } while (Rc < 0 && errno == EINTR);
  ::close(D);
  if (Rc < 0) {
    Error = errnoString("fsync directory", Dir);
    return false;
  }
  return true;
}

/// Moves \p Bytes aside to `<path>.quarantine` (overwriting a previous
/// quarantine — the newest torn tail is the interesting one). Best-effort:
/// quarantine is for post-mortems, recovery proceeds regardless.
void quarantineBytes(const std::string &JournalPath, const uint8_t *Bytes,
                     size_t Len) {
  std::string QPath = JournalPath + ".quarantine";
  int Fd = ::open(QPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return;
  std::string Ignored;
  writeAllAt(Fd, 0, Bytes, Len, QPath, Ignored);
  ::fsync(Fd);
  ::close(Fd);
}

} // namespace

DeltaJournal::~DeltaJournal() {
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<DeltaJournal>
DeltaJournal::open(const std::string &Path, FsyncPolicy Fsync,
                   OpenReport &Report, std::vector<DurableRecord> *Records,
                   std::string &Error) {
  Report = OpenReport();
  int Fd = ::open(Path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Error = errnoString("open", Path);
    return nullptr;
  }
  auto J = std::unique_ptr<DeltaJournal>(new DeltaJournal());
  J->Path = Path;
  J->Fsync = Fsync;
  J->Fd = Fd;

  std::vector<uint8_t> Bytes;
  if (!readWholeFile(Fd, Bytes, Path, Error))
    return nullptr;

  auto WriteFreshHeader = [&](uint64_t FirstLsn) -> bool {
    uint8_t H[HeaderBytes];
    storeHeader(H, FirstLsn);
    if (::ftruncate(Fd, 0) < 0) {
      Error = errnoString("truncate", Path);
      return false;
    }
    if (!writeAllAt(Fd, 0, H, sizeof(H), Path, Error))
      return false;
    ::fsync(Fd);
    return true;
  };

  if (Bytes.empty()) {
    if (!WriteFreshHeader(1))
      return nullptr;
    J->FirstLsn = J->NextLsnValue = 1;
    J->FileBytes = HeaderBytes;
    Report.FirstLsn = Report.NextLsn = 1;
    return J;
  }

  if (Bytes.size() < HeaderBytes || loadLE32(Bytes.data()) != JournalMagic ||
      loadLE32(Bytes.data() + 4) != JournalVersion) {
    // A torn or foreign header: nothing after it can be framed. Quarantine
    // the whole file and start a fresh log — rotation fsyncs replacement
    // headers before renaming them into place, so this can only be the
    // very first header write of an empty store (no records to lose).
    quarantineBytes(Path, Bytes.data(), Bytes.size());
    Report.TailQuarantined = true;
    Report.TailReason = "journal header is torn or garbled";
    Report.TailOffset = 0;
    Report.QuarantinedBytes = Bytes.size();
    if (!WriteFreshHeader(1))
      return nullptr;
    J->FirstLsn = J->NextLsnValue = 1;
    J->FileBytes = HeaderBytes;
    Report.FirstLsn = Report.NextLsn = 1;
    return J;
  }

  J->FirstLsn = loadLE64(Bytes.data() + 8);
  if (J->FirstLsn == 0)
    J->FirstLsn = 1;
  uint64_t Lsn = J->FirstLsn;
  size_t Off = HeaderBytes;
  std::string TornReason;
  while (Off < Bytes.size()) {
    size_t Left = Bytes.size() - Off;
    uint32_t Len = 0;
    FrameCheck C = checkFrame(Bytes.data() + Off, Left, Len);
    DurableRecord R;
    std::string DecodeError;
    if (C != FrameCheck::Ok ||
        !decodeRecord(Bytes.data() + Off + FrameHeaderBytes, Len, R,
                      DecodeError)) {
      if (C == FrameCheck::TornHeader)
        TornReason = "incomplete frame header (" + std::to_string(Left) +
                     " of 8 bytes)";
      else if (C == FrameCheck::BadLength)
        TornReason =
            "frame length " + std::to_string(Len) + " is implausible";
      else if (C == FrameCheck::TornBody)
        TornReason = "frame body truncated (" + std::to_string(Left - 8) +
                     " of " + std::to_string(Len) + " bytes)";
      else if (C == FrameCheck::BadChecksum)
        TornReason = "frame checksum mismatch";
      else
        TornReason = "frame decodes to garbage: " + DecodeError;
      break;
    }
    R.Lsn = Lsn++;
    if (Records)
      Records->push_back(std::move(R));
    ++Report.RecordsScanned;
    Off += FrameHeaderBytes + Len;
  }

  if (Off < Bytes.size()) {
    quarantineBytes(Path, Bytes.data() + Off, Bytes.size() - Off);
    if (::ftruncate(Fd, static_cast<off_t>(Off)) < 0) {
      Error = errnoString("truncate torn tail of", Path);
      return nullptr;
    }
    ::fsync(Fd);
    Report.TailQuarantined = true;
    Report.TailReason = TornReason;
    Report.TailOffset = Off;
    Report.QuarantinedBytes = Bytes.size() - Off;
  }

  J->NextLsnValue = Lsn;
  J->FileBytes = Off;
  Report.FirstLsn = J->FirstLsn;
  Report.NextLsn = Lsn;
  return J;
}

uint64_t DeltaJournal::append(const DurableRecord &R, std::string &Error) {
  std::vector<uint8_t> Body = encodeRecord(R);
  std::vector<uint8_t> Frame;
  Frame.reserve(FrameHeaderBytes + Body.size());
  ByteWriter W(Frame);
  W.u32(static_cast<uint32_t>(Body.size()));
  W.u32(crc32(Body.data(), Body.size()));
  W.raw(Body.data(), Body.size());

  std::lock_guard<std::mutex> L(M);
  if (FaultInjection::maybeTornWrite()) {
    // Simulate kill -9 landing mid-append: persist only a prefix of the
    // frame (forced to disk so the torn tail is really there on restart),
    // then die without any cleanup.
    size_t Prefix = std::max<size_t>(1, Frame.size() / 2);
    std::string Ignored;
    writeAllAt(Fd, FileBytes, Frame.data(), Prefix, Path, Ignored);
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (!writeAllAt(Fd, FileBytes, Frame.data(), Frame.size(), Path, Error)) {
    // Clear any partial frame so the next append starts on a clean
    // boundary instead of burying garbage mid-file.
    ::ftruncate(Fd, static_cast<off_t>(FileBytes));
    return 0;
  }
  if (FaultInjection::maybeCrashAt("durable.append")) {
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (Fsync == FsyncPolicy::Always) {
    int Rc;
    do {
      Rc = ::fsync(Fd);
    } while (Rc < 0 && errno == EINTR);
    if (Rc < 0) {
      Error = errnoString("fsync", Path);
      ::ftruncate(Fd, static_cast<off_t>(FileBytes));
      return 0;
    }
  }
  FileBytes += Frame.size();
  uint64_t Lsn = NextLsnValue++;
  noteChange();
  return Lsn;
}

bool DeltaJournal::sync(std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  if (Fsync == FsyncPolicy::Never)
    return true;
  int Rc;
  do {
    Rc = ::fsync(Fd);
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    Error = errnoString("fsync", Path);
    return false;
  }
  return true;
}

DeltaJournal::ReadResult
DeltaJournal::readFrames(ReadCursor &Cursor, uint64_t MaxBytes,
                         uint32_t MaxRecords, std::vector<uint8_t> &Raw,
                         uint32_t &Count, std::string &Error) {
  Count = 0;
  std::lock_guard<std::mutex> L(M);
  if (Cursor.NextLsn < FirstLsn)
    return ReadResult::Rotated;
  if (Cursor.NextLsn >= NextLsnValue)
    return ReadResult::AtEnd;

  auto ReadAt = [&](uint64_t Off, uint8_t *Buf, size_t Len) -> bool {
    size_t Got = 0;
    while (Got < Len) {
      ssize_t N = ::pread(Fd, Buf + Got, Len - Got,
                          static_cast<off_t>(Off + Got));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Error = errnoString("read", Path);
        return false;
      }
      if (N == 0) {
        Error = "journal '" + Path + "' ends before its committed bytes";
        return false;
      }
      Got += static_cast<size_t>(N);
    }
    return true;
  };

  // Revalidate (or rebuild) the cached byte offset of the cursor's frame.
  // A rotation replaces the file, so any offset computed against a
  // different firstLsn is meaningless.
  uint64_t Off = Cursor.Offset;
  if (Cursor.OffsetFirstLsn != FirstLsn || Off < HeaderBytes) {
    Off = HeaderBytes;
    for (uint64_t Lsn = FirstLsn; Lsn < Cursor.NextLsn; ++Lsn) {
      uint8_t FH[FrameHeaderBytes];
      if (!ReadAt(Off, FH, sizeof(FH)))
        return ReadResult::IoError;
      uint32_t Len = 0;
      if (checkFrameHeader(FH, FileBytes - Off, Len) != FrameCheck::Ok) {
        Error = "journal '" + Path + "' frame at offset " +
                std::to_string(Off) + " is garbled below the append point";
        return ReadResult::IoError;
      }
      Off += FrameHeaderBytes + Len;
    }
  }

  std::vector<uint8_t> Frame;
  while (Cursor.NextLsn + Count < NextLsnValue && Count < MaxRecords &&
         static_cast<uint64_t>(Raw.size()) < MaxBytes) {
    if (Off + FrameHeaderBytes > FileBytes) {
      Error = "journal '" + Path + "' is shorter than its committed frames";
      return ReadResult::IoError;
    }
    Frame.resize(FrameHeaderBytes);
    if (!ReadAt(Off, Frame.data(), FrameHeaderBytes))
      return ReadResult::IoError;
    uint32_t Len = 0;
    if (checkFrameHeader(Frame.data(), FileBytes - Off, Len) !=
        FrameCheck::Ok) {
      Error = "journal '" + Path + "' frame at offset " + std::to_string(Off) +
              " is garbled below the append point";
      return ReadResult::IoError;
    }
    Frame.resize(FrameHeaderBytes + Len);
    if (Len > 0 &&
        !ReadAt(Off + FrameHeaderBytes, Frame.data() + FrameHeaderBytes, Len))
      return ReadResult::IoError;
    // Never ship a frame whose bytes no longer match their checksum: local
    // corruption must surface here, not on the standby.
    if (checkFrame(Frame.data(), Frame.size(), Len) != FrameCheck::Ok) {
      Error = "journal '" + Path + "' frame at offset " + std::to_string(Off) +
              " fails its checksum";
      return ReadResult::IoError;
    }
    Raw.insert(Raw.end(), Frame.begin(), Frame.end());
    Off += Frame.size();
    ++Count;
  }
  Cursor.NextLsn += Count;
  Cursor.Offset = Off;
  Cursor.OffsetFirstLsn = FirstLsn;
  return ReadResult::Ok;
}

bool DeltaJournal::appendRaw(const uint8_t *Frames, size_t Len,
                             uint64_t ExpectedFirstLsn,
                             uint32_t ExpectedCount,
                             std::vector<DurableRecord> *Records,
                             std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  if (ExpectedFirstLsn != NextLsnValue) {
    Error = "replicated batch starts at LSN " +
            std::to_string(ExpectedFirstLsn) + " but this journal's next "
            "LSN is " + std::to_string(NextLsnValue);
    return false;
  }
  // Validate every frame BEFORE writing a byte: a garbled shipped batch
  // must not bury garbage mid-file.
  size_t FirstRecord = Records ? Records->size() : 0;
  uint64_t Lsn = ExpectedFirstLsn;
  uint32_t Seen = 0;
  size_t Off = 0;
  while (Off < Len) {
    uint32_t BodyLen = 0;
    FrameCheck C = checkFrame(Frames + Off, Len - Off, BodyLen);
    DurableRecord R;
    std::string DecodeError;
    if (C != FrameCheck::Ok ||
        !decodeRecord(Frames + Off + FrameHeaderBytes, BodyLen, R,
                      DecodeError)) {
      std::string At = "replicated batch frame at offset " +
                       std::to_string(Off);
      if (C == FrameCheck::TornHeader)
        Error = "replicated batch has a torn frame header (" +
                std::to_string(Len - Off) + " of 8 bytes)";
      else if (C == FrameCheck::BadLength || C == FrameCheck::TornBody)
        Error = At + " overruns the batch (" + std::to_string(BodyLen) +
                " bytes)";
      else if (C == FrameCheck::BadChecksum)
        Error = At + " fails its checksum";
      else
        Error = At + " decodes to garbage: " + DecodeError;
      if (Records)
        Records->resize(FirstRecord);
      return false;
    }
    R.Lsn = Lsn++;
    if (Records)
      Records->push_back(std::move(R));
    Off += 8 + BodyLen;
    ++Seen;
  }
  if (Seen != ExpectedCount) {
    Error = "replicated batch carries " + std::to_string(Seen) +
            " frame(s) but announced " + std::to_string(ExpectedCount);
    if (Records)
      Records->resize(FirstRecord);
    return false;
  }
  if (Seen == 0)
    return true;

  if (FaultInjection::maybeTornWrite()) {
    size_t Prefix = std::max<size_t>(1, Len / 2);
    std::string Ignored;
    writeAllAt(Fd, FileBytes, Frames, Prefix, Path, Ignored);
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (!writeAllAt(Fd, FileBytes, Frames, Len, Path, Error)) {
    ::ftruncate(Fd, static_cast<off_t>(FileBytes));
    if (Records)
      Records->resize(FirstRecord);
    return false;
  }
  if (Fsync == FsyncPolicy::Always) {
    int Rc;
    do {
      Rc = ::fsync(Fd);
    } while (Rc < 0 && errno == EINTR);
    if (Rc < 0) {
      Error = errnoString("fsync", Path);
      ::ftruncate(Fd, static_cast<off_t>(FileBytes));
      if (Records)
        Records->resize(FirstRecord);
      return false;
    }
  }
  FileBytes += Len;
  NextLsnValue += Seen;
  noteChange();
  return true;
}

bool DeltaJournal::rotate(std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  return rotateToLocked(NextLsnValue, Error);
}

bool DeltaJournal::resetTo(uint64_t FirstLsn, std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  return rotateToLocked(FirstLsn, Error);
}

bool DeltaJournal::rotateToLocked(uint64_t NewFirstLsn, std::string &Error) {
  std::string NewPath = Path + ".new";
  int NewFd =
      ::open(NewPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (NewFd < 0) {
    Error = errnoString("open", NewPath);
    return false;
  }
  uint8_t H[HeaderBytes];
  storeHeader(H, NewFirstLsn);
  if (!writeAllAt(NewFd, 0, H, sizeof(H), NewPath, Error)) {
    ::close(NewFd);
    ::unlink(NewPath.c_str());
    return false;
  }
  // The replacement must be durable BEFORE it replaces the journal: a
  // crash after the rename may otherwise leave a journal whose header was
  // never written, losing the LSN chain.
  int Rc;
  do {
    Rc = ::fsync(NewFd);
  } while (Rc < 0 && errno == EINTR);
  ::close(NewFd);
  if (Rc < 0) {
    Error = errnoString("fsync", NewPath);
    ::unlink(NewPath.c_str());
    return false;
  }
  if (FaultInjection::maybeCrashAt("durable.truncate"))
    FaultInjection::dieAtCrashPoint();
  if (::rename(NewPath.c_str(), Path.c_str()) < 0) {
    Error = errnoString("rename", NewPath);
    ::unlink(NewPath.c_str());
    return false;
  }
  if (!fsyncDirOf(Path, Error))
    return false;
  // Our fd still names the old inode; adopt the replacement.
  int ReFd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (ReFd < 0) {
    Error = errnoString("reopen", Path);
    return false;
  }
  ::close(Fd);
  Fd = ReFd;
  FirstLsn = NewFirstLsn;
  NextLsnValue = NewFirstLsn; // No-op for rotate(); the reset for resetTo().
  FileBytes = HeaderBytes;
  noteChange();
  return true;
}

void DeltaJournal::noteChange() {
  {
    std::lock_guard<std::mutex> L(ChangeMu);
    ++ChangeSeq;
  }
  ChangeCv.notify_all();
}

uint64_t DeltaJournal::changeSeq() const {
  std::lock_guard<std::mutex> L(ChangeMu);
  return ChangeSeq;
}

void DeltaJournal::waitForChange(uint64_t Seen,
                                 const std::function<bool()> &Done) {
  std::unique_lock<std::mutex> L(ChangeMu);
  ChangeCv.wait(L, [&] { return ChangeSeq != Seen || Done(); });
}

void DeltaJournal::wakeReaders() {
  // Taking ChangeMu orders the caller's Done-state change before any
  // waiter's next predicate check, so the notify cannot fall between a
  // check and its sleep.
  { std::lock_guard<std::mutex> L(ChangeMu); }
  ChangeCv.notify_all();
}

uint64_t DeltaJournal::nextLsn() const {
  std::lock_guard<std::mutex> L(M);
  return NextLsnValue;
}

uint64_t DeltaJournal::lastLsn() const {
  std::lock_guard<std::mutex> L(M);
  return NextLsnValue - 1;
}

uint64_t DeltaJournal::sizeBytes() const {
  std::lock_guard<std::mutex> L(M);
  return FileBytes;
}
