//===--- durable/Snapshot.cpp - Checksummed per-session snapshots ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Snapshot.h"

#include "support/FaultInjection.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;

namespace {

constexpr uint32_t SnapshotMagic = 0x53535450; // "PTSS" little-endian.
constexpr uint32_t SnapshotVersion = 1;

std::string errnoString(const char *What, const std::string &Path) {
  return std::string(What) + " '" + Path + "': " + std::strerror(errno);
}

bool writeAllFd(int Fd, const uint8_t *Data, size_t Size,
                const std::string &Path, std::string &Error) {
  while (Size > 0) {
    size_t Want = FaultInjection::maybeShortWrite(Size);
    ssize_t N = ::write(Fd, Data, Want);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("write", Path);
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool fsyncFd(int Fd, const std::string &Path, std::string &Error) {
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

} // namespace

std::vector<uint8_t> durable::encodeSnapshot(const DurableSessionState &State,
                                             uint64_t Watermark) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u32(SnapshotMagic);
  W.u32(SnapshotVersion);
  W.u64(Watermark);
  W.str(State.Name);
  W.str(State.Source);
  W.u32(State.Mode);
  W.u32(State.LoopVariance);
  W.u32(State.OnBadProfile);
  W.u64(State.Runs);
  W.u64(State.ProfileImage.size());
  W.raw(State.ProfileImage.data(), State.ProfileImage.size());
  encodeFolds(W, State.External, State.Saturated);
  W.u32(static_cast<uint32_t>(State.Quarantined.size()));
  for (const auto &Q : State.Quarantined) {
    W.str(Q.first);
    W.str(Q.second);
  }
  W.u32(crc32(Out.data(), Out.size()));
  return Out;
}

bool durable::decodeSnapshot(const uint8_t *Data, size_t Len,
                             DurableSessionState &State, uint64_t &Watermark,
                             std::string &Error) {
  if (Len < 4 + 4 + 8 + 4) {
    Error = "snapshot is truncated (shorter than its fixed fields)";
    return false;
  }
  ByteReader Rd(Data, Len - 4);
  if (Rd.u32() != SnapshotMagic) {
    Error = "bad snapshot magic (not a PTSS file)";
    return false;
  }
  if (uint32_t V = Rd.u32(); V != SnapshotVersion) {
    Error = "unsupported snapshot version " + std::to_string(V);
    return false;
  }
  // CRC before content: a torn or bit-rotted snapshot must not be half
  // trusted.
  if (crc32(Data, Len - 4) != loadLE32(Data + Len - 4)) {
    Error = "snapshot checksum mismatch (corrupt or truncated file)";
    return false;
  }

  State = DurableSessionState();
  Watermark = Rd.u64();
  State.Name = Rd.str();
  State.Source = Rd.str();
  State.Mode = Rd.u32();
  State.LoopVariance = Rd.u32();
  State.OnBadProfile = Rd.u32();
  State.Runs = Rd.u64();
  State.ProfileImage = Rd.bytes(Rd.u64());
  decodeFolds(Rd, State.External, State.Saturated);
  uint32_t NumQuarantined = Rd.u32();
  for (uint32_t I = 0; Rd.ok() && I < NumQuarantined; ++I) {
    std::string Fn = Rd.str();
    std::string Reason = Rd.str();
    State.Quarantined.emplace_back(std::move(Fn), std::move(Reason));
  }
  if (!Rd.ok()) {
    Error = "snapshot payload is truncated";
    return false;
  }
  if (!Rd.atEnd()) {
    Error = "snapshot payload has trailing bytes";
    return false;
  }
  return true;
}

std::string durable::snapshotFileName(const std::string &SessionName) {
  // FNV-1a 64: stable across platforms, no separator ambiguity, and safe
  // for any session name a client can send.
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : SessionName) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "snap-%016llx.snap",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool durable::writeSnapshotFile(const std::string &Dir,
                                const DurableSessionState &State,
                                uint64_t Watermark, std::string &Error) {
  std::vector<uint8_t> Image = encodeSnapshot(State, Watermark);
  std::string Final = Dir + "/" + snapshotFileName(State.Name);
  std::string Tmp = Final + ".tmp";

  int Fd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    Error = errnoString("open", Tmp);
    return false;
  }
  if (!writeAllFd(Fd, Image.data(), Image.size(), Tmp, Error) ||
      !fsyncFd(Fd, Tmp, Error)) {
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return false;
  }
  ::close(Fd);
  if (FaultInjection::maybeCrashAt("durable.snapshot"))
    FaultInjection::dieAtCrashPoint();
  if (::rename(Tmp.c_str(), Final.c_str()) < 0) {
    Error = errnoString("rename", Tmp);
    ::unlink(Tmp.c_str());
    return false;
  }
  int D = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (D < 0) {
    Error = errnoString("open directory", Dir);
    return false;
  }
  bool Ok = fsyncFd(D, Dir, Error);
  ::close(D);
  return Ok;
}

bool durable::readSnapshotFile(const std::string &Path,
                               DurableSessionState &State,
                               uint64_t &Watermark, std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = errnoString("open", Path);
    return false;
  }
  std::vector<uint8_t> Bytes;
  off_t EndOff = ::lseek(Fd, 0, SEEK_END);
  if (EndOff < 0) {
    Error = errnoString("seek", Path);
    ::close(Fd);
    return false;
  }
  Bytes.resize(static_cast<size_t>(EndOff));
  size_t Got = 0;
  while (Got < Bytes.size()) {
    ssize_t N = ::pread(Fd, Bytes.data() + Got, Bytes.size() - Got,
                        static_cast<off_t>(Got));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("read", Path);
      ::close(Fd);
      return false;
    }
    if (N == 0) {
      Bytes.resize(Got);
      break;
    }
    Got += static_cast<size_t>(N);
  }
  ::close(Fd);
  return decodeSnapshot(Bytes.data(), Bytes.size(), State, Watermark, Error);
}
