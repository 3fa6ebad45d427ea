//===--- serve/Wire.cpp - Unix-socket framing transport -------------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Wire.h"

#include "support/Bytes.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::serve;

static std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

static bool fillAddress(const std::string &Path, sockaddr_un &Addr,
                        std::string &Error) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path '" + Path + "' exceeds the " +
            std::to_string(sizeof(Addr.sun_path) - 1) + "-byte sun_path limit";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// True when a socket file at \p Path has a live listener behind it,
/// decided by actually connecting: ECONNREFUSED (or ENOENT) means the
/// daemon that bound it is gone and the file is a stale leftover.
static bool socketIsLive(const sockaddr_un &Addr) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false; // Cannot probe; bind will report the conflict.
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                   sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  ::close(Fd);
  return Rc == 0;
}

int serve::listenUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return -1;
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE — but unlinking unconditionally would steal the path from
  // a RUNNING daemon (its listener keeps working, invisible to new
  // clients). Probe with a real connect first: only a dead socket file is
  // removed, a live one (or a non-socket file) is refused.
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      Error = "path '" + Path + "' exists and is not a socket; refusing to "
              "remove it";
      return -1;
    }
    if (socketIsLive(Addr)) {
      Error = "another daemon is already listening on '" + Path + "'";
      return -1;
    }
    ::unlink(Path.c_str());
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = errnoString("socket");
    return -1;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = errnoString("bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 256) < 0) {
    Error = errnoString("listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int serve::connectUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = errnoString("socket");
    return -1;
  }
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    Error = errnoString("connect");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

static bool writeAll(int Fd, const uint8_t *Data, size_t Size,
                     std::string &Error) {
  while (Size > 0) {
    ssize_t N = ::send(Fd, Data, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("send");
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

namespace {

/// The mid-transfer stall budget of one read. TimeoutMs < 0 means none;
/// otherwise the deadline is unarmed (no limit) until arm(), and then one
/// deadline covers every remaining byte of the transfer.
struct StallDeadline {
  int TimeoutMs = -1;
  bool Armed = false;
  std::chrono::steady_clock::time_point At{};

  void arm() {
    if (TimeoutMs < 0 || Armed)
      return;
    Armed = true;
    At = std::chrono::steady_clock::now() +
         std::chrono::milliseconds(TimeoutMs);
  }
};

} // namespace

/// Fills bytes [\p Got, \p End) of the \p Size-byte \p What at \p Data.
/// 1 = filled, 0 = clean EOF before the transfer's first byte (\p Got is
/// 0), -1 = error/short EOF/stall. A short EOF (the peer closed after some
/// but not all of the bytes) produces a structured "truncated frame" error
/// naming the byte counts; the partially-filled buffer is never handed
/// onward.
///
/// Once \p Deadline is armed, each recv is preceded by a poll for the
/// remaining budget, and running it dry yields the same structured error
/// with "stalled" in place of "closed". A received byte arms it (prefix
/// reads: a connection idling between requests is not a stall); payload
/// reads arm it before the first byte, since the prefix promised data.
static int readAll(int Fd, uint8_t *Data, size_t Got, size_t End,
                   size_t Size, const char *What, std::string &Error,
                   StallDeadline &Deadline) {
  while (Got < End) {
    if (Deadline.Armed) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
          Deadline.At - std::chrono::steady_clock::now());
      struct pollfd Pf = {Fd, POLLIN, 0};
      int Ready;
      do {
        Ready = ::poll(&Pf, 1,
                       static_cast<int>(std::max<int64_t>(0, Left.count())));
      } while (Ready < 0 && errno == EINTR);
      if (Ready < 0) {
        Error = errnoString("poll");
        return -1;
      }
      if (Ready == 0) {
        Error = "truncated frame: peer stalled after " + std::to_string(Got) +
                " of " + std::to_string(Size) + " " + What + " bytes";
        return -1;
      }
    }
    ssize_t N = ::recv(Fd, Data + Got, End - Got, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("recv");
      return -1;
    }
    if (N == 0) {
      if (Got == 0)
        return 0;
      Error = "truncated frame: peer closed after " + std::to_string(Got) +
              " of " + std::to_string(Size) + " " + What + " bytes";
      return -1;
    }
    Got += static_cast<size_t>(N);
    Deadline.arm();
  }
  return 1;
}

bool serve::writeFrame(int Fd, const WireMessage &M, std::string &Error) {
  std::optional<std::vector<uint8_t>> Payload = encodeFrame(M, Error);
  if (!Payload)
    return false;
  uint8_t Prefix[4];
  storeLE32(Prefix, static_cast<uint32_t>(Payload->size()));
  return writeAll(Fd, Prefix, sizeof(Prefix), Error) &&
         writeAll(Fd, Payload->data(), Payload->size(), Error);
}

int serve::readFrame(int Fd, WireMessage &M, std::string &Error,
                     int MidFrameTimeoutMs) {
  uint8_t Prefix[4];
  StallDeadline PrefixDeadline{MidFrameTimeoutMs};
  int Rc = readAll(Fd, Prefix, 0, sizeof(Prefix), sizeof(Prefix),
                   "length-prefix", Error, PrefixDeadline);
  if (Rc <= 0)
    return Rc;
  uint32_t Len = loadLE32(Prefix);
  if (Len > MaxFramePayload) {
    Error = "frame length " + std::to_string(Len) + " exceeds the " +
            std::to_string(MaxFramePayload) + "-byte limit";
    return -1;
  }
  // The buffer grows as bytes arrive, never more than one step ahead of
  // them: a prefix is only the peer's word, and a peer that promises
  // MaxFramePayload and then stalls must not pin that much memory. A
  // frame under one step is still one allocation and one readAll.
  constexpr size_t GrowStep = size_t(1) << 20;
  std::vector<uint8_t> Payload;
  StallDeadline PayloadDeadline{MidFrameTimeoutMs};
  PayloadDeadline.arm();
  while (Payload.size() < Len) {
    size_t Got = Payload.size();
    Payload.resize(std::min<size_t>(Len, Got + GrowStep));
    int PayloadRc = readAll(Fd, Payload.data(), Got, Payload.size(), Len,
                            "payload", Error, PayloadDeadline);
    if (PayloadRc != 1) {
      // A clean EOF here still truncates the frame: the prefix promised
      // Len payload bytes and none arrived. Nothing partial ever reaches
      // the codec.
      if (PayloadRc == 0)
        Error = "truncated frame: peer closed after 0 of " +
                std::to_string(Len) + " payload bytes";
      return -1;
    }
  }
  std::optional<WireMessage> Decoded =
      decodeFrame(Payload.data(), Payload.size(), Error);
  if (!Decoded)
    return -1;
  M = std::move(*Decoded);
  return 1;
}
