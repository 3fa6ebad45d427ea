//===--- serve/Wire.h - Unix-socket framing transport -----------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The POSIX transport under Protocol.h: listen/connect on a Unix-domain
/// stream socket and move whole frames (u32 LE payload length, then the
/// encodeFrame payload) across it. All loops retry EINTR and handle short
/// reads/writes; writes use MSG_NOSIGNAL so a vanished peer surfaces as an
/// error return instead of SIGPIPE.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SERVE_WIRE_H
#define PTRAN_SERVE_WIRE_H

#include "serve/Protocol.h"

#include <string>

namespace ptran {
namespace serve {

/// Creates, binds and listens on a Unix-domain stream socket at \p Path
/// (unlinking any stale socket file first). Returns the listening fd, or
/// -1 with \p Error set.
int listenUnix(const std::string &Path, std::string &Error);

/// Connects to the daemon at \p Path. Returns the connected fd, or -1
/// with \p Error set.
int connectUnix(const std::string &Path, std::string &Error);

/// Encodes \p M and writes it as one length-prefixed frame. False (with
/// \p Error set) on encode or IO failure.
bool writeFrame(int Fd, const WireMessage &M, std::string &Error);

/// Reads one frame into \p M. Returns 1 on success, 0 on clean EOF before
/// any byte of a frame (the peer hung up between messages), -1 (with
/// \p Error set) on a malformed frame or IO failure. A peer that closes
/// mid-frame — after part of the 4-byte length prefix, or before the
/// prefix's promised payload bytes all arrive — yields a structured
/// "truncated frame: peer closed after N of M ... bytes" error; a
/// partially-filled buffer is never handed to the codec. The payload
/// buffer grows in 1 MiB steps as bytes arrive, so a length prefix alone
/// never allocates more than one step.
///
/// \p MidFrameTimeoutMs (when >= 0) bounds how long the peer may STALL
/// inside a frame: the deadline arms once the first prefix byte arrives
/// (an idle connection between requests may block forever — that is the
/// server's normal wait state) and covers the rest of the frame. A stall
/// past the deadline yields the same structured error shape with
/// "stalled" in place of "closed", so a half-sent length prefix can no
/// longer pin a pool thread for the life of the process.
int readFrame(int Fd, WireMessage &M, std::string &Error,
              int MidFrameTimeoutMs = -1);

} // namespace serve
} // namespace ptran

#endif // PTRAN_SERVE_WIRE_H
