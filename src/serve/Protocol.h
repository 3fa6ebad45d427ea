//===--- serve/Protocol.h - Daemon wire protocol ----------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed request/response protocol spoken between
/// ptran-serve and its clients. One message is one frame:
///
///   u32 LE  payload length (headerLen field + header + body)
///   u32 LE  header length
///   bytes   header text
///   bytes   body (raw, may be binary — a PTPF profile image, program
///           source, a stats table)
///
/// The header text is line-oriented: the first line is the verb (requests:
/// the rows of ServeCore's verb table in Server.cpp — `estimate`,
/// `estimate-batch`, `stream-deltas`, `ingest-profile`, `capture-profile`,
/// `run`, `load-program`, `checkpoint`, `stats`, `ping`, `shutdown`,
/// `promote` — plus `repl-subscribe`, which the daemon's connection loop
/// serves; responses: `ok` or `error`), every further line one
/// `key=value` parameter. Keys are bare identifiers; values run to the
/// end of the line, so they may contain '=' but not newlines — anything
/// bigger or binary travels in the body.
///
/// This header knows nothing about sockets: encodeFrame/decodeFrame map
/// between WireMessage and the payload bytes, so the protocol is testable
/// without IO and transports other than Wire.h can reuse it.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SERVE_PROTOCOL_H
#define PTRAN_SERVE_PROTOCOL_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ptran {
namespace serve {

/// One request or response. Verb is the request verb or the response
/// status ("ok"/"error"); Params carries small scalar fields; Body carries
/// bulk or binary payloads verbatim.
struct WireMessage {
  std::string Verb;
  std::map<std::string, std::string> Params;
  std::string Body;

  /// Value of \p Key, or \p Default when absent.
  std::string param(const std::string &Key,
                    const std::string &Default = {}) const {
    auto It = Params.find(Key);
    return It == Params.end() ? Default : It->second;
  }
  bool hasParam(const std::string &Key) const { return Params.count(Key); }
};

/// Upper bound on one frame's payload. Large enough for any profile or
/// workload this project ships; small enough that a garbled length prefix
/// cannot make a reader allocate gigabytes.
inline constexpr uint32_t MaxFramePayload = 64u << 20;

/// Serializes \p M as one frame payload (headerLen + header + body; the
/// outer u32 payload-length prefix is the transport's job). Returns
/// nullopt (and sets \p Error) when the message cannot be framed: a verb
/// or key with newlines/'=', or a payload exceeding MaxFramePayload.
std::optional<std::vector<uint8_t>> encodeFrame(const WireMessage &M,
                                                std::string &Error);

/// Parses one frame payload. Returns nullopt (and sets \p Error) on a
/// malformed frame: truncated header, empty verb, parameter line without
/// '='.
std::optional<WireMessage> decodeFrame(const uint8_t *Data, size_t Size,
                                       std::string &Error);

/// Convenience constructors for the two response shapes.
WireMessage okResponse();
WireMessage errorResponse(const std::string &Code,
                          const std::string &Message);

} // namespace serve
} // namespace ptran

#endif // PTRAN_SERVE_PROTOCOL_H
