//===--- serve/Protocol.cpp - Daemon wire protocol ------------------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Bytes.h"

using namespace ptran;
using namespace ptran::serve;

static bool validToken(const std::string &Text, bool AllowEquals) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (C == '\n' || C == '\r' || C == '\0' || (!AllowEquals && C == '='))
      return false;
  return true;
}

std::optional<std::vector<uint8_t>>
serve::encodeFrame(const WireMessage &M, std::string &Error) {
  if (!validToken(M.Verb, /*AllowEquals=*/false)) {
    Error = "verb must be a non-empty single-line token without '='";
    return std::nullopt;
  }
  std::string Header = M.Verb;
  for (const auto &[Key, Value] : M.Params) {
    if (!validToken(Key, /*AllowEquals=*/false)) {
      Error = "parameter key '" + Key + "' is not a single-line token";
      return std::nullopt;
    }
    // Values may contain '=' (the parser splits on the first one) but a
    // newline would be parsed as the next parameter: reject it here
    // rather than silently corrupt the frame.
    if (Value.find_first_of("\n\r") != std::string::npos ||
        Value.find('\0') != std::string::npos) {
      Error = "parameter '" + Key + "' value contains newline or NUL; "
              "large or binary data belongs in the body";
      return std::nullopt;
    }
    Header += '\n';
    Header += Key;
    Header += '=';
    Header += Value;
  }
  uint64_t Payload = 4 + Header.size() + M.Body.size();
  if (Payload > MaxFramePayload) {
    Error = "frame payload of " + std::to_string(Payload) +
            " bytes exceeds the " + std::to_string(MaxFramePayload) +
            "-byte limit";
    return std::nullopt;
  }
  std::vector<uint8_t> Out;
  Out.reserve(Payload);
  ByteWriter W(Out);
  W.str(Header);
  W.raw(M.Body.data(), M.Body.size());
  return Out;
}

std::optional<WireMessage> serve::decodeFrame(const uint8_t *Data, size_t Size,
                                              std::string &Error) {
  if (Size < 4) {
    Error = "frame shorter than its header-length field";
    return std::nullopt;
  }
  uint32_t HeaderLen = loadLE32(Data);
  if (static_cast<uint64_t>(HeaderLen) + 4 > Size) {
    Error = "frame header length " + std::to_string(HeaderLen) +
            " exceeds the payload";
    return std::nullopt;
  }
  std::string Header(reinterpret_cast<const char *>(Data + 4), HeaderLen);
  WireMessage M;
  M.Body.assign(reinterpret_cast<const char *>(Data + 4 + HeaderLen),
                Size - 4 - HeaderLen);

  size_t Pos = 0;
  bool First = true;
  while (Pos <= Header.size()) {
    size_t End = Header.find('\n', Pos);
    if (End == std::string::npos)
      End = Header.size();
    std::string Line = Header.substr(Pos, End - Pos);
    Pos = End + 1;
    if (First) {
      if (Line.empty()) {
        Error = "frame has an empty verb";
        return std::nullopt;
      }
      M.Verb = Line;
      First = false;
      if (Pos > Header.size())
        break;
      continue;
    }
    if (Line.empty()) {
      if (Pos > Header.size())
        break;
      Error = "frame header contains an empty parameter line";
      return std::nullopt;
    }
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      Error = "frame parameter line '" + Line + "' is not key=value";
      return std::nullopt;
    }
    M.Params[Line.substr(0, Eq)] = Line.substr(Eq + 1);
    if (Pos > Header.size())
      break;
  }
  if (First) {
    Error = "frame has an empty verb";
    return std::nullopt;
  }
  return M;
}

WireMessage serve::okResponse() {
  WireMessage M;
  M.Verb = "ok";
  return M;
}

WireMessage serve::errorResponse(const std::string &Code,
                                 const std::string &Message) {
  WireMessage M;
  M.Verb = "error";
  M.Params["code"] = Code;
  M.Params["message"] = Message;
  return M;
}
