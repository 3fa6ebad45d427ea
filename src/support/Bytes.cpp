//===--- support/Bytes.cpp - CRC32 ----------------------------------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"

#include <array>

namespace {

constexpr std::array<uint32_t, 256> CrcTable = [] {
  std::array<uint32_t, 256> T{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[I] = C;
  }
  return T;
}();

} // namespace

uint32_t ptran::crc32(const uint8_t *Data, size_t Len) {
  uint32_t State = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    State = CrcTable[(State ^ Data[I]) & 0xFFu] ^ (State >> 8);
  return State ^ 0xFFFFFFFFu;
}
