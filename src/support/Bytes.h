//===--- support/Bytes.h - Little-endian byte codec and CRC32 ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte codec behind every binary format the project reads or
/// writes: PTPF profiles, wire frames, journal records and frames, PTSS
/// snapshots and stream-deltas records. All integers are little-endian,
/// doubles travel as their IEEE 754 bit pattern in a u64, and strings are
/// a u32 byte count followed by the bytes. CRC32 is IEEE 802.3
/// (polynomial 0xEDB88320).
///
/// ByteReader is the decoder for untrusted bytes: every get checks the
/// remaining length before it reads, and a short read returns zero (or an
/// empty string/vector) and latches ok() to false. Callers decode a whole
/// structure and check ok() once at the end; garbled input can make ok()
/// false but never cause an out-of-bounds read.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_BYTES_H
#define PTRAN_SUPPORT_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ptran {

/// Fixed-buffer loads and stores, for headers and records of known size.
/// Written as byte shifts so they are correct on any host; compilers fold
/// them into single loads and stores.
inline uint32_t loadLE32(const uint8_t *B) {
  return static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
         (static_cast<uint32_t>(B[2]) << 16) |
         (static_cast<uint32_t>(B[3]) << 24);
}

inline uint64_t loadLE64(const uint8_t *B) {
  return static_cast<uint64_t>(loadLE32(B)) |
         (static_cast<uint64_t>(loadLE32(B + 4)) << 32);
}

inline void storeLE32(uint8_t *B, uint32_t V) {
  B[0] = static_cast<uint8_t>(V);
  B[1] = static_cast<uint8_t>(V >> 8);
  B[2] = static_cast<uint8_t>(V >> 16);
  B[3] = static_cast<uint8_t>(V >> 24);
}

inline void storeLE64(uint8_t *B, uint64_t V) {
  storeLE32(B, static_cast<uint32_t>(V));
  storeLE32(B + 4, static_cast<uint32_t>(V >> 32));
}

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320) of \p Len bytes at \p Data.
uint32_t crc32(const uint8_t *Data, size_t Len);

/// Appends little-endian fields to a caller-owned vector.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(V); }
  void u32(uint32_t V) {
    uint8_t B[4];
    storeLE32(B, V);
    raw(B, sizeof(B));
  }
  void u64(uint64_t V) {
    uint8_t B[8];
    storeLE64(B, V);
    raw(B, sizeof(B));
  }
  void f64(double V) { u64(std::bit_cast<uint64_t>(V)); }
  /// u32 byte count, then the bytes.
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    raw(S.data(), S.size());
  }
  void raw(const void *Data, size_t Len) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Out.insert(Out.end(), P, P + Len);
  }

private:
  std::vector<uint8_t> &Out;
};

/// Bounds-checked little-endian reader over a borrowed byte range (see
/// the file comment for the latch-on-short-read contract).
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  uint8_t u8() { return need(1) ? Data[Pos++] : 0; }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = loadLE32(Data + Pos);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = loadLE64(Data + Pos);
    Pos += 8;
    return V;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  /// u32 byte count, then the bytes.
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
  /// The next \p N raw bytes.
  std::vector<uint8_t> bytes(uint64_t N) {
    if (!need(N))
      return {};
    std::vector<uint8_t> B(Data + Pos, Data + Pos + N);
    Pos += N;
    return B;
  }

  /// False once any get ran past the end; sticky.
  bool ok() const { return Good; }
  /// Every byte consumed (and no short read).
  bool atEnd() const { return Good && Pos == Len; }
  /// Unread bytes; 0 after a short read.
  size_t remaining() const { return Good ? Len - Pos : 0; }
  /// Offset of the next unread byte.
  size_t pos() const { return Pos; }

private:
  bool need(uint64_t N) {
    if (!Good || N > Len - Pos) {
      Good = false;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Good = true;
};

} // namespace ptran

#endif // PTRAN_SUPPORT_BYTES_H
