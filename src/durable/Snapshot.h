//===--- durable/Snapshot.h - Checksummed per-session snapshots -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compaction half of the daemon's durable state: a snapshot is one
/// session's full accumulated state plus the journal LSN watermark it
/// covers. A checkpoint writes one snapshot per resident session and then
/// rotates the journal; recovery loads the snapshots and replays only the
/// journal records with LSN above each session's watermark.
///
/// File layout (support/Bytes.h field encoding: integers little-endian,
/// strings u32 length + bytes):
///
///   magic "PTSS" | u32 version | u64 watermark
///   | str name | str source | u32 mode | u32 loopVariance
///   | u32 onBadProfile | u64 runs
///   | u64 profileImageLen | PTPF bytes   (the session's counter runtime,
///                                         runs and ingested profiles alike,
///                                         re-serialized through the
///                                         checksummed PTPF format)
///   | fold list (Records.h): external totals, then saturated names
///   | u32 numQuarantined | per entry: str function | str reason
///   | u32 crc32(everything above)
///
/// Determinism contract: the external-totals section MUST be emitted in
/// program order (the capture side iterates program().functions(), never a
/// pointer-keyed map), so the same session state always serializes to the
/// same bytes — the kill-and-recover acceptance test memcmps recovered
/// state against a reference rebuild.
///
/// Files are named `snap-<fnv64(sessionName) hex>.snap` (session names
/// arrive over the wire and are not safe as filenames) and written
/// tmp+rename so a crash mid-write leaves the previous snapshot intact.
/// crash.at=durable.snapshot (support/FaultInjection) dies between writing
/// the tmp file and renaming it into place.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_DURABLE_SNAPSHOT_H
#define PTRAN_DURABLE_SNAPSHOT_H

#include "durable/Records.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ptran {
namespace durable {

/// Everything needed to rebuild one EstimationSession bit-for-bit,
/// flattened to plain data (names and integers, no analysis pointers).
/// The session layer fills this in under its own lock; the durable layer
/// only moves the bytes.
struct DurableSessionState {
  std::string Name;
  std::string Source;
  uint32_t Mode = 0;
  uint32_t LoopVariance = 0;
  uint32_t OnBadProfile = 0;
  uint64_t Runs = 0;
  /// Serialized PTPF capture of the session's counter runtime
  /// (EstimationSession::captureProfile): the counters and loop moments
  /// of its own runs and of every profile it ingested. Restoring ingests
  /// it, which rebuilds the runtime and the run count.
  std::vector<uint8_t> ProfileImage;
  /// Partial condition-total deltas with no counter representation
  /// (stream folds), in program order (see the determinism contract
  /// above). Older snapshots also hold ingested profiles' totals here;
  /// they restore to the same estimates.
  std::vector<FoldEntry> External;
  /// Functions whose external totals saturated at the 2^53 cap (their
  /// estimates are lower bounds); restored so the diagnostic survives.
  std::vector<std::string> Saturated;
  /// Quarantined functions as (name, first-wins reason) pairs.
  std::vector<std::pair<std::string, std::string>> Quarantined;
};

/// Encodes \p State + \p Watermark as a complete snapshot file image
/// (header through trailing CRC).
std::vector<uint8_t> encodeSnapshot(const DurableSessionState &State,
                                    uint64_t Watermark);

/// Decodes and verifies a snapshot image. False with \p Error set on bad
/// magic/version, CRC mismatch, truncation, or trailing garbage.
bool decodeSnapshot(const uint8_t *Data, size_t Len,
                    DurableSessionState &State, uint64_t &Watermark,
                    std::string &Error);

/// `snap-<fnv64(name) hex>.snap` — the stable, filesystem-safe file name
/// for \p SessionName's snapshot.
std::string snapshotFileName(const std::string &SessionName);

/// Writes \p State's snapshot into \p Dir (tmp + fsync + rename + fsync
/// directory). False with \p Error on IO failure; a crash at any point
/// leaves either the old snapshot or the new one, never a torn file.
bool writeSnapshotFile(const std::string &Dir,
                       const DurableSessionState &State, uint64_t Watermark,
                       std::string &Error);

/// Reads and verifies one snapshot file. False with \p Error set; the
/// caller decides whether to quarantine the file.
bool readSnapshotFile(const std::string &Path, DurableSessionState &State,
                      uint64_t &Watermark, std::string &Error);

} // namespace durable
} // namespace ptran

#endif // PTRAN_DURABLE_SNAPSHOT_H
