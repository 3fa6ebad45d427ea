//===--- durable/Journal.h - Append-only write-ahead journal ----*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The append-only write-ahead half of the daemon's durable state: every
/// mutation is encoded (durable/Records.h) and appended as one CRC-framed
/// record BEFORE the response leaves the daemon, so a crash loses at most
/// the in-flight request. File layout (support/Bytes.h encoding):
///
///   magic "PTWJ" | u32 version | u64 firstLsn            (16-byte header)
///   | per record: u32 bodyLen | u32 crc32(body) | body
///
/// Record N of the file (0-based) has LSN firstLsn + N. LSNs are globally
/// monotonic across rotations: a checkpoint starts the replacement journal
/// at the old journal's next LSN, so "records with LSN <= a snapshot's
/// watermark are already inside that snapshot" stays true no matter where
/// a crash lands in the checkpoint protocol.
///
/// Torn-tail rule: kill -9 (or power loss) lands mid-append, leaving a
/// half frame at EOF. open() scans every frame, verifying lengths and
/// CRCs; the suffix from the first bad frame on is moved aside to
/// `<path>.quarantine` (for post-mortem inspection), the journal is
/// truncated back to its last valid frame, and appending continues — a
/// torn tail costs the torn record, never the store.
///
/// Fsync policy: Always fsyncs per append (every acknowledged mutation is
/// on disk), Batch leaves syncing to the background flusher's sync()
/// cadence, Never trusts the OS page cache. The daemon default is Batch.
///
/// Fault-injection sites (support/FaultInjection): io.short_write makes
/// one write(2) transfer half its buffer (the continuation loop must
/// finish the frame); io.torn_write persists only a prefix of a frame and
/// kills the process; crash.at=durable.append dies right after a frame is
/// fully written; crash.at=durable.truncate dies between writing the
/// rotation replacement and renaming it into place.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_DURABLE_JOURNAL_H
#define PTRAN_DURABLE_JOURNAL_H

#include "durable/Records.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ptran {
namespace durable {

enum class FsyncPolicy {
  Always, ///< fsync after every append.
  Batch,  ///< fsync on the flusher's sync() cadence.
  Never,  ///< never fsync (OS page cache only).
};

/// Backstop against a garbled length field promising gigabytes: no real
/// record (the largest is a ProfileIngest carrying one wire frame's PTPF
/// image) comes anywhere near this.
inline constexpr uint32_t MaxRecordBytes = 64u << 20;

class DeltaJournal {
public:
  /// What open() found on disk.
  struct OpenReport {
    uint64_t FirstLsn = 1;
    uint64_t NextLsn = 1;
    uint64_t RecordsScanned = 0;
    bool TailQuarantined = false;
    std::string TailReason;
    uint64_t TailOffset = 0;
    uint64_t QuarantinedBytes = 0;
  };

  /// Opens (creating if absent) the journal at \p Path, scans and
  /// validates every record, and quarantines+truncates a torn tail.
  /// Decoded records land in \p Records (null = discard; recovery wants
  /// them, tests sometimes only want the scan verdict). Null + \p Error
  /// on unrecoverable IO failure; corruption is never unrecoverable.
  static std::unique_ptr<DeltaJournal> open(const std::string &Path,
                                            FsyncPolicy Fsync,
                                            OpenReport &Report,
                                            std::vector<DurableRecord> *Records,
                                            std::string &Error);
  ~DeltaJournal();

  DeltaJournal(const DeltaJournal &) = delete;
  DeltaJournal &operator=(const DeltaJournal &) = delete;

  /// Appends \p R as one frame. Returns the record's LSN, or 0 with
  /// \p Error set on IO failure (the journal seeks back to the last good
  /// frame boundary, so a failed append never leaves a half frame for the
  /// NEXT append to bury).
  uint64_t append(const DurableRecord &R, std::string &Error);

  /// fsyncs the journal file (the Batch policy's flush point). No-op
  /// under Never.
  bool sync(std::string &Error);

  /// Replaces the journal with an empty one whose firstLsn is nextLsn(),
  /// atomically (write `<path>.new`, fsync, rename, fsync directory).
  /// The caller must already have snapshotted every session with a
  /// watermark covering lastLsn() — rotation forgets those records.
  bool rotate(std::string &Error);

  /// -- Replication (raw-frame shipping between daemons) ------------------

  /// A shipper's read position. NextLsn is the contract; Offset and
  /// OffsetFirstLsn are a cache of where that LSN's frame starts, revalidated
  /// against the journal's current incarnation (a rotation moves firstLsn,
  /// invalidating every cached offset).
  struct ReadCursor {
    uint64_t NextLsn = 1;
    uint64_t Offset = 0;
    uint64_t OffsetFirstLsn = 0;
  };

  enum class ReadResult {
    Ok,      ///< One or more frames landed in the output.
    AtEnd,   ///< Cursor is caught up; nothing to read yet.
    Rotated, ///< The cursor's LSN rotated away; the subscriber must
             ///< re-bootstrap from snapshots.
    IoError, ///< Read failure or on-disk corruption below the append point.
  };

  /// Reads whole raw frames (the exact on-disk `len|crc|body` bytes)
  /// starting at \p Cursor's LSN, appending them to \p Raw until
  /// \p MaxBytes / \p MaxRecords is reached or the journal end is hit.
  /// Every frame is CRC-verified before it ships. On Ok, \p Count frames
  /// were appended and the cursor advanced past them.
  ReadResult readFrames(ReadCursor &Cursor, uint64_t MaxBytes,
                        uint32_t MaxRecords, std::vector<uint8_t> &Raw,
                        uint32_t &Count, std::string &Error);

  /// Appends \p Len bytes of pre-framed records (a standby persisting the
  /// exact bytes the primary shipped). The frames are validated — framing,
  /// CRC, record decode, and that their LSNs are exactly
  /// [\p ExpectedFirstLsn, \p ExpectedFirstLsn + \p ExpectedCount) starting
  /// at this journal's nextLsn() — before any byte is written; decoded
  /// records (with LSNs assigned) land in \p Records when non-null. Under
  /// FsyncPolicy::Always the append is fsynced. False with \p Error set on
  /// a validation or IO failure (nothing half-written survives: the file is
  /// truncated back to the last good frame boundary).
  bool appendRaw(const uint8_t *Frames, size_t Len, uint64_t ExpectedFirstLsn,
                 uint32_t ExpectedCount,
                 std::vector<DurableRecord> *Records, std::string &Error);

  /// Bootstrap reset: like rotate(), but the replacement journal's
  /// firstLsn is \p FirstLsn (a standby adopting the primary's snapshot
  /// watermark W calls resetTo(W + 1); everything it held before is
  /// forgotten).
  bool resetTo(uint64_t FirstLsn, std::string &Error);

  /// LSN the next append will get.
  uint64_t nextLsn() const;
  /// LSN of the last appended/recovered record (nextLsn()-1; equals
  /// firstLsn-1 when the journal is empty).
  uint64_t lastLsn() const;
  /// Bytes currently in the journal file (header + frames).
  uint64_t sizeBytes() const;

  const std::string &path() const { return Path; }

private:
  DeltaJournal() = default;

  /// rotate()/resetTo() body; caller holds M.
  bool rotateToLocked(uint64_t NewFirstLsn, std::string &Error);

  std::string Path;
  FsyncPolicy Fsync = FsyncPolicy::Batch;

  mutable std::mutex M;
  int Fd = -1;
  uint64_t FirstLsn = 1;
  uint64_t NextLsnValue = 1;
  uint64_t FileBytes = 0;
};

} // namespace durable
} // namespace ptran

#endif // PTRAN_DURABLE_JOURNAL_H
