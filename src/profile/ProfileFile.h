//===--- profile/ProfileFile.h - Durable on-disk profiles -------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A durable, integrity-checked on-disk format for profile data (recovered
/// counter values plus loop-frequency moments), the persistent half of the
/// paper's "program database". Layout (all integers little-endian):
///
///   magic "PTPF" | u32 version | u64 program fingerprint | u32 mode
///   | u32 runs | u32 numFunctions
///   | per function: u32 nameLen | name | u64 fingerprint
///                   | u64 offset | u64 size | u32 sectionCrc
///   | u32 headerCrc            (CRC32 of every byte above)
///   | section payloads, contiguous, one per directory entry:
///       u32 counterCount | f64 counters...
///       | u32 loopCount | per loop: u32 headerStmt | f64 entries
///                                   | f64 sum | f64 sumSq
///
/// Integrity design: the header — including the full directory of names,
/// fingerprints, offsets, sizes and per-section CRCs — is covered by one
/// trailing header CRC, and every payload byte is covered by exactly one
/// section CRC. A corrupted header fails the whole load (nothing can be
/// trusted); a corrupted payload invalidates only its own section, and the
/// trusted directory still names the affected function, so callers can
/// quarantine precisely. Every byte of a valid file is covered by exactly
/// one of the two CRC layers: any single-byte corruption is detected.
///
/// Merging profiles from multiple runs is saturating: counter and moment
/// sums clamp at 2^53 (the largest exactly-representable integer double)
/// with a diagnostic, instead of silently losing integer precision.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_PROFILE_PROFILEFILE_H
#define PTRAN_PROFILE_PROFILEFILE_H

#include "profile/CounterPlan.h"
#include "profile/ProfileRuntime.h"
#include "support/Diagnostics.h"
#include "support/Retry.h"
#include "support/Saturation.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ptran {

/// Structural fingerprint of one function: statement count, ECFG size and
/// the full control-condition list. Profiles recorded against a different
/// version of the function hash differently. The program database and the
/// session's summary-cache keys use the same values.
uint64_t structuralFingerprintOf(const FunctionAnalysis &FA);

/// Fingerprint of a whole analyzed program: the per-function fingerprints
/// mixed in program order. Functions whose analysis failed contribute a
/// fixed marker, so two programs differing only in which functions
/// analyzed cleanly still hash apart.
uint64_t programFingerprintOf(const ProgramAnalysis &PA);

/// What estimation should do with a function whose profile data fails
/// validation.
enum class BadProfilePolicy {
  Fail,       ///< Fail the whole query (strict mode).
  Quarantine, ///< Degrade that function to static frequencies, keep going.
};

/// Per-entry loop moments as stored on disk (header-statement keyed, like
/// LoopFrequencyStats).
struct ProfileLoopMoments {
  uint32_t HeaderStmt = 0;
  double Entries = 0;
  double Sum = 0;
  double SumSq = 0;
};

/// One function's slice of a profile file.
struct FunctionSection {
  std::string Name;
  uint64_t Fingerprint = 0;
  std::vector<double> Counters;
  std::vector<ProfileLoopMoments> Loops;
  /// False when this section failed its CRC or payload parse on load; the
  /// name and fingerprint (from the CRC-protected directory) stay
  /// trustworthy, Counters/Loops are empty, and Issue says what happened.
  bool Valid = true;
  std::string Issue;
};

/// An in-memory profile file: capture, (de)serialization with integrity
/// validation, file IO, and saturating multi-run merge.
class ProfileFile {
public:
  static constexpr uint32_t MagicValue = 0x46505450; // "PTPF" little-endian.
  static constexpr uint32_t CurrentVersion = 1;
  /// Alias of support/Saturation.h's CounterSaturationLimit (2^53), kept
  /// on the class for existing callers; merges clamp here (with a
  /// diagnostic) instead of silently losing precision.
  static constexpr double SaturationLimit = CounterSaturationLimit;

  ProfileFile() = default;

  /// Snapshots the current counters of \p RT (and, when \p Stats is
  /// non-null, its loop moments) into a profile for \p PA's program.
  /// \p Runs records how many profiled runs the counters accumulate.
  static ProfileFile capture(const ProgramAnalysis &PA,
                             const ProgramPlan &Plan,
                             const ProfileRuntime &RT,
                             const LoopFrequencyStats *Stats, uint32_t Runs);

  /// Serializes to the on-disk byte layout.
  std::vector<uint8_t> serialize() const;

  /// Parses \p Bytes. Header/directory corruption (bad magic, version,
  /// truncation, header CRC mismatch) fails the whole load: nullopt, with
  /// an error on \p Diags. A section whose CRC or payload parse fails
  /// comes back with Valid=false and a warning naming the function; the
  /// remaining sections load normally.
  static std::optional<ProfileFile> deserialize(const std::vector<uint8_t> &Bytes,
                                                DiagnosticEngine *Diags);

  /// serialize() + write to \p Path. False (with an error on \p Diags) on
  /// IO failure. Fault-injection sites: io.fail, profile.flip (the flip
  /// corrupts the written image, simulating disk corruption).
  bool saveToFile(const std::string &Path, DiagnosticEngine *Diags) const;

  /// Retry-wrapped save: transient failures (injected io.fail, a failed
  /// open, a short write) are retried per \p Retry with exponential
  /// backoff; a write that eventually succeeds reports nothing but a note,
  /// only a persistent failure surfaces as an error. The byte image is
  /// serialized once, so every attempt writes identical bytes. \p Obs,
  /// when non-null, receives one `resilience.io_retries` per retry.
  bool saveToFile(const std::string &Path, DiagnosticEngine *Diags,
                  const RetryPolicy &Retry, ObsSink *Obs = nullptr) const;

  /// Reads \p Path and deserializes. Fault-injection site: io.fail.
  static std::optional<ProfileFile> loadFromFile(const std::string &Path,
                                                 DiagnosticEngine *Diags);

  /// Retry-wrapped load. Only the IO is retried (injected io.fail, failed
  /// open, read error): corruption found by deserialize() is a permanent
  /// failure that no retry can fix, so it surfaces immediately. Merging is
  /// in-memory; callers merging many files get retry coverage by loading
  /// each file through this overload.
  static std::optional<ProfileFile> loadFromFile(const std::string &Path,
                                                 DiagnosticEngine *Diags,
                                                 const RetryPolicy &Retry,
                                                 ObsSink *Obs = nullptr);

  /// Accumulates \p Other into this profile. Requires matching program
  /// fingerprint and mode (false + error otherwise). Sections match by
  /// name; a section of \p Other that is invalid, unknown here, or shaped
  /// differently (fingerprint / counter count) is skipped with a warning.
  /// Sums saturate at SaturationLimit with a once-per-function warning.
  bool merge(const ProfileFile &Other, DiagnosticEngine *Diags);

  uint32_t version() const { return Version; }
  uint64_t programFingerprint() const { return ProgramFingerprint; }
  ProfileMode mode() const { return Mode; }
  uint32_t runs() const { return Runs; }

  const std::vector<FunctionSection> &sections() const { return Sections; }
  /// Mutable access, for tests that construct corrupt profiles in memory.
  std::vector<FunctionSection> &sectionsMutable() { return Sections; }

  /// The section named \p Name, or null.
  const FunctionSection *sectionFor(std::string_view Name) const;

private:
  uint32_t Version = CurrentVersion;
  uint64_t ProgramFingerprint = 0;
  ProfileMode Mode = ProfileMode::Smart;
  uint32_t Runs = 0;
  std::vector<FunctionSection> Sections;
};

} // namespace ptran

#endif // PTRAN_PROFILE_PROFILEFILE_H
