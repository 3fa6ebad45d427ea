//===--- obs/Observability.h - Tracing spans and runtime counters -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight tracing/metrics subsystem for the estimation pipeline:
///
///   - ObsRegistry keeps the most recent SpanCapacity timing spans in a
///     fixed ring and a set of named monotonic counters, and serializes
///     them as Chrome `trace_event` JSON (load the file in chrome://tracing
///     or https://ui.perfetto.dev) or as a plain-text stats table. A
///     long-running daemon therefore holds a bounded trace window, never
///     every span it recorded;
///   - counters live in stable atomic slots. registerCounter() resolves a
///     name once and returns an ObsCounter handle whose add() is one
///     relaxed fetch_add; addCounter() (the ObsSink entry for code that
///     does not hold handles) looks the slot up by name on each call;
///   - TimingSpan is the RAII producer: construction stamps the start,
///     destruction copies the completed span into the ring. Its name is a
///     string literal and its detail is truncated into the record, so
///     recording allocates nothing. A null registry makes both ends
///     no-ops — no clock reads — so instrumented passes pay one pointer
///     test when observability is disabled;
///   - every pass option struct (AnalysisOptions, TimeAnalysisOptions,
///     EstimatorOptions and therefore EstimationSession) carries a plain
///     `ObsRegistry *Obs`, null by default; `--trace=FILE` / `--stats` in
///     ptran-estimate attach one registry to the whole pipeline.
///
/// Every producer in the tree writes through one registry, including pool
/// workers and connection threads, so every method is thread-safe; spans
/// here bound whole passes (a function's CFG build, an SCC's TIME/VAR
/// evaluation), not inner loops.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_OBS_OBSERVABILITY_H
#define PTRAN_OBS_OBSERVABILITY_H

#include "support/ObsSink.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ptran {

/// Collects spans and counters from every pass of one estimation
/// campaign. All members are thread-safe; one registry is shared by the
/// orchestrating thread and every pool worker.
class ObsRegistry final : public ObsSink {
public:
  /// Spans the ring retains: the newest ones, once more were recorded.
  static constexpr size_t SpanCapacity = 4096;
  /// Bytes of a span's detail kept inline, its terminating NUL included;
  /// longer details are cut to fit.
  static constexpr size_t DetailCapacity = 36;

  /// One completed timing span. Times are nanoseconds since the
  /// registry's construction (its epoch). Trivially constructible, so the
  /// ring's storage stays untouched until a span lands in it.
  struct SpanRecord {
    const char *Name; ///< A literal, e.g. "analysis.cfg".
    uint64_t StartNs;
    uint64_t DurNs;
    /// Small dense index of the recording thread, drawn once per thread
    /// from a process-wide counter; Chrome renders one row per tid.
    uint32_t Tid;
    /// Optional qualifier (e.g. the function name), NUL-terminated.
    char Detail[DetailCapacity];

    std::string_view name() const { return Name; }
    std::string_view detail() const { return Detail; }
  };
  static_assert(std::is_trivially_default_constructible_v<SpanRecord>);
  static_assert(sizeof(SpanRecord) == 64);

  ObsRegistry();

  // ObsSink:
  /// The slot for \p Name (created at zero on first use), as a handle.
  ObsCounter registerCounter(std::string_view Name) override;

  /// Current value of counter \p Name (0 if never bumped).
  uint64_t counterValue(std::string_view Name) const;
  /// Snapshot of every counter that was bumped.
  std::map<std::string, uint64_t> counters() const;

  /// Records a completed span (normally called by ~TimingSpan). \p Name
  /// must outlive the registry; \p Detail is copied, truncated to
  /// DetailCapacity - 1 bytes.
  void recordSpan(const char *Name, std::string_view Detail,
                  std::chrono::steady_clock::time_point Start,
                  std::chrono::steady_clock::time_point End);

  /// The retained spans, oldest first: every span when at most
  /// SpanCapacity were recorded, else the newest SpanCapacity.
  std::vector<SpanRecord> spans() const;
  /// Spans recorded over the registry's lifetime, retained or not.
  uint64_t spansRecorded() const;
  /// True if no span and no counter has been recorded.
  bool empty() const;

  /// Nanoseconds since the registry's epoch.
  uint64_t nowNs() const;

  /// Serializes the retained spans and every counter as Chrome
  /// trace_event JSON: spans as complete ("ph":"X") events with
  /// microsecond timestamps, counters as one trailing counter ("ph":"C")
  /// event each.
  std::string chromeTraceJson() const;

  /// Writes chromeTraceJson() to \p Path. On failure returns false and
  /// sets \p Error to an actionable message.
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

  /// Renders a plain-text summary: the retained spans aggregated per name
  /// (count, total/mean/max wall time, sorted by total descending) and
  /// every counter, as two TablePrinter tables.
  std::string statsTable() const;

private:
  /// spans(), plus the lifetime span count read under the same lock.
  std::vector<SpanRecord> spanWindow(uint64_t &Recorded) const;

  std::chrono::steady_clock::time_point Epoch;

  /// Guards the ring and SpansRecorded.
  mutable std::mutex SpanMu;
  std::unique_ptr<SpanRecord[]> Ring;
  uint64_t SpansRecorded = 0;

  /// Guards the map's structure; slot values are atomics, read and
  /// written without it.
  mutable std::mutex CounterMu;
  std::map<std::string, ObsCounterSlot, std::less<>> Counters;
};

/// registerCounter() on \p Reg, or a handle that counts nothing when
/// \p Reg is null.
inline ObsCounter registerCounter(ObsRegistry *Reg, std::string_view Name) {
  return Reg ? Reg->registerCounter(Name) : ObsCounter();
}

/// RAII timing span. With a null registry both ends are no-ops (no clock
/// read), which is the whole disabled fast path: instrumentation sites
/// always construct one of these and pay a single branch when tracing is
/// off. \p Name must be a literal; \p Detail must outlive the span.
class TimingSpan {
public:
  TimingSpan(ObsRegistry *Reg, const char *Name, std::string_view Detail = {})
      : Reg(Reg), Name(Name), Detail(Detail) {
    if (Reg)
      Start = std::chrono::steady_clock::now();
  }
  ~TimingSpan() {
    if (Reg)
      Reg->recordSpan(Name, Detail, Start, std::chrono::steady_clock::now());
  }

  TimingSpan(const TimingSpan &) = delete;
  TimingSpan &operator=(const TimingSpan &) = delete;

private:
  ObsRegistry *Reg;
  const char *Name;
  std::string_view Detail;
  std::chrono::steady_clock::time_point Start;
};

} // namespace ptran

#endif // PTRAN_OBS_OBSERVABILITY_H
