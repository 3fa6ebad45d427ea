//===--- obs/Observability.h - Tracing spans and runtime counters -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight tracing/metrics subsystem for the estimation pipeline:
///
///   - ObsRegistry collects thread-safe timing-span records and named
///     monotonic counters, and serializes them as Chrome `trace_event`
///     JSON (load the file in chrome://tracing or https://ui.perfetto.dev)
///     or as a plain-text stats table;
///   - TimingSpan is the RAII producer: construction stamps the start,
///     destruction records the completed span. A null registry makes both
///     ends no-ops — no clock reads, no string copies — so instrumented
///     passes pay one pointer test when observability is disabled;
///   - every pass option struct (AnalysisOptions, TimeAnalysisOptions,
///     EstimatorOptions and therefore EstimationSession) carries a plain
///     `ObsRegistry *Obs`, null by default; `--trace=FILE` / `--stats` in
///     ptran-estimate attach one registry to the whole pipeline.
///
/// Every producer in the tree writes through one registry, including pool
/// workers, so all methods lock; spans here bound whole passes (a
/// function's CFG build, an SCC's TIME/VAR evaluation), not inner loops.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_OBS_OBSERVABILITY_H
#define PTRAN_OBS_OBSERVABILITY_H

#include "support/ObsSink.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ptran {

/// Collects spans and counters from every pass of one estimation
/// campaign. All members are thread-safe; one registry is shared by the
/// orchestrating thread and every pool worker.
class ObsRegistry : public ObsSink {
public:
  /// One completed timing span. Times are nanoseconds since the
  /// registry's construction (its epoch).
  struct SpanRecord {
    std::string Name;   ///< e.g. "analysis.cfg", "timeanalysis.scc".
    std::string Detail; ///< Optional qualifier, e.g. the function name.
    uint64_t StartNs = 0;
    uint64_t DurNs = 0;
    /// Small dense thread index (0 = first thread seen), stable per
    /// registry; Chrome renders one row per tid.
    unsigned Tid = 0;
  };

  ObsRegistry();

  // ObsSink:
  void addCounter(std::string_view Name, uint64_t Delta = 1) override;

  /// Current value of counter \p Name (0 if never bumped).
  uint64_t counterValue(std::string_view Name) const;
  /// Snapshot of all counters.
  std::map<std::string, uint64_t> counters() const;

  /// Records a completed span (normally called by ~TimingSpan).
  void recordSpan(std::string Name, std::string Detail,
                  std::chrono::steady_clock::time_point Start,
                  std::chrono::steady_clock::time_point End);

  /// Snapshot of all spans recorded so far.
  std::vector<SpanRecord> spans() const;
  /// True if no span and no counter has been recorded.
  bool empty() const;

  /// Nanoseconds since the registry's epoch.
  uint64_t nowNs() const;

  /// Serializes everything as Chrome trace_event JSON: spans as complete
  /// ("ph":"X") events with microsecond timestamps, counters as one
  /// trailing counter ("ph":"C") event each.
  std::string chromeTraceJson() const;

  /// Writes chromeTraceJson() to \p Path. On failure returns false and
  /// sets \p Error to an actionable message.
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

  /// Renders a plain-text summary: spans aggregated per name (count,
  /// total/mean/max wall time, sorted by total descending) and every
  /// counter, as two TablePrinter tables.
  std::string statsTable() const;

private:
  unsigned tidOfLocked(std::thread::id Id);

  mutable std::mutex M;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<SpanRecord> Spans;
  std::map<std::string, uint64_t> Counters;
  std::map<std::thread::id, unsigned> Tids;
};

/// RAII timing span. With a null registry both ends are no-ops (no clock
/// read), which is the whole disabled fast path: instrumentation sites
/// always construct one of these and pay a single branch when tracing is
/// off.
class TimingSpan {
public:
  TimingSpan(ObsRegistry *Reg, std::string_view Name,
             std::string_view Detail = {})
      : Reg(Reg) {
    if (!Reg)
      return;
    this->Name.assign(Name);
    this->Detail.assign(Detail);
    Start = std::chrono::steady_clock::now();
  }
  ~TimingSpan() {
    if (Reg)
      Reg->recordSpan(std::move(Name), std::move(Detail), Start,
                      std::chrono::steady_clock::now());
  }

  TimingSpan(const TimingSpan &) = delete;
  TimingSpan &operator=(const TimingSpan &) = delete;

private:
  ObsRegistry *Reg = nullptr;
  std::string Name;
  std::string Detail;
  std::chrono::steady_clock::time_point Start;
};

} // namespace ptran

#endif // PTRAN_OBS_OBSERVABILITY_H
