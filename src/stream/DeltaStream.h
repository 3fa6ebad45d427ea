//===--- stream/DeltaStream.h - Streaming counter-delta ingest --*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free streaming ingest of counter-total deltas into an
/// EstimationSession. Live instrumented processes produce a firehose of
/// tiny "(function, control condition) += delta" updates; feeding each one
/// through EstimationSession::accumulateTotals would serialize every
/// producer on the session mutex and dirty the incremental engine millions
/// of times a second. A CounterDeltaStream decouples the two rates:
///
///   - N writer threads append deltas into sharded atomic cell buffers
///     with no locks on the append path (one relaxed fetch_add per delta
///     plus the epoch handshake below);
///   - a flusher seals the current epoch, waits for the handful of writers
///     still inside it to finish their in-flight appends, drains the
///     sealed bank in a deterministic order and folds the whole epoch into
///     the session through ONE foldTotalsBatch call — so a concurrent
///     estimate() query sees either none of the epoch or all of it, never
///     a torn cut — then, with its own lock released, refreshes the
///     session's published view over just the dirty closure (the
///     existing incremental path).
///
/// Cell layout: every analyzable function contributes one dense row of
/// cells, one per entry of its sorted ControlDependence::conditions()
/// list. Each of S shards holds two full banks of cells (epoch parity
/// selects the bank), so concurrent writers on different shards never
/// share a cache line of counts, and the drain of a sealed bank proceeds
/// while writers keep appending to the live one.
///
/// Epoch protocol (the memory-ordering argument is spelled out in
/// DESIGN.md §12): a global epoch counter E plus one cache-line-aligned
/// announcement slot per writer. A writer announces the epoch it is about
/// to write (seq_cst), re-reads E, retries if E moved, adds into bank
/// E & 1 (relaxed), then retires its slot (release). The flusher bumps E
/// (seq_cst) and waits until no slot still announces the old epoch; the
/// seq_cst total order makes this a Dekker handshake — any writer the
/// flusher's scan missed is guaranteed to re-read the new E and move to
/// the live bank — after which the sealed bank is quiescent and can be
/// drained with plain atomic loads.
///
/// Determinism: deltas are integer-valued counts and every cell and
/// accumulator clamps at 2^53 (support/Saturation.h), below which double
/// addition is exact — so any interleaving of the same set of appends
/// produces bit-identical cell totals, and the fixed drain order
/// (functions in program order, conditions in sorted order, shards in
/// index order) produces bit-identical batches. The stream tests memcmp
/// estimates against a serial reference.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_STREAM_DELTASTREAM_H
#define PTRAN_STREAM_DELTASTREAM_H

#include "session/EstimationSession.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ptran {

/// Brackets one epoch fold so a layer above the stream can make "apply
/// the batch to the session" and "record that it happened" one atomic
/// step (the durable journal appends an EpochFold record under the same
/// lock that applies it — a checkpoint can then never capture the
/// application without its journal record or vice versa).
class EpochFoldObserver {
public:
  virtual ~EpochFoldObserver() = default;

  /// Called by flush() instead of applying the batch itself, once per
  /// flush that drained a nonzero batch. \p Apply performs the fold
  /// (foldTotalsBatch + the per-function saturation notes; the view
  /// refresh runs after the observer returns); the
  /// observer MUST invoke it exactly once. \p Batch is in the stream's
  /// deterministic drain order; \p Clamped lists the functions whose cell
  /// totals clamped at 2^53 during the drain.
  virtual void onEpochFold(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Batch,
      const std::vector<const Function *> &Clamped,
      const std::function<void()> &Apply) = 0;
};

class CounterDeltaStream {
public:
  struct Options {
    /// Maximum concurrently checked-out writers (announcement slots).
    unsigned MaxWriters = 64;
    /// `stream.*` counters are reported here once per flush (never on the
    /// append path). Must outlive the stream when set.
    ObsRegistry *Obs = nullptr;
  };

  /// Lifetime totals, aggregated across all writers and flushes.
  struct Stats {
    uint64_t Appended = 0; ///< Deltas accepted into cells.
    uint64_t Dropped = 0;  ///< Deltas rejected (bad index / bad value).
    uint64_t Flushed = 0;  ///< Nonzero cells folded into the session.
    uint64_t Epochs = 0;   ///< Completed flush() calls.
  };

  /// What one flush() drained.
  struct FlushReport {
    uint64_t Epoch = 0;     ///< The epoch this flush sealed.
    uint64_t Functions = 0; ///< Functions that received a delta.
    uint64_t Cells = 0;     ///< Nonzero cells folded.
  };

  /// A checked-out append handle. One thread at a time per Writer; the
  /// append path is lock-free. Release by destruction (or release()).
  class Writer {
  public:
    Writer() = default;
    Writer(Writer &&O) noexcept : S(O.S), Slot(O.Slot) { O.S = nullptr; }
    Writer &operator=(Writer &&O) noexcept {
      if (this != &O) {
        release();
        S = O.S;
        Slot = O.Slot;
        O.S = nullptr;
      }
      return *this;
    }
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;
    ~Writer() { release(); }

    /// False when no slot was available at acquireWriter() time.
    explicit operator bool() const { return S != nullptr; }

    /// Appends "condition CondIdx of function FuncIdx += Delta" to the
    /// current epoch. Returns false (and counts the delta as dropped)
    /// when an index is out of range or Delta is non-finite or negative;
    /// nothing is applied. Lock-free; never blocks on the flusher.
    bool add(uint32_t FuncIdx, uint32_t CondIdx, double Delta) {
      return S && S->append(Slot, FuncIdx, CondIdx, Delta);
    }

    /// Returns the slot to the stream's free list.
    void release() {
      if (S)
        S->releaseSlot(Slot);
      S = nullptr;
    }

  private:
    friend class CounterDeltaStream;
    Writer(CounterDeltaStream *S, unsigned Slot) : S(S), Slot(Slot) {}
    CounterDeltaStream *S = nullptr;
    unsigned Slot = 0;
  };

  /// Builds a stream over \p Session's program: one cell row per
  /// analyzable function (program order), one cell per sorted control
  /// condition. The session must outlive the stream.
  static std::unique_ptr<CounterDeltaStream>
  create(EstimationSession &Session, const Options &O);
  static std::unique_ptr<CounterDeltaStream> create(EstimationSession &S) {
    return create(S, Options());
  }

  ~CounterDeltaStream();

  /// -- Cell addressing (what stream-deltas `describe` serves) ----------

  unsigned numFunctions() const {
    return static_cast<unsigned>(Funcs.size());
  }
  const Function *functionAt(unsigned FuncIdx) const {
    return Funcs[FuncIdx].F;
  }
  unsigned numConditions(unsigned FuncIdx) const {
    return static_cast<unsigned>(Funcs[FuncIdx].Conds.size());
  }
  const ControlCondition &conditionAt(unsigned FuncIdx,
                                      unsigned CondIdx) const {
    return Funcs[FuncIdx].Conds[CondIdx];
  }
  /// Index of \p F in the stream's function table, or numFunctions() when
  /// F has no row (analysis failed).
  unsigned functionIndexOf(const Function &F) const;
  /// Index of \p C among FuncIdx's conditions, or numConditions(FuncIdx)
  /// when the function has no such condition.
  unsigned conditionIndexOf(unsigned FuncIdx, const ControlCondition &C) const;

  /// Checks out a writer slot; the returned handle is falsy when all
  /// Options::MaxWriters slots are in use.
  Writer acquireWriter();

  /// Seals the current epoch, waits for in-flight appends to land, drains
  /// the sealed bank and folds it into the session as one atomic batch.
  /// Serialized against other flushers by an internal mutex; writers are
  /// never blocked. Reports `stream.*` counter deltas to Options::Obs.
  /// Returns only once the session's view covers this fold and every
  /// earlier one, even when another flusher sealed this caller's deltas,
  /// so a read after flush() sees every delta appended before it.
  FlushReport flush();

  /// Lifetime totals (safe to call concurrently with writers; the values
  /// are a momentary cut, not a synchronized snapshot).
  Stats stats() const;

  /// Installs \p O as the fold observer (null restores direct
  /// application). Install before traffic starts: the pointer is read
  /// unsynchronized by flush().
  void setFoldObserver(EpochFoldObserver *O) { Observer = O; }

  /// Deltas appended since the last completed flush (approximate — a
  /// momentary cut across writer slots). The daemon's background flusher
  /// uses this as its cell-count flush threshold.
  uint64_t pendingAppends() const;

  /// The epoch writers are currently appending into.
  uint64_t currentEpoch() const {
    return Epoch.load(std::memory_order_relaxed);
  }

private:
  CounterDeltaStream() = default;

  bool append(unsigned Slot, uint32_t FuncIdx, uint32_t CondIdx,
              double Delta);
  void releaseSlot(unsigned Slot);
  std::atomic<double> &cell(unsigned Bank, unsigned Shard, size_t CellIdx) {
    return Cells[(static_cast<size_t>(Bank) * Shards + Shard) * NumCells +
                 CellIdx];
  }

  /// One writer's announcement slot plus its private statistics, padded
  /// so two writers never share a cache line.
  struct alignas(64) SlotState {
    /// The epoch this writer is currently appending into, or SlotIdle.
    std::atomic<uint64_t> ActiveEpoch{SlotIdle};
    std::atomic<uint64_t> Appended{0};
    std::atomic<uint64_t> Dropped{0};
    /// Checked-out flag (free-list membership).
    std::atomic<bool> InUse{false};
  };
  static constexpr uint64_t SlotIdle = ~uint64_t{0};

  struct FuncEntry {
    const Function *F = nullptr;
    std::vector<ControlCondition> Conds; ///< Sorted (cell order).
    size_t CellBase = 0;                 ///< First cell of this row.
  };

  EstimationSession *Session = nullptr;
  ObsRegistry *Obs = nullptr;
  EpochFoldObserver *Observer = nullptr;
  std::vector<FuncEntry> Funcs;
  size_t NumCells = 0;
  /// One per hardware thread, capped at 16; writers are spread across
  /// shards round-robin by slot index.
  unsigned Shards = 1;

  /// 2 banks x Shards x NumCells, zero-initialized.
  std::vector<std::atomic<double>> Cells;
  std::vector<SlotState> Slots;

  /// The live epoch; parity selects the bank writers append into.
  std::atomic<uint64_t> Epoch{0};

  /// Serializes flushers (writers never take it). Also guards the
  /// last-reported obs cursors below.
  std::mutex FlushMu;
  std::atomic<uint64_t> FlushedCells{0};
  std::atomic<uint64_t> EpochsDone{0};
  /// Sum of slot Appended counters as of the last completed flush
  /// (pendingAppends() subtracts it from the live sum).
  std::atomic<uint64_t> AppendsAtLastFlush{0};
  uint64_t ReportedAppended = 0;
  uint64_t ReportedDropped = 0;
  /// refreshView ticket of the last nonempty fold (guarded by FlushMu).
  uint64_t LastFoldEpoch = 0;
};

} // namespace ptran

#endif // PTRAN_STREAM_DELTASTREAM_H
