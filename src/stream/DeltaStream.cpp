//===--- stream/DeltaStream.cpp - Streaming counter-delta ingest ----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "stream/DeltaStream.h"

#include "support/Saturation.h"

#include <algorithm>
#include <cmath>
#include <thread>

using namespace ptran;

CounterDeltaStream::~CounterDeltaStream() = default;

std::unique_ptr<CounterDeltaStream>
CounterDeltaStream::create(EstimationSession &Session, const Options &O) {
  auto S = std::unique_ptr<CounterDeltaStream>(new CounterDeltaStream());
  S->Session = &Session;
  S->Obs = O.Obs;
  unsigned HW = std::thread::hardware_concurrency();
  S->Shards = std::min(HW ? HW : 1u, 16u);

  const ProgramAnalysis &PA = Session.estimator().analysis();
  size_t Base = 0;
  for (const auto &FPtr : Session.program().functions()) {
    const FunctionAnalysis *FA = PA.tryOf(*FPtr);
    if (!FA)
      continue; // Failed analysis: no conditions to stream into.
    FuncEntry FE;
    FE.F = FPtr.get();
    FE.Conds = FA->cd().conditions();
    FE.CellBase = Base;
    Base += FE.Conds.size();
    S->Funcs.push_back(std::move(FE));
  }
  S->NumCells = Base;
  // Zero-initialized: value-initializing atomic<double> (C++20) is 0.0.
  S->Cells =
      std::vector<std::atomic<double>>(2ull * S->Shards * S->NumCells);
  S->Slots = std::vector<SlotState>(std::max(1u, O.MaxWriters));
  return S;
}

unsigned CounterDeltaStream::functionIndexOf(const Function &F) const {
  for (unsigned I = 0; I < Funcs.size(); ++I)
    if (Funcs[I].F == &F)
      return I;
  return numFunctions();
}

unsigned
CounterDeltaStream::conditionIndexOf(unsigned FuncIdx,
                                     const ControlCondition &C) const {
  const std::vector<ControlCondition> &Conds = Funcs[FuncIdx].Conds;
  auto It = std::lower_bound(Conds.begin(), Conds.end(), C);
  if (It != Conds.end() && *It == C)
    return static_cast<unsigned>(It - Conds.begin());
  return static_cast<unsigned>(Conds.size());
}

CounterDeltaStream::Writer CounterDeltaStream::acquireWriter() {
  for (unsigned I = 0; I < Slots.size(); ++I) {
    bool Expected = false;
    if (Slots[I].InUse.compare_exchange_strong(Expected, true,
                                               std::memory_order_acq_rel))
      return Writer(this, I);
  }
  return Writer();
}

void CounterDeltaStream::releaseSlot(unsigned Slot) {
  Slots[Slot].InUse.store(false, std::memory_order_release);
}

bool CounterDeltaStream::append(unsigned Slot, uint32_t FuncIdx,
                                uint32_t CondIdx, double Delta) {
  SlotState &St = Slots[Slot];
  if (FuncIdx >= Funcs.size() || CondIdx >= Funcs[FuncIdx].Conds.size() ||
      !std::isfinite(Delta) || Delta < 0.0) {
    St.Dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  size_t CellIdx = Funcs[FuncIdx].CellBase + CondIdx;
  unsigned Shard = Slot % Shards;
  // Epoch handshake (DESIGN.md §12): announce the epoch we are about to
  // write, then confirm it is still live. Both the announcement store and
  // the confirming load are seq_cst so they order against the flusher's
  // seq_cst epoch bump + slot scan: either the flusher's scan sees our
  // announcement and waits for us, or our re-read sees the bumped epoch
  // and we retry into the live bank. Either way no append lands in a bank
  // the flusher already considers quiescent.
  uint64_t E = Epoch.load(std::memory_order_seq_cst);
  for (;;) {
    St.ActiveEpoch.store(E, std::memory_order_seq_cst);
    uint64_t Cur = Epoch.load(std::memory_order_seq_cst);
    if (Cur == E)
      break;
    E = Cur;
  }
  cell(static_cast<unsigned>(E & 1), Shard, CellIdx)
      .fetch_add(Delta, std::memory_order_relaxed);
  // Release: the flusher's acquire scan of this slot must observe the
  // fetch_add above as having happened.
  St.ActiveEpoch.store(SlotIdle, std::memory_order_release);
  St.Appended.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CounterDeltaStream::FlushReport CounterDeltaStream::flush() {
  std::unique_lock<std::mutex> L(FlushMu);
  FlushReport R;
  // Seal the current epoch; writers that re-read Epoch from here on land
  // in the other bank.
  uint64_t Old = Epoch.fetch_add(1, std::memory_order_seq_cst);
  R.Epoch = Old;
  // Quiesce: wait out the writers still announcing the sealed epoch.
  // Appends are a handful of instructions, so this spin is bounded by the
  // in-flight window, not by writer throughput.
  for (SlotState &St : Slots)
    while (St.ActiveEpoch.load(std::memory_order_seq_cst) == Old)
      std::this_thread::yield();

  // The sealed bank is now quiescent (writers are in epoch Old+1, bank
  // (Old+1)&1; epoch Old+2 cannot start before the next flush, which this
  // mutex serializes). Drain it in a fixed order — functions in program
  // order, conditions in sorted order, shards in index order — so equal
  // append multisets yield bit-identical batches.
  unsigned Bank = static_cast<unsigned>(Old & 1);
  std::vector<std::pair<const Function *, FrequencyTotals>> Batch;
  std::vector<const Function *> Clamped;
  for (FuncEntry &FE : Funcs) {
    FrequencyTotals Delta;
    Delta.Ok = true;
    Delta.Cond.assign(FE.Conds.size(), 0.0);
    bool Any = false;
    bool FnClamped = false;
    for (size_t J = 0; J < FE.Conds.size(); ++J) {
      double Total = 0.0;
      for (unsigned Sh = 0; Sh < Shards; ++Sh) {
        std::atomic<double> &C = cell(Bank, Sh, FE.CellBase + J);
        double V = C.load(std::memory_order_relaxed);
        if (V != 0.0)
          C.store(0.0, std::memory_order_relaxed);
        Total += V;
      }
      if (Total == 0.0)
        continue;
      // An over-limit cell total would be rejected whole by the session's
      // delta validation; clamp here. The session's accumulator cannot see
      // this overflow (the delta it receives is exactly the limit), so the
      // saturation is reported to it explicitly below.
      if (Total > CounterSaturationLimit) {
        Total = CounterSaturationLimit;
        FnClamped = true;
      }
      Delta.Cond[J] = Total; // Cell J is condition id J.
      Any = true;
      ++R.Cells;
    }
    if (Any) {
      ++R.Functions;
      Batch.emplace_back(FE.F, std::move(Delta));
      if (FnClamped)
        Clamped.push_back(FE.F);
    }
  }
  // One batch = one session lock acquisition: a concurrent estimate()
  // sees the whole epoch or none of it. The fold observer, when present,
  // brackets the application so it can journal the epoch atomically with
  // applying it.
  auto Apply = [&] {
    if (!Batch.empty())
      if (uint64_t Ticket = Session->foldTotalsBatch(Batch))
        LastFoldEpoch = Ticket;
    for (const Function *F : Clamped)
      Session->noteExternalSaturation(*F);
  };
  if (Observer && !Batch.empty())
    Observer->onEpochFold(Batch, Clamped, Apply);
  else
    Apply();

  FlushedCells.fetch_add(R.Cells, std::memory_order_relaxed);
  EpochsDone.fetch_add(1, std::memory_order_relaxed);
  uint64_t App = 0, Drop = 0;
  for (const SlotState &St : Slots) {
    App += St.Appended.load(std::memory_order_relaxed);
    Drop += St.Dropped.load(std::memory_order_relaxed);
  }
  AppendsAtLastFlush.store(App, std::memory_order_relaxed);
  if (Obs) {
    // Counters are reported per flush, not per append: ObsRegistry locks,
    // and a lock per delta would cap the whole pipeline.
    Obs->addCounter("stream.appended", App - ReportedAppended);
    Obs->addCounter("stream.dropped", Drop - ReportedDropped);
    ReportedAppended = App;
    ReportedDropped = Drop;
    Obs->addCounter("stream.flushed", R.Cells);
    Obs->addCounter("stream.epochs");
  }
  // Refresh outside FlushMu (and outside the observer's locks), so the
  // next flush can fold meanwhile and one refresh covers both. The ticket
  // is the last fold's, not this one's: when another flusher sealed this
  // caller's deltas, its refresh may still be running.
  uint64_t Ticket = LastFoldEpoch;
  L.unlock();
  Session->refreshView(Ticket);
  return R;
}

uint64_t CounterDeltaStream::pendingAppends() const {
  uint64_t App = 0;
  for (const SlotState &St : Slots)
    App += St.Appended.load(std::memory_order_relaxed);
  uint64_t Base = AppendsAtLastFlush.load(std::memory_order_relaxed);
  return App > Base ? App - Base : 0;
}

CounterDeltaStream::Stats CounterDeltaStream::stats() const {
  Stats S;
  for (const SlotState &St : Slots) {
    S.Appended += St.Appended.load(std::memory_order_relaxed);
    S.Dropped += St.Dropped.load(std::memory_order_relaxed);
  }
  S.Flushed = FlushedCells.load(std::memory_order_relaxed);
  S.Epochs = EpochsDone.load(std::memory_order_relaxed);
  return S;
}
