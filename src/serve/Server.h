//===--- serve/Server.h - Concurrent estimation daemon core -----*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of ptran-serve: a registry of named
/// EstimationSessions (one per loaded program/configuration) plus a
/// thread-safe request dispatcher. The daemon binary and the bench client
/// are thin wrappers; tests drive ServeCore::handle directly from many
/// threads with no socket in sight.
///
/// Sessions live under a global memory budget: each loaded program is
/// charged a size heuristic, and loading one more program evicts the
/// least-recently-used sessions until the budget (and the session-count
/// cap) holds again. Entries are shared_ptr-owned, so an eviction never
/// yanks a session out from under an in-flight request — the request keeps
/// its reference, the registry just forgets the name.
///
/// Deadlines are per request: the verbs whose verb-table row (Server.cpp)
/// accepts them read `deadline-ms` and `step-budget` into a stack
/// CancelToken for that one call, layered over the session's
/// DeadlinePolicy (the daemon default is Degrade, so interactive callers
/// get a tagged static-frequency answer instead of an error).
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SERVE_SERVER_H
#define PTRAN_SERVE_SERVER_H

#include "durable/StateStore.h"
#include "obs/Observability.h"
#include "serve/Protocol.h"
#include "session/EstimationSession.h"
#include "stream/DeltaStream.h"
#include "support/Cancellation.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ptran {
namespace serve {

/// What a primary-side replication shipper plugs into ServeCore (the
/// interface lives here, not in src/repl/, so serve never links repl).
/// Implementations must be callable from any request thread and MUST NOT
/// take ServeCore locks: minSubscriberLsn runs inside checkpoint(), under
/// ServeCore locks. Shippers learn of appends from the journal itself
/// (DeltaJournal::waitForChange), not from ServeCore. waitDurable runs
/// once per request, from handle() after the handler returned, with no
/// ServeCore lock held: it blocks that request until a standby
/// acknowledges fsyncing the highest LSN the request appended or depends
/// on (--repl-ack=always; bounded — a dead standby degrades durability,
/// it never wedges the primary).
class ReplicationHooks {
public:
  virtual ~ReplicationHooks() = default;
  /// Not called by ServeCore: the journal wakes its readers itself. Kept
  /// as a no-op so hook wrappers that still forward it (perfbench's
  /// TracedHooks) build unchanged.
  virtual void onAppend(uint64_t) {}
  /// Block until some subscriber reports \p Lsn durable (or a bounded
  /// timeout / no-subscriber fallthrough). True = acknowledged durable.
  virtual bool waitDurable(uint64_t Lsn) = 0;
  /// Smallest next-LSN over live subscribers (UINT64_MAX when none):
  /// checkpoint() keeps the journal un-rotated while a subscriber still
  /// needs its tail.
  virtual uint64_t minSubscriberLsn() = 0;
};

/// Daemon-wide configuration shared by every session ServeCore creates.
struct ServeOptions {
  /// Analysis worker threads while a session loads (0 = hardware
  /// concurrency); they are joined before the load returns. The daemon
  /// keeps this small: parallelism across requests comes from the
  /// connection threads, not from fanning out every session's passes.
  unsigned Jobs = 1;
  /// Global budget on the memory heuristic summed over resident sessions.
  uint64_t MemoryBudgetBytes = 256ull << 20;
  /// Hard cap on resident sessions regardless of the byte budget.
  unsigned MaxSessions = 64;
  /// What a session does when a request's deadline trips mid-estimation.
  DeadlinePolicy OnDeadline = DeadlinePolicy::Degrade;
  /// Step budget armed on the token of every verb that accepts deadlines
  /// when the request sends no `step-budget` (0 = unbounded). The daemon's
  /// load-shedding backstop against runaway queries.
  uint64_t DefaultStepBudget = 0;
  /// Registry every session and the dispatcher report into; the `stats`
  /// verb serializes it. Null disables counting.
  ObsRegistry *Obs = nullptr;
  /// Crash-safe persistence (--state-dir). Null = ephemeral daemon, the
  /// historical behavior. The store must outlive the core.
  durable::StateStore *Store = nullptr;
  /// Background flusher cadence: stale stream epochs are sealed and the
  /// journal fsynced (FsyncPolicy::Batch's flush point) this often.
  unsigned FlushIntervalMs = 200;
  /// Periodic checkpoint cadence (snapshot every session + rotate the
  /// journal). 0 disables the timer; the `checkpoint` verb and graceful
  /// shutdown still checkpoint.
  unsigned SnapshotIntervalMs = 5000;
  /// Pending stream appends that trigger an epoch flush before the
  /// staleness timer does (bounds journal loss under Batch fsync).
  uint64_t FlushCellThreshold = 8192;
  /// Upper bound (ms) on how long a stream epoch with pending appends may
  /// sit unsealed: the flusher folds it once it is this stale even when
  /// neither the cell threshold nor the sync cadence has fired. 0 keeps
  /// the historical timer-only cadence.
  unsigned FlushMaxStalenessMs = 0;
  /// Primary-side replication hooks (owned by the caller, must outlive
  /// the core). Null = no replication, the historical behavior.
  ReplicationHooks *Repl = nullptr;
  /// Handles the `promote` verb (and SIGUSR1): seals standby catch-up and
  /// reopens the core for writes. Unset = the verb reports not-a-standby.
  std::function<bool(std::string &)> Promote;
};

/// Thread-safe dispatcher over the session registry. One instance serves
/// every connection of one daemon.
class ServeCore {
public:
  explicit ServeCore(const ServeOptions &Opts) : Opts(Opts), Ctr(Opts.Obs) {}
  ~ServeCore() { stopFlusher(); }

  /// Handles one request and returns the response. Safe to call from any
  /// number of threads concurrently: the registry has its own lock, and
  /// each EstimationSession synchronizes its own callers (default-
  /// configuration reads take no session lock at all). A request that
  /// journaled records returns only after ReplicationHooks::waitDurable
  /// for the highest of their LSNs, waited with no ServeCore lock held.
  WireMessage handle(const WireMessage &Request);

  /// The request verbs handle() accepts, in verb-table order (tests walk
  /// them so that a new verb cannot skip the standby-gate check).
  static std::vector<std::string_view> verbNames();

  /// Resident sessions right now (tests assert eviction through this).
  unsigned sessionCount() const;
  /// Sum of the resident sessions' memory-heuristic charges.
  uint64_t residentBytes() const;

  /// -- Durable state (all no-ops when ServeOptions::Store is null) ------

  /// What restore() rebuilt (the daemon logs it at boot).
  struct RestoreReport {
    unsigned SessionsRestored = 0;
    uint64_t RecordsReplayed = 0;
    /// Records already covered by a snapshot watermark (the crash-during-
    /// checkpoint double-apply guard skipped them).
    uint64_t RecordsSkipped = 0;
    /// One line per partial failure (a snapshot session that no longer
    /// parses, a record naming an evicted session, ...). Recovery itself
    /// never fails: a bad piece costs that piece, not the store.
    std::vector<std::string> Diagnostics;
  };

  /// Rebuilds sessions from \p Recovered: one session per snapshot, then
  /// the journal records above each session's watermark replayed in LSN
  /// order. Call once at boot, before serving traffic.
  void restore(const durable::StateStore::Recovery &Recovered,
               RestoreReport &Out);

  /// Flushes every stream epoch, snapshots every resident session at the
  /// journal's last LSN, prunes stale snapshots, and rotates the journal.
  /// Runs under the structure lock: no mutation can slip between the
  /// capture and the rotation. False (journal NOT rotated — an over-long
  /// journal is safe, a lost record is not) with \p Error on IO failure.
  bool checkpoint(std::string &Error);

  /// Starts/stops the background flusher (stream staleness + journal sync
  /// + periodic checkpoints, per ServeOptions cadences). stopFlusher is
  /// idempotent and also runs from the destructor.
  void startFlusher();
  void stopFlusher();

  /// -- Replication (primary capture + standby apply) --------------------

  /// Read-only mode (a standby): mutating verbs answer a structured
  /// `read-only` error, journalAppend and budget eviction become no-ops
  /// (the standby's journal is written ONLY through applyReplicatedBatch,
  /// so its LSNs stay byte-identical to the primary's). Promotion flips
  /// it back off.
  void setReadOnly(bool V) { ReadOnly.store(V, std::memory_order_release); }
  bool isReadOnly() const { return ReadOnly.load(std::memory_order_acquire); }

  /// One session's snapshot image (the encodeSnapshot byte format that
  /// also lives in *.snap files) captured for wire transfer.
  struct BootstrapSnapshot {
    std::string Session;
    std::vector<uint8_t> Image;
  };
  struct BootstrapCapture {
    /// Journal LSN every image covers; streaming resumes at Watermark+1.
    uint64_t Watermark = 0;
    std::vector<BootstrapSnapshot> Snapshots;
  };
  /// Captures a consistent {snapshot images, watermark} pair for a
  /// subscriber that cannot catch up from the journal alone. Same barrier
  /// discipline as checkpoint() (StructureMu unique across flush +
  /// capture) but touches no disk. False with \p Error when a stream
  /// flush fails.
  bool captureBootstrap(BootstrapCapture &Out, std::string &Error);

  /// Standby bootstrap: decodes \p Image, rebuilds that session, and
  /// applies its accumulated state — the restore() snapshot path driven
  /// from wire bytes instead of a *.snap file. False with \p Error when
  /// the image is garbled or the program no longer parses; \p Diagnostics
  /// collects partial-state warnings.
  bool adoptSnapshotImage(const std::vector<uint8_t> &Image,
                          std::vector<std::string> &Diagnostics,
                          std::string &Error);

  /// Standby bootstrap: forgets every resident session without journaling
  /// (the bootstrap replaces the whole registry).
  void clearAllSessions();

  /// Standby apply path: journals \p Len bytes of primary frames
  /// write-ahead (validated byte-for-byte, LSNs [FirstLsn, FirstLsn+
  /// Count)), optionally fsyncs (--repl-ack=always), then applies each
  /// decoded record through the restore machinery — all under one
  /// StructureMu hold, so a standby checkpoint can never slip between the
  /// journal write and the apply (the rotation would silently drop the
  /// unapplied tail). On success AppliedLsn = FirstLsn + Count - 1. False
  /// with \p Error on validation/IO failure (the journal kept its old
  /// tail; the caller must resubscribe).
  bool applyReplicatedBatch(const uint8_t *Frames, size_t Len,
                            uint64_t FirstLsn, uint32_t Count, bool Sync,
                            uint64_t &AppliedLsn,
                            std::vector<std::string> &Diagnostics,
                            std::string &Error);

private:
  /// One loaded program and its session. Name-keyed in the registry;
  /// shared_ptr-owned so eviction and in-flight requests can overlap.
  struct SessionEntry {
    std::string Name;
    std::string Source;
    std::unique_ptr<Program> Prog;
    /// Collects the session's analysis/quarantine warnings. Writes happen
    /// only inside the session's own serialized calls (EstimatorOptions::
    /// Diags points here), so the session lock covers them.
    DiagnosticEngine Diags;
    std::unique_ptr<EstimationSession> Session;
    /// Streaming-ingest cells over this session, built lazily by the
    /// first stream-deltas request (most sessions never stream).
    /// StreamMu guards only the lazy construction; the stream itself is
    /// its own synchronization domain (lock-free writers, serialized
    /// flushers).
    std::mutex StreamMu;
    std::unique_ptr<CounterDeltaStream> Stream;
    /// Stream when a stream-deltas request has built it, else null.
    CounterDeltaStream *builtStream() {
      std::lock_guard<std::mutex> L(StreamMu);
      return Stream.get();
    }
    uint64_t MemBytes = 0;
    /// Logical LRU stamp (registry clock value of the last touch).
    uint64_t LastUsed = 0;

    /// Resolved creation parameters in their wire (u32) encoding, kept so
    /// SessionCreate records and snapshots can rebuild the session with
    /// the exact same configuration.
    uint32_t Mode = 0;
    uint32_t LoopVariance = 0;
    uint32_t OnBadProfile = 0;
    /// Orders this session's {mutate, journal append} pairs against each
    /// other (so the journal order matches the apply order) — see the
    /// lock-ordering note above ServeCore::StructureMu.
    std::mutex DurableMu;
    /// Functions whose SaturationMark record is already journaled or was
    /// restored from a snapshot (guarded by DurableMu).
    std::set<std::string> JournaledSaturation;
    /// The durable fold observer installed on Stream (EpochFold records);
    /// owned here so it lives exactly as long as the stream.
    std::unique_ptr<EpochFoldObserver> FoldObs;
    /// Highest LSN the fold observer journaled (0 = none yet). Stored
    /// inside flush(), so a flush that returned sees every earlier fold's.
    std::atomic<uint64_t> LastFoldLsn{0};
  };
  class DurableFoldObserver;

  /// The verb table (Server.cpp), the one list of request verbs.
  struct Verb;
  static const Verb Verbs[];

  /// A verb handler. It gets the request, the session the request names
  /// (verbs whose row needs one; null otherwise) and the request's armed
  /// deadline token (null when the verb takes none or the request set no
  /// bound), and parses only its own verb's parameters.
  using Handler = WireMessage(const WireMessage &Request, SessionEntry *Entry,
                              CancelToken *Token);
  Handler handleLoadProgram, handleRun, handleEstimate, handleEstimateBatch,
      handleStreamDeltas, handleIngestProfile, handleCaptureProfile,
      handleCheckpoint, handleStats, handlePing, handlePromote;

  /// Looks up \p Name and stamps its LRU clock. Null when unknown.
  std::shared_ptr<SessionEntry> findSession(const std::string &Name);
  /// The resident entries right now (a copy taken under Mu).
  std::vector<std::shared_ptr<SessionEntry>> residentEntries() const;
  /// Seals every stream epoch of \p Entries, then returns the journal's
  /// last LSN: the watermark the captures that follow cover. Caller holds
  /// StructureMu unique (the checkpoint barrier).
  uint64_t sealStreams(
      const std::vector<std::shared_ptr<SessionEntry>> &Entries);
  /// \p Entry's creation parameters plus its session's accumulated state.
  static durable::DurableSessionState captureState(SessionEntry &Entry);
  /// Evicts least-recently-used entries (never \p Keep) until the memory
  /// budget and session cap hold, journaling a SessionEvict per victim.
  /// Caller holds Mu (and, when durable, StructureMu shared).
  void evictLocked(const SessionEntry *Keep);

  /// Parses + analyzes one session (the expensive part, done outside any
  /// core lock). Shared by load-program and the restore path. Null with
  /// \p Error on parse/analysis failure.
  std::shared_ptr<SessionEntry> buildEntry(const std::string &Name,
                                           std::string Source, uint32_t Mode,
                                           uint32_t LoopVariance,
                                           uint32_t OnBadProfile,
                                           std::string &Error);
  /// Inserts \p Entry into the registry (replacing a same-name entry),
  /// charges the memory budget, evicts over-budget sessions, and — when
  /// \p JournalCreate — appends the SessionCreate record inside the same
  /// registry-lock hold, so journal order matches apply order.
  void registerEntry(const std::shared_ptr<SessionEntry> &Entry,
                     bool JournalCreate);
  /// Makes the running request wait for \p Entry's last stream fold,
  /// whichever thread made it. Call after flushing the stream: deltas a
  /// request appended may have been sealed by the background flusher or
  /// another request's flush, and the stream's flush lock orders that
  /// fold before this flush.
  static void waitForLastFold(const SessionEntry &Entry);
  /// Lazily builds Entry's stream (and installs the durable fold observer
  /// when a store is configured).
  CounterDeltaStream *streamFor(SessionEntry &Entry);
  /// Appends \p R to the journal, wakes the shippers and records the LSN
  /// for handle()'s durability wait; it never waits itself, so callers may
  /// hold any ServeCore lock. Returns the LSN, or 0 when there is no store
  /// or the append failed — failure degrades durability (the record is
  /// lost to recovery), it never fails the request; it is counted
  /// (`durable.append_failures`) and logged instead.
  uint64_t journalAppend(durable::DurableRecord &R);
  /// Applies one snapshot's accumulated state to a freshly built entry.
  void applySnapshotState(SessionEntry &Entry,
                          const durable::DurableSessionState &State,
                          std::vector<std::string> &Diagnostics);
  /// Applies one decoded journal record to the live registry — the replay
  /// step shared by restore() and applyReplicatedBatch(). Problems (a
  /// record naming an evicted session, a profile that no longer
  /// deserializes) land in \p Diagnostics; the record is skipped, never
  /// fatal.
  void applyRecord(const durable::DurableRecord &R,
                   std::vector<std::string> &Diagnostics);
  void flusherLoop();

  ServeOptions Opts;

  /// The dispatcher's counters, registered once against Opts.Obs (handles
  /// that count nothing without one): a bump is one atomic add.
  struct Counters {
    explicit Counters(ObsRegistry *Obs);
    ObsCounter Requests, Errors, ReadOnlyRejects, Evictions, Promotions,
        Loads, Runs, Estimates, EstimateBatches, StreamDeltas, Ingests,
        Captures, Checkpoints, StalenessFlushes, AppendFailures,
        DurableCheckpoints, AckTimeouts, RotationsDeferred, BootstrapsServed,
        BatchesApplied, RecordsApplied;
  };
  const Counters Ctr;

  /// LOCK ORDER: StructureMu -> Mu/StreamMu -> (stream FlushMu) ->
  /// DurableMu -> session lock -> journal lock. An ingest validates before
  /// taking any of them and refreshes the session's view after releasing
  /// them; a stream fold refreshes after its FlushMu and DurableMu. Every durable mutation
  /// (load/run/ingest/fold/evict) holds StructureMu SHARED around its
  /// whole {mutate + journal} pair; checkpoint() holds it UNIQUE across
  /// {flush streams, read watermark, capture, write snapshots, prune,
  /// rotate} — so a record can neither land between a session's capture
  /// and the rotation (it would be rotated away uncovered) nor between a
  /// fold's application and its journal append (the snapshot would
  /// double-count it on replay). Stream flushes take StructureMu shared
  /// OUTSIDE CounterDeltaStream::flush (the observer cannot: checkpoint
  /// calls flush while holding StructureMu unique).
  std::shared_mutex StructureMu;

  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<SessionEntry>> Sessions;
  uint64_t Clock = 0;
  uint64_t TotalBytes = 0;

  std::atomic<bool> ReadOnly{false};

  std::thread Flusher;
  std::mutex FlusherMu;
  std::condition_variable FlusherCv;
  bool FlusherStop = false;
};

} // namespace serve
} // namespace ptran

#endif // PTRAN_SERVE_SERVER_H
