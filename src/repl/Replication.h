//===--- repl/Replication.h - Journal shipping to warm standbys -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Primary side of warm-standby replication: JournalShipper streams the
/// write-ahead journal's raw frames to subscribed standby daemons and
/// feeds their acknowledgements back into the request path.
///
/// Wire protocol (Protocol.h framing, one subscription per connection):
///
///   standby -> primary   repl-subscribe from-lsn=N
///   primary -> standby   ok ack=none|batch|always
///   primary -> standby   repl-bootstrap count=K watermark=W
///   primary -> standby   repl-snapshot index=I session=NAME   (body: PTSS
///                        image; K of them, then streaming resumes at W+1)
///   primary -> standby   repl-frames from-lsn=L count=N       (body: the
///                        exact on-disk `len|crc|body` frame bytes)
///   standby -> primary   repl-ack applied-lsn=A durable-lsn=D
///
/// `from-lsn` is the standby's journal nextLsn (0 = demand a bootstrap).
/// The primary streams frames when that LSN is still inside its journal;
/// when it rotated away (or the standby is ahead/fresh), it interposes a
/// bootstrap — snapshot images captured under the structure lock at one
/// watermark W — and resumes framing at W+1. Shipped frames are the
/// byte-identical journal frames, so a promoted standby's journal replays
/// to the same estimates as the primary's (the paper's TIME/VAR pipeline
/// is deterministic in the mutation history).
///
/// Ack levels (--repl-ack): none = fire-and-forget; batch = the standby
/// acks after applying (lag observability, no request coupling); always =
/// the primary answers a request only after a standby reports every LSN
/// the request appended fsynced (bounded) — no acknowledged mutation can
/// be lost to a single machine failure. One `durable-lsn=D` ack releases
/// every waiter at or below D, so concurrent writers share an ack.
///
/// Fault-injection points: crash.at=repl.ship dies right after a frame
/// batch is sent; crash.at=repl.snapshot dies mid-bootstrap (after the
/// first snapshot message); crash.at=repl.ack dies after an ack is
/// processed.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_REPL_REPLICATION_H
#define PTRAN_REPL_REPLICATION_H

#include "durable/StateStore.h"
#include "obs/Observability.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace ptran {
namespace repl {

/// When the primary acknowledges a mutation relative to standby durability.
enum class AckMode : uint8_t {
  None,   ///< Fire-and-forget shipping; no acks flow back.
  Batch,  ///< Standby acks after applying (no fsync); lag is observable.
  Always, ///< Primary acks a mutation only after a standby fsynced it.
};

std::optional<AckMode> parseAckMode(const std::string &Text);
const char *ackModeName(AckMode M);

/// Caps on one repl-frames batch: small enough to bound the journal-lock
/// hold and the standby's apply granularity, large enough to amortize the
/// framing.
inline constexpr uint64_t MaxBatchBytes = 1u << 20;
inline constexpr uint32_t MaxBatchRecords = 512;

/// Primary-side shipper: owns every live subscription and implements the
/// ServeCore hooks (ack=always durability waits, the checkpoint rotation
/// guard). A caught-up shipper sleeps on the journal's own change count
/// (DeltaJournal::waitForChange), so every append wakes it, whoever made
/// it. One instance per daemon; runSubscription is called from the
/// connection thread that received repl-subscribe and occupies it for the
/// life of the subscription.
class JournalShipper : public serve::ReplicationHooks {
public:
  struct Options {
    durable::StateStore *Store = nullptr; ///< Journal to tail. Required.
    serve::ServeCore *Core = nullptr;     ///< Bootstrap capture. Required.
    AckMode Ack = AckMode::None;
    ObsRegistry *Obs = nullptr;
    /// Upper bound on one ack=always durability wait; past it the request
    /// proceeds with degraded durability (counted, never wedged).
    unsigned AckWaitMs = 5000;
  };

  explicit JournalShipper(const Options &O) : O(O) {}
  ~JournalShipper() { stop(); }

  /// Breaks the construction cycle in the daemon: ServeOptions wants the
  /// shipper (as ReplicationHooks) before ServeCore exists, and the
  /// shipper wants the core for bootstrap capture. Call before the first
  /// subscription arrives.
  void setCore(serve::ServeCore *Core) { O.Core = Core; }

  JournalShipper(const JournalShipper &) = delete;
  JournalShipper &operator=(const JournalShipper &) = delete;

  /// Serves one subscription on \p Fd until the standby disconnects or
  /// stop() is called. \p Subscribe is the already-read repl-subscribe
  /// message. Spawns the per-subscription ack-reader thread and joins it
  /// before returning; the caller still owns (and closes) \p Fd.
  void runSubscription(int Fd, const serve::WireMessage &Subscribe);

  /// Wakes every blocked shipper loop and durability wait; in-flight
  /// runSubscription calls return promptly. Idempotent.
  void stop();

  /// Live subscriptions right now.
  unsigned subscriberCount() const;

  // ReplicationHooks:
  bool waitDurable(uint64_t Lsn) override;
  uint64_t minSubscriberLsn() override;

private:
  struct Subscription {
    int Fd = -1;
    /// Next journal LSN this subscriber needs (checkpoint keeps the
    /// journal un-rotated below it).
    std::atomic<uint64_t> NextLsn{~0ull};
    std::atomic<uint64_t> AppliedLsn{0};
    std::atomic<uint64_t> DurableLsn{0};
    std::atomic<bool> Dead{false};
  };

  /// Captures + sends a full bootstrap, leaving \p Cursor at watermark+1.
  bool sendBootstrap(int Fd, durable::DeltaJournal::ReadCursor &Cursor,
                     std::string &Error);
  void bump(const char *Counter, uint64_t Delta = 1);

  Options O;

  /// Marks \p Sub dead (under Mu) and wakes everything that waits on
  /// its liveness. True when this call killed it.
  bool markDead(Subscription &Sub);

  /// Guards Subs and backs AckCv: every change its predicate reads (a
  /// subscriber's DurableLsn or Dead, the stop flag) is made with Mu
  /// held, so no ack is missed. ServeCore calls minSubscriberLsn while
  /// holding ITS locks, so nothing under Mu may call back into ServeCore.
  mutable std::mutex Mu;
  std::condition_variable AckCv; ///< an ack landed; durability waits.
  std::vector<std::shared_ptr<Subscription>> Subs;
  std::atomic<bool> StopFlag{false};
};

} // namespace repl
} // namespace ptran

#endif // PTRAN_REPL_REPLICATION_H
