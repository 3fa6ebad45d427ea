//===--- support/Cancellation.h - Cooperative cancellation ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation and resource budgets for the estimation
/// pipeline. A CancelToken combines three independent trip conditions —
/// caller cancellation, a wall-clock deadline and a checkpoint-step
/// budget — behind one cheap poll: passes call checkpoint() at
/// their natural unit of work (per analyzed function, per call-graph SCC
/// component, per fixpoint iteration) and stop as soon as it returns true.
///
/// Expiry is *monotone*: once any condition trips, expired() stays true for
/// the lifetime of the token (until reset()). Combined with the order of
/// the interprocedural pass — callers are evaluated strictly after their
/// callees — monotone expiry is what guarantees that every function that
/// did complete saw only final callee summaries, so completed results are
/// bit-identical to an unbounded run.
///
/// The disabled path is free-ish by construction: passes hold a
/// `CancelToken *` that is null when no bound was requested, so the cost of
/// the feature is one pointer test per checkpoint site. With a token
/// installed, checkpoint() is a handful of relaxed atomic ops; the clock is
/// read only when a deadline is armed.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_CANCELLATION_H
#define PTRAN_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace ptran {

/// Why a token expired. None means "still live".
enum class CancelReason : uint8_t {
  None = 0,
  Cancelled,     ///< requestCancel() was called.
  Deadline,      ///< The wall-clock deadline passed.
  StepBudget,    ///< The checkpoint-step budget ran out.
};

/// What an estimation entry point does when its token expires mid-run.
/// Mirrors BadProfilePolicy: Fail is the atomic library default, Degrade
/// trades accuracy for an answer (unfinished functions fall back to static
/// frequencies and are tagged on the result).
enum class DeadlinePolicy : uint8_t {
  Fail = 0, ///< Abort the query atomically with a Timeout diagnostic.
  Degrade,  ///< Finish unfinished functions from static frequencies.
};

/// Shared cancellation/budget state polled by the pipeline. Configuration
/// (deadline, budgets) is not thread-safe and must happen before the token
/// is shared; requestCancel() and every query are safe from any thread.
class CancelToken {
public:
  CancelToken() = default;

  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  //===--- configuration (single-threaded, before sharing) ----------------===//

  /// Arms a wall-clock deadline \p Budget from now.
  void setDeadlineIn(std::chrono::nanoseconds Budget) {
    setDeadlineAt(std::chrono::steady_clock::now() + Budget);
  }

  /// Arms a wall-clock deadline at an absolute steady-clock instant.
  void setDeadlineAt(std::chrono::steady_clock::time_point At) {
    DeadlineNs.store(At.time_since_epoch().count(),
                     std::memory_order_relaxed);
    HasDeadline.store(true, std::memory_order_relaxed);
  }

  /// Arms a budget of \p Steps checkpoint steps (each checkpoint(N) call
  /// consumes N, default 1). Deterministic, unlike wall-clock deadlines —
  /// the regression tests trip tokens this way.
  void setStepBudget(uint64_t Budget) {
    StepBudget.store(Budget, std::memory_order_relaxed);
  }

  /// Clears trip state, counters and budgets; the token is live again.
  void reset();

  //===--- thread-safe operations -----------------------------------------===//

  /// Trips the token with CancelReason::Cancelled. Idempotent; loses
  /// against an earlier trip (first reason wins).
  void requestCancel() { trip(CancelReason::Cancelled); }

  /// True once any condition has tripped. One relaxed load; never re-checks
  /// the clock or budgets, so it is safe on the hottest paths.
  bool expired() const {
    return Reason.load(std::memory_order_relaxed) != CancelReason::None;
  }

  /// The first condition that tripped, or None while live.
  CancelReason reason() const {
    return Reason.load(std::memory_order_relaxed);
  }

  /// The poll: consumes \p Steps from the step budget, re-checks the
  /// deadline when one is armed, and returns expired(). Passes call this
  /// once per unit of work and unwind when it returns true.
  bool checkpoint(uint64_t Steps = 1);

  /// Time left until the armed wall-clock deadline (negative once past
  /// due); nullopt when no deadline is armed. Blocking waits (e.g. the
  /// retry backoff sleep) clamp themselves to this so a sleep never
  /// outlives the deadline.
  std::optional<std::chrono::nanoseconds> remainingDeadline() const {
    if (!HasDeadline.load(std::memory_order_relaxed))
      return std::nullopt;
    int64_t NowNs =
        std::chrono::steady_clock::now().time_since_epoch().count();
    return std::chrono::nanoseconds(
        DeadlineNs.load(std::memory_order_relaxed) - NowNs);
  }

  //===--- introspection --------------------------------------------------===//

  /// Total checkpoint() calls since construction/reset. Feeds the
  /// `resilience.cancel_polls` obs counter.
  uint64_t polls() const { return Polls.load(std::memory_order_relaxed); }

  /// Checkpoint steps consumed so far.
  uint64_t stepsUsed() const {
    return StepsUsed.load(std::memory_order_relaxed);
  }

  /// Short lowercase name for \p R ("deadline", "step-budget", ...).
  static const char *reasonName(CancelReason R);

  /// Human-readable description of the trip condition, e.g.
  /// "wall-clock deadline exceeded". "live" while not expired.
  std::string describe() const;

private:
  void trip(CancelReason R);

  static constexpr uint64_t NoBudget = ~uint64_t{0};

  std::atomic<CancelReason> Reason{CancelReason::None};
  std::atomic<bool> HasDeadline{false};
  std::atomic<int64_t> DeadlineNs{0};
  std::atomic<uint64_t> StepBudget{NoBudget};
  std::atomic<uint64_t> StepsUsed{0};
  std::atomic<uint64_t> Polls{0};
};

/// Builds the structured diagnostic for a pass cut short by \p Token:
/// "timeout: <what> cut short: <condition>" for deadline/budget trips and
/// "cancelled: <what> cut short: ..." for caller cancellation. Every
/// resilience diagnostic in the pipeline goes through this helper so the
/// prefix is greppable and stable for tests.
std::string cancelMessage(const CancelToken &Token, const std::string &What);

} // namespace ptran

#endif // PTRAN_SUPPORT_CANCELLATION_H
