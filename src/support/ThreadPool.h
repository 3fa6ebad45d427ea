//===--- support/ThreadPool.h - Fixed-size worker pool ----------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the per-function analysis
/// fan-out and by ptran-serve's request workers.
/// Tasks are submitted as callables and return exception-propagating
/// std::futures; a worker count of 0 or 1 runs every task inline on the
/// submitting thread, which reproduces the serial drivers bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_THREADPOOL_H
#define PTRAN_SUPPORT_THREADPOOL_H

#include "support/Cancellation.h"
#include "support/FaultInjection.h"
#include "support/ObsSink.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ptran {

/// Fixed worker count, std::jthread-based. Destruction drains the queue
/// and joins: every queued item is dequeued and its future completed, so
/// no future is ever abandoned. Tasks submitted without a token always
/// run; tasks submitted with a CancelToken that has expired by dequeue
/// time are *skipped* — their bodies never execute, during normal
/// operation and during destruction alike (see the token-aware submit).
class ThreadPool {
public:
  /// Creates \p Workers worker threads. 0 or 1 means inline execution:
  /// submit() runs the task on the calling thread before returning.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads (0 in inline mode).
  unsigned workerCount() const { return static_cast<unsigned>(Threads.size()); }

  /// Resolves a user-facing --jobs value: 0 picks the hardware concurrency
  /// (at least 1), anything else is taken literally.
  static unsigned resolveJobs(unsigned Jobs);

  /// Attaches an observability sink (null detaches). While attached, every
  /// executed task reports `threadpool.tasks_executed`, its queue wait
  /// time (`threadpool.queue_wait_ns`) and its execution time — both as
  /// the pool-wide `threadpool.busy_ns` and per worker as
  /// `threadpool.worker<i>.busy_ns`. Detached (the default), no clocks are
  /// read and no counters are touched. Safe to call while workers run.
  void attachObservability(ObsSink *Sink) {
    Obs.store(Sink, std::memory_order_release);
  }

  /// Schedules \p F and returns a future for its result. Exceptions thrown
  /// by the task surface from future::get() on the waiting thread.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    // The fault hook runs inside the packaged_task so an injected throw is
    // stored in the future (and rethrown by waitAll) exactly like a real
    // task failure — never leaked into the worker loop.
    auto Task = std::make_shared<std::packaged_task<R()>>(
        [Body = std::forward<Fn>(F)]() mutable -> R {
          FaultInjection::maybeThrowPoolTask();
          return Body();
        });
    std::future<R> Fut = Task->get_future();
    if (Threads.empty())
      runInline([Task] { (*Task)(); });
    else
      enqueue([Task] { (*Task)(); });
    return Fut;
  }

  /// Token-aware submit for cancellable task groups (all tasks sharing one
  /// token form a group). If \p Token has expired by the time the task is
  /// dequeued, the body is skipped: it never executes, but the future still
  /// completes normally, so waitAll() on a cancelled group returns promptly
  /// instead of hanging — callers detect cut-short work by re-checking the
  /// token after the barrier. The same holds during pool destruction: the
  /// queue is drained, not-yet-started tasks of a cancelled group complete
  /// their futures without running. Skipped tasks count in skippedCount()
  /// and the `threadpool.tasks_skipped` obs counter. Void tasks only — a
  /// skipped task has no result to put in the future.
  template <typename Fn>
  std::future<void> submit(const CancelToken *Token, Fn &&F) {
    static_assert(std::is_void_v<std::invoke_result_t<std::decay_t<Fn>>>,
                  "token-aware submit takes void() tasks: a skipped task "
                  "has no result to return");
    auto Task = std::make_shared<std::packaged_task<void()>>(
        [this, Token, Body = std::forward<Fn>(F)]() mutable {
          if (Token && Token->expired()) {
            noteSkipped();
            return;
          }
          FaultInjection::maybeThrowPoolTask();
          Body();
        });
    std::future<void> Fut = Task->get_future();
    if (Threads.empty())
      runInline([Task] { (*Task)(); });
    else
      enqueue([Task] { (*Task)(); });
    return Fut;
  }

  /// Tasks whose bodies were skipped because their group's token had
  /// expired at dequeue time.
  uint64_t skippedCount() const {
    return Skipped.load(std::memory_order_relaxed);
  }

private:
  /// One queued task, stamped at enqueue time when a sink is attached so
  /// the dequeuing worker can report the queue wait.
  struct QueueItem {
    std::function<void()> Fn;
    std::chrono::steady_clock::time_point EnqueuedAt;
  };

  void enqueue(std::function<void()> Task);
  void runInline(std::function<void()> Task);
  void workerLoop(std::stop_token St, unsigned Worker);
  void noteSkipped();

  std::mutex M;
  std::condition_variable_any CV;
  std::deque<QueueItem> Queue;
  std::vector<std::jthread> Threads;
  std::atomic<ObsSink *> Obs{nullptr};
  std::atomic<uint64_t> Skipped{0};
};

/// Blocks on every future in \p Futures, rethrowing the first stored
/// exception after all tasks have finished (so no task outlives state the
/// caller is about to unwind).
template <typename T> void waitAll(std::vector<std::future<T>> &Futures) {
  std::exception_ptr First;
  for (std::future<T> &F : Futures) {
    try {
      F.get();
    } catch (...) {
      if (!First)
        First = std::current_exception();
    }
  }
  if (First)
    std::rethrow_exception(First);
}

} // namespace ptran

#endif // PTRAN_SUPPORT_THREADPOOL_H
