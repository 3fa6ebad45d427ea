//===--- support/ThreadPool.cpp - Fixed-size worker pool ------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <string>

using namespace ptran;

namespace {

uint64_t elapsedNs(std::chrono::steady_clock::time_point From,
                   std::chrono::steady_clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
          .count());
}

} // namespace

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers <= 1)
    return; // Inline mode.
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back(
        [this, I](std::stop_token St) { workerLoop(St, I); });
}

ThreadPool::~ThreadPool() {
  for (std::jthread &T : Threads)
    T.request_stop();
  CV.notify_all();
  // std::jthread joins on destruction; workerLoop drains the queue before
  // honoring the stop request, so pending futures always complete.
}

unsigned ThreadPool::resolveJobs(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::noteSkipped() {
  Skipped.fetch_add(1, std::memory_order_relaxed);
  if (ObsSink *Sink = Obs.load(std::memory_order_acquire))
    Sink->addCounter("threadpool.tasks_skipped", 1);
}

void ThreadPool::runInline(std::function<void()> Task) {
  ObsSink *Sink = Obs.load(std::memory_order_acquire);
  if (!Sink) {
    Task();
    return;
  }
  auto Start = std::chrono::steady_clock::now();
  Task();
  uint64_t Ns = elapsedNs(Start, std::chrono::steady_clock::now());
  Sink->addCounter("threadpool.tasks_executed", 1);
  Sink->addCounter("threadpool.busy_ns", Ns);
}

void ThreadPool::enqueue(std::function<void()> Task) {
  QueueItem Item;
  Item.Fn = std::move(Task);
  if (Obs.load(std::memory_order_acquire))
    Item.EnqueuedAt = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(M);
    Queue.push_back(std::move(Item));
  }
  CV.notify_one();
}

void ThreadPool::workerLoop(std::stop_token St, unsigned Worker) {
  std::unique_lock<std::mutex> Lock(M);
  // wait() returns false only when a stop was requested and the queue is
  // empty, i.e. after the destructor ran out of work for us.
  while (CV.wait(Lock, St, [this] { return !Queue.empty(); })) {
    QueueItem Item = std::move(Queue.front());
    Queue.pop_front();
    Lock.unlock();
    ObsSink *Sink = Obs.load(std::memory_order_acquire);
    if (Sink) {
      // Counted before the task runs: running it completes its future, and
      // a caller that waited on every future must already see every task.
      Sink->addCounter("threadpool.tasks_executed", 1);
      auto Start = std::chrono::steady_clock::now();
      Item.Fn();
      uint64_t Ns = elapsedNs(Start, std::chrono::steady_clock::now());
      // EnqueuedAt is default-constructed when the sink was attached
      // between enqueue and dequeue; skip the bogus wait in that case.
      if (Item.EnqueuedAt != std::chrono::steady_clock::time_point())
        Sink->addCounter("threadpool.queue_wait_ns",
                         elapsedNs(Item.EnqueuedAt, Start));
      Sink->addCounter("threadpool.busy_ns", Ns);
      Sink->addCounter("threadpool.worker" + std::to_string(Worker) +
                           ".busy_ns",
                       Ns);
    } else {
      Item.Fn();
    }
    Lock.lock();
  }
}
