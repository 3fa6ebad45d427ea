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
  // Joins every worker here, before the members they read (the attached
  // counters among them) are destroyed. workerLoop drains the queue
  // before honoring the stop request, so pending futures always complete.
  Threads.clear();
}

unsigned ThreadPool::resolveJobs(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::attachObservability(ObsSink *Sink) {
  if (!Sink) {
    Obs.store(nullptr, std::memory_order_release);
    return;
  }
  auto C = std::make_unique<Counters>();
  C->TasksExecuted = Sink->registerCounter("threadpool.tasks_executed");
  C->TasksSkipped = Sink->registerCounter("threadpool.tasks_skipped");
  C->QueueWaitNs = Sink->registerCounter("threadpool.queue_wait_ns");
  C->BusyNs = Sink->registerCounter("threadpool.busy_ns");
  for (size_t I = 0; I < Threads.size(); ++I)
    C->WorkerBusyNs.push_back(Sink->registerCounter(
        "threadpool.worker" + std::to_string(I) + ".busy_ns"));
  std::lock_guard<std::mutex> Lock(AttachMu);
  Obs.store(C.get(), std::memory_order_release);
  Attached.push_back(std::move(C));
}

void ThreadPool::noteSkipped() {
  Skipped.fetch_add(1, std::memory_order_relaxed);
  if (const Counters *C = Obs.load(std::memory_order_acquire))
    C->TasksSkipped.add();
}

void ThreadPool::runInline(std::function<void()> Task) {
  const Counters *C = Obs.load(std::memory_order_acquire);
  if (!C) {
    Task();
    return;
  }
  auto Start = std::chrono::steady_clock::now();
  Task();
  uint64_t Ns = elapsedNs(Start, std::chrono::steady_clock::now());
  C->TasksExecuted.add();
  C->BusyNs.add(Ns);
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
    const Counters *C = Obs.load(std::memory_order_acquire);
    if (C) {
      // Counted before the task runs: running it completes its future, and
      // a caller that waited on every future must already see every task.
      C->TasksExecuted.add();
      auto Start = std::chrono::steady_clock::now();
      Item.Fn();
      uint64_t Ns = elapsedNs(Start, std::chrono::steady_clock::now());
      // EnqueuedAt is default-constructed when the sink was attached
      // between enqueue and dequeue; skip the bogus wait in that case.
      if (Item.EnqueuedAt != std::chrono::steady_clock::time_point())
        C->QueueWaitNs.add(elapsedNs(Item.EnqueuedAt, Start));
      C->BusyNs.add(Ns);
      C->WorkerBusyNs[Worker].add(Ns);
    } else {
      Item.Fn();
    }
    Lock.lock();
  }
}
