//===--- support/ObsSink.h - Minimal counter sink ---------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The narrowest possible observability interface: a named monotonic
/// counter sink and the counter handles it hands out. Low-level support
/// code (ThreadPool) reports through this so it never depends on the full
/// registry in src/obs/ — which itself depends on support for
/// TablePrinter — while ObsRegistry implements it.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_OBSSINK_H
#define PTRAN_SUPPORT_OBSSINK_H

#include <atomic>
#include <cstdint>
#include <string_view>

namespace ptran {

/// One counter's storage. Slots never move once registered, so handles
/// may point at them for the registry's lifetime.
struct ObsCounterSlot {
  std::atomic<uint64_t> Value{0};
  /// Set by a zero add: the counter is listed although it reads 0 (a
  /// registered but never bumped counter is not).
  std::atomic<bool> Touched{false};
};

/// A resolved counter. Default-constructed (or resolved against a null
/// registry) it counts nothing, so holders need no registry test.
class ObsCounter {
public:
  ObsCounter() = default;
  explicit ObsCounter(ObsCounterSlot *Slot) : Slot(Slot) {}

  void add(uint64_t Delta = 1) const {
    if (!Slot)
      return;
    if (Delta)
      Slot->Value.fetch_add(Delta, std::memory_order_relaxed);
    else
      Slot->Touched.store(true, std::memory_order_relaxed);
  }

private:
  ObsCounterSlot *Slot = nullptr;
};

/// Receives named monotonic counter increments. Implementations must be
/// safe to call from multiple threads concurrently.
class ObsSink {
public:
  virtual ~ObsSink() = default;

  /// Resolves the counter named \p Name once (created at zero on first
  /// use); the handle stays valid for the sink's lifetime, and each add()
  /// on it is one relaxed atomic add.
  virtual ObsCounter registerCounter(std::string_view Name) = 0;

  /// Adds \p Delta to the counter named \p Name (created at zero on first
  /// use), looked up by name on each call.
  void addCounter(std::string_view Name, uint64_t Delta = 1) {
    registerCounter(Name).add(Delta);
  }
};

} // namespace ptran

#endif // PTRAN_SUPPORT_OBSSINK_H
