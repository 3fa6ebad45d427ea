//===--- obs/HotpathAlloc.h - Heap-allocation counting hook ----*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A debug allocator hook that counts heap allocations per thread, used to
/// *prove* (not just hope) that the CSR TIME/VAR sweep performs no heap
/// allocation per query. Linking ptran_obs replaces the global operator
/// new/delete with counting forwarders to malloc/free; the counter is a
/// thread_local increment, so the hook is cheap enough to stay enabled in
/// every build (including sanitized ones — ASan/TSan intercept malloc
/// underneath the replacement and keep working).
///
/// The estimation sweep opens a HotpathAllocScope around its propagation
/// loop and reports the delta as the `cost.hotpath.allocs` observability
/// counter; session_test asserts the delta is zero for warm queries.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_OBS_HOTPATHALLOC_H
#define PTRAN_OBS_HOTPATHALLOC_H

#include <cstdint>

namespace ptran {

/// Number of heap allocations (operator new / new[]) performed by the
/// current thread since it started. Monotone; only meaningful as deltas.
uint64_t threadAllocCount();

/// Bytes those allocations requested, on the same terms.
uint64_t threadAllocBytes();

/// Samples threadAllocCount() at construction; count() returns how many
/// allocations the current thread performed since. Scopes may nest (they
/// are independent samples of the same counter). Thread-affine: construct
/// and query on the same thread.
class HotpathAllocScope {
public:
  HotpathAllocScope() : Start(threadAllocCount()) {}
  uint64_t count() const { return threadAllocCount() - Start; }

private:
  uint64_t Start;
};

} // namespace ptran

#endif // PTRAN_OBS_HOTPATHALLOC_H
