//===--- obs/HotpathAlloc.cpp - Heap-allocation counting hook -------------===//
//
// Replaces the global allocation functions with counting forwarders to
// malloc/free. Rules followed here (C++17 [new.delete]):
//
//   - replacing the throwing operator new requires replacing the plain,
//     sized and nothrow deletes too, so a mix of replaced and library
//     forms never pairs up inconsistently;
//   - the aligned-allocation overloads are deliberately NOT replaced: the
//     library defaults remain, over-aligned allocations simply go
//     uncounted (none sit on the hot path);
//   - the counter is thread_local, so concurrent sweeps count only their
//     own allocations and the hook adds no synchronization.
//
//===----------------------------------------------------------------------===//

#include "obs/HotpathAlloc.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t ThreadAllocs = 0;
thread_local uint64_t ThreadAllocBytes = 0;

void *countedAlloc(std::size_t Sz) noexcept {
  void *P = std::malloc(Sz ? Sz : 1);
  if (P) {
    ++ThreadAllocs;
    ThreadAllocBytes += Sz;
  }
  return P;
}
} // namespace

uint64_t ptran::threadAllocCount() { return ThreadAllocs; }
uint64_t ptran::threadAllocBytes() { return ThreadAllocBytes; }

void *operator new(std::size_t Sz) {
  void *P = countedAlloc(Sz);
  if (!P)
    throw std::bad_alloc();
  return P;
}

void *operator new[](std::size_t Sz) {
  void *P = countedAlloc(Sz);
  if (!P)
    throw std::bad_alloc();
  return P;
}

void *operator new(std::size_t Sz, const std::nothrow_t &) noexcept {
  return countedAlloc(Sz);
}

void *operator new[](std::size_t Sz, const std::nothrow_t &) noexcept {
  return countedAlloc(Sz);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
