//===- perfbench/src/Alloc.cpp - Counting global operator new -------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// Replaces the global allocation functions so the traced run can count
// heap allocations per tree node. The counter is thread-local, so the
// untraced multi-threaded workloads pay one increment per allocation and
// no shared-cache-line traffic.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t Allocations = 0;

void *countedAlloc(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  ++Allocations;
  std::size_t A = static_cast<std::size_t>(Align);
  std::size_t Rounded = (Size + A - 1) / A * A;
  if (void *P = std::aligned_alloc(A, Rounded ? Rounded : A))
    return P;
  throw std::bad_alloc();
}
} // namespace

uint64_t perfbench::threadAllocations() { return Allocations; }

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
