//===- runtime/Arena.h - Bump-pointer region allocator ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for per-request allocation in the batch parsing
/// service. A parse request allocates all of its tree nodes from one arena
/// and the whole region is released (or recycled) in O(1) when the request
/// finishes — no per-node destructor walk, no allocator lock contention
/// between worker threads.
///
/// Only trivially destructible types may be created in an arena; the arena
/// never runs destructors. \ref ArenaParseTree is designed around this
/// (token leaves store stream indices, not owning strings).
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_ARENA_H
#define LLSTAR_RUNTIME_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace llstar {

/// A growable bump-pointer region. Not thread-safe: each service worker
/// owns one arena and resets it between requests.
class Arena {
public:
  explicit Arena(size_t BlockBytes = 1 << 16) : BlockBytes(BlockBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align. Never fails except by
  /// throwing std::bad_alloc like operator new.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    size_t Aligned = (Cur + Align - 1) & ~(Align - 1);
    if (Aligned + Bytes > End) {
      grow(Bytes + Align);
      Aligned = (Cur + Align - 1) & ~(Align - 1);
    }
    Cur = Aligned + Bytes;
    Used += Bytes;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Constructs a \p T in the arena. \p T must be trivially destructible:
  /// reset() and the destructor free memory without running destructors.
  template <typename T, typename... Args> T *create(Args &&...ArgList) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must not need destructors");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(ArgList)...);
  }

  /// O(1) release of everything allocated since construction or the last
  /// reset. The largest block is kept so a recycled arena stops growing
  /// once it has seen its peak request.
  void reset() {
    if (Blocks.size() > 1) {
      // Keep only the largest block (the most recently grown one).
      Blocks.front() = std::move(Blocks.back());
      Blocks.resize(1);
    }
    if (!Blocks.empty()) {
      Cur = reinterpret_cast<uintptr_t>(Blocks.front().Data.get());
      End = Cur + Blocks.front().Bytes;
    }
    Used = 0;
  }

  /// Bytes handed out since the last reset (excludes alignment padding).
  size_t bytesUsed() const { return Used; }
  /// Total block capacity currently held.
  size_t bytesReserved() const {
    size_t N = 0;
    for (const Block &B : Blocks)
      N += B.Bytes;
    return N;
  }

private:
  struct Block {
    std::unique_ptr<char[]> Data;
    size_t Bytes = 0;
  };

  void grow(size_t AtLeast) {
    size_t Bytes = BlockBytes;
    while (Bytes < AtLeast)
      Bytes *= 2;
    // Geometric growth keeps the block count logarithmic in request size.
    BlockBytes = Bytes * 2;
    // Default-initialized: create<T> constructs every object it places,
    // so zero-filling would only touch pages no node may ever use.
    Blocks.push_back({std::unique_ptr<char[]>(new char[Bytes]), Bytes});
    Cur = reinterpret_cast<uintptr_t>(Blocks.back().Data.get());
    End = Cur + Bytes;
  }

  std::vector<Block> Blocks;
  uintptr_t Cur = 0, End = 0;
  size_t BlockBytes;
  size_t Used = 0;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_ARENA_H
