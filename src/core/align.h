// Cache-line-aligned allocation for hot numeric buffers.

#ifndef GASS_CORE_ALIGN_H_
#define GASS_CORE_ALIGN_H_

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace gass::core {

/// One x86/ARM cache line; also the strongest alignment the SIMD kernels
/// can exploit (a full AVX-512 register load).
inline constexpr std::size_t kCacheLineBytes = 64;

/// One x86-64 transparent huge page.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` (at least kHugePageBytes) of 2 MiB-aligned storage in a mapping
/// of its own, its whole 2 MiB pages advised onto transparent huge pages.
/// Heap memory is never advised: the advice would outlive the buffer there.
inline void* MapHuge(std::size_t bytes) {
#if defined(__linux__)
  // Over-map by one huge page, then trim both ends to 2 MiB boundaries.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t length = (bytes + page - 1) / page * page;
  void* raw = mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const std::size_t head =
      (0 - reinterpret_cast<std::uintptr_t>(raw)) % kHugePageBytes;
  char* p = static_cast<char*>(raw) + head;
  if (head > 0) munmap(raw, head);
  munmap(p + length, kHugePageBytes - head);
  madvise(p, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
  return p;
#else
  return ::operator new(bytes, std::align_val_t(kHugePageBytes));
#endif
}

inline void UnmapHuge(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  munmap(p, bytes);  // Covers every page the range touches.
#else
  ::operator delete(p, std::align_val_t(kHugePageBytes));
#endif
}

/// Minimal C++17 allocator handing out `Alignment`-byte-aligned storage.
/// Used by Dataset so vector rows start on cache-line boundaries whenever
/// the row stride allows (see Dataset's alignment contract). Requests of
/// kHugePageBytes or more go to MapHuge instead, so a walk over the rows
/// misses the TLB less. The path depends on the element count alone, so
/// deallocate always matches allocate.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) return static_cast<T*>(MapHuge(bytes));
    return static_cast<T*>(::operator new(bytes, std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kHugePageBytes) return UnmapHuge(p, n * sizeof(T));
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

}  // namespace gass::core

#endif  // GASS_CORE_ALIGN_H_
