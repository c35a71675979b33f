// Counting replacement of the global allocation functions. Each thread
// tallies its own calls, so a span can attribute allocations to the
// stage it wraps without any shared-counter traffic. The counts are
// deterministic for a deterministic program: the same work on the same
// input allocates the same number of times.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

thread_local std::uint64_t tl_allocations = 0;

void *allocate(std::size_t size) {
  ++tl_allocations;
  if (void *p = std::malloc(size ? size : 1))
    return p;
  throw std::bad_alloc();
}

void *allocateAligned(std::size_t size, std::align_val_t align) {
  ++tl_allocations;
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      ((size ? size : 1) + alignment - 1) / alignment * alignment;
  if (void *p = std::aligned_alloc(alignment, rounded))
    return p;
  throw std::bad_alloc();
}

} // namespace

namespace perfbench {
std::uint64_t threadAllocations() { return tl_allocations; }
} // namespace perfbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }
void *operator new(std::size_t size, const std::nothrow_t &) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t size, const std::nothrow_t &) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t size, std::align_val_t align) {
  return allocateAligned(size, align);
}
void *operator new[](std::size_t size, std::align_val_t align) {
  return allocateAligned(size, align);
}
void *operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept {
  std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(p);
}
