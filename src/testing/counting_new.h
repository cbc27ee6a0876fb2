#ifndef HYPERPROF_TESTING_COUNTING_NEW_H_
#define HYPERPROF_TESTING_COUNTING_NEW_H_

// Counting replacement of the global allocator, for the binaries that pin
// steady-state allocation counts. It defines the replaceable operator
// new/delete forms, so include it from exactly one translation unit of a
// binary, and keep that binary its own executable so the override cannot
// leak into other suites.
//
// Every allocating form counts and takes its memory from malloc, and every
// delete form frees, so each pair matches whichever form a library uses
// (std::stable_sort's temporary buffer comes from the nothrow form; left
// to the runtime, AddressSanitizer reports it freed through ours as an
// alloc-dealloc mismatch).

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocation_count{0};
// Debug aid: arm inside a measured window to dump a backtrace of each
// allocation site.
std::atomic<bool> g_trap_on_alloc{false};

void* CountedMalloc(std::size_t size) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (g_trap_on_alloc.load(std::memory_order_relaxed)) {
    g_trap_on_alloc.store(false, std::memory_order_relaxed);
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, STDERR_FILENO);
    g_trap_on_alloc.store(true, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* ptr = CountedMalloc(size)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

#endif  // HYPERPROF_TESTING_COUNTING_NEW_H_
