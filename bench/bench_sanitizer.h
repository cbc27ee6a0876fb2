#ifndef HYPERPROF_BENCH_BENCH_SANITIZER_H_
#define HYPERPROF_BENCH_BENCH_SANITIZER_H_

namespace hyperprof::bench {

/**
 * True in AddressSanitizer, ThreadSanitizer and MemorySanitizer builds,
 * where wall-clock numbers are not meaningful: the benches' perf guards
 * print a skip reason instead of a false alarm. GCC defines
 * __SANITIZE_*__; Clang answers through __has_feature.
 */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

}  // namespace hyperprof::bench

#endif  // HYPERPROF_BENCH_BENCH_SANITIZER_H_
