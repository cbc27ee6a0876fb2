#ifndef HYPERPROF_COMMON_PARALLEL_FOR_H_
#define HYPERPROF_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace hyperprof {

/**
 * Runs fn(0..n-1) on up to `parallelism` host threads and returns once
 * every call has finished.
 *
 * `parallelism` 0 means one thread per hardware thread (at least 1). When
 * it resolves to 1, or n <= 1, every call runs inline on the caller's
 * thread. Otherwise min(threads, n) - 1 fresh threads and the caller claim
 * indices from one shared counter. Every index runs even if some calls
 * throw; the exception of the lowest failing index is rethrown after all
 * threads have joined.
 *
 * The threads live only for this call, so a nested ParallelFor from
 * inside `fn` starts threads of its own.
 */
void ParallelFor(size_t n, size_t parallelism,
                 const std::function<void(size_t)>& fn);

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_PARALLEL_FOR_H_
