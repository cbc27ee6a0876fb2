#ifndef HYPERPROF_COMMON_CPU_H_
#define HYPERPROF_COMMON_CPU_H_

#include <cstdint>
#include <optional>
#include <string>

namespace hyperprof {

/**
 * Runtime CPU-feature detection and kernel-dispatch policy.
 *
 * The datacenter-tax kernels under `workloads/` (checksum, serialization,
 * hashing, compression) each keep a portable reference implementation and,
 * where the ISA offers one, a hardware-accelerated path (e.g. the SSE4.2
 * `crc32` instruction). Which path runs is decided at runtime from the
 * detected features plus a process-wide dispatch policy, so the same
 * binary gives the best software-on-CPU baseline the machine supports
 * while tests and benchmarks can pin either path in-process.
 *
 * The hard contract (DESIGN.md §12): every native path is bit-identical
 * to the portable reference on all inputs, so dispatch can never change
 * simulation digests, goldens, or any recorded artifact — only wall-clock.
 */
struct CpuFeatures {
  // x86-64 leaves.
  bool sse42 = false;   // CRC32 instruction (SSE4.2)
  bool pclmul = false;  // carry-less multiply
  bool avx2 = false;    // 256-bit integer SIMD (with OS ymm-state support)
  // AArch64 hwcaps.
  bool neon = false;      // Advanced SIMD
  bool arm_crc32 = false; // CRC32 extension
};

/** Features of the host CPU, detected once per process. */
const CpuFeatures& HostCpuFeatures();

/** Which kernel implementations the process should select. */
enum class KernelDispatch : uint8_t {
  kPortable,  // always the portable reference paths
  kNative,    // hardware paths where detected, portable otherwise
};

const char* KernelDispatchName(KernelDispatch dispatch);

/** Effective dispatch policy: a test override if one is set, else native. */
KernelDispatch ActiveKernelDispatch();

/**
 * Pins the dispatch policy for tests and benchmarks; `nullopt` restores
 * native. Affects kernels process-wide from the next call onward.
 */
void SetKernelDispatchForTest(std::optional<KernelDispatch> dispatch);

/** True when native dispatch is active and the host has a hardware CRC32. */
bool UseHardwareCrc32();

/**
 * Human-readable summary of the active policy and detected features,
 * e.g. "native (sse4.2 pclmul avx2)" — for bench metadata and logs.
 */
std::string KernelDispatchSummary();

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_CPU_H_
