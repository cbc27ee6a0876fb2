#include "common/cpu.h"

#include <atomic>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define HYPERPROF_X86_64 1
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#define HYPERPROF_AARCH64_LINUX 1
// Bit positions from <asm/hwcap.h>; spelled out so the file builds even
// against older kernel headers.
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace hyperprof {

namespace {

CpuFeatures DetectFeatures() {
  CpuFeatures features;
#if defined(HYPERPROF_X86_64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    features.sse42 = (ecx & (1u << 20)) != 0;
    features.pclmul = (ecx & (1u << 1)) != 0;
    // AVX2 is only usable when the OS saves ymm state (OSXSAVE + XCR0).
    bool osxsave = (ecx & (1u << 27)) != 0;
    bool ymm_enabled = false;
    if (osxsave) {
      uint32_t xcr0_lo, xcr0_hi;
      __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      ymm_enabled = (xcr0_lo & 0x6) == 0x6;
    }
    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (ymm_enabled && __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
      features.avx2 = (ebx7 & (1u << 5)) != 0;
    }
  }
#elif defined(HYPERPROF_AARCH64_LINUX)
  unsigned long hwcap = getauxval(AT_HWCAP);
  features.neon = (hwcap & HWCAP_ASIMD) != 0;
  features.arm_crc32 = (hwcap & HWCAP_CRC32) != 0;
#endif
  return features;
}

// -1: no override; otherwise the KernelDispatch value.
std::atomic<int> g_dispatch_override{-1};

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures kFeatures = DetectFeatures();
  return kFeatures;
}

const char* KernelDispatchName(KernelDispatch dispatch) {
  switch (dispatch) {
    case KernelDispatch::kPortable: return "portable";
    case KernelDispatch::kNative: return "native";
  }
  return "unknown";
}

KernelDispatch ActiveKernelDispatch() {
  int override_value = g_dispatch_override.load(std::memory_order_relaxed);
  if (override_value >= 0) {
    return static_cast<KernelDispatch>(override_value);
  }
  return KernelDispatch::kNative;
}

void SetKernelDispatchForTest(std::optional<KernelDispatch> dispatch) {
  g_dispatch_override.store(
      dispatch.has_value() ? static_cast<int>(*dispatch) : -1,
      std::memory_order_relaxed);
}

bool UseHardwareCrc32() {
  if (ActiveKernelDispatch() != KernelDispatch::kNative) return false;
  const CpuFeatures& features = HostCpuFeatures();
  return features.sse42 || features.arm_crc32;
}

std::string KernelDispatchSummary() {
  const CpuFeatures& features = HostCpuFeatures();
  std::string summary = KernelDispatchName(ActiveKernelDispatch());
  summary += " (";
  bool first = true;
  auto append = [&](bool present, const char* name) {
    if (!present) return;
    if (!first) summary += ' ';
    summary += name;
    first = false;
  };
  append(features.sse42, "sse4.2");
  append(features.pclmul, "pclmul");
  append(features.avx2, "avx2");
  append(features.neon, "neon");
  append(features.arm_crc32, "crc32");
  if (first) summary += "scalar-only";
  summary += ')';
  return summary;
}

}  // namespace hyperprof
