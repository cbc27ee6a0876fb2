#ifndef HYPERPROF_WORKLOADS_CHECKSUM_H_
#define HYPERPROF_WORKLOADS_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof::workloads {

/**
 * CRC32C (Castagnoli, reflected polynomial 0x82F63B78).
 *
 * Checksumming is the EDAC system tax in the paper's Table 3; every block
 * the storage substrate "moves" is conceptually guarded by this kernel,
 * and the microbenchmarks time it directly.
 *
 * Two implementations sit behind the runtime dispatch layer
 * (`common/cpu.h`): a portable slicing-by-8 table walk (8 bytes per step,
 * eight 256-entry tables) and, under native dispatch on hardware that has
 * it, the dedicated CRC32 instruction (SSE4.2 `crc32` on x86-64, the CRC
 * extension on AArch64). Both produce bit-identical results on all
 * inputs; `SetKernelDispatchForTest(kPortable)` pins the table path.
 */
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

/**
 * Incremental CRC32C over a stream of chunks. Feeding a buffer in any
 * chunking (including empty chunks) yields the same value as the one-shot
 * `Crc32c` over the concatenation. `value()` may be read at any point —
 * it is the checksum of everything fed so far — and the stream stays
 * usable afterwards.
 */
class Crc32cStream {
 public:
  explicit Crc32cStream(uint32_t seed = 0) { Reset(seed); }

  void Update(const uint8_t* data, size_t size);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }

  /** Checksum of all bytes fed since the last Reset. */
  uint32_t value() const { return ~state_; }

  void Reset(uint32_t seed = 0) { state_ = ~seed; }

 private:
  uint32_t state_;  // running CRC with the final complement not applied
};

}  // namespace hyperprof::workloads

#endif  // HYPERPROF_WORKLOADS_CHECKSUM_H_
