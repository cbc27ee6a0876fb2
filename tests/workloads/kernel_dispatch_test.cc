// Cross-path bit-identity and streaming==one-shot tests for the
// datacenter-tax kernels behind the runtime dispatch layer (common/cpu.h).
// Every test that touches a dispatched kernel runs under BOTH policies:
// the contract is that the dispatch policy can change wall-clock only,
// never a single output bit.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.h"
#include "common/rng.h"
#include "workloads/checksum.h"
#include "workloads/compression.h"
#include "workloads/protowire/wire.h"
#include "workloads/sha3.h"

namespace hyperprof::workloads {
namespace {

// Restores the native default when a test exits.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(KernelDispatch dispatch) {
    SetKernelDispatchForTest(dispatch);
  }
  ~ScopedDispatch() { SetKernelDispatchForTest(std::nullopt); }
};

constexpr KernelDispatch kBothModes[] = {KernelDispatch::kPortable,
                                         KernelDispatch::kNative};

// Bit-at-a-time CRC32C: the slowest possible implementation, used as the
// ground truth both table and hardware paths must match.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBuffer(size_t size, Rng& rng) {
  std::vector<uint8_t> buffer(size);
  for (auto& b : buffer) b = static_cast<uint8_t>(rng.NextBounded(256));
  return buffer;
}

TEST(CpuDispatchTest, DetectionIsStable) {
  const CpuFeatures& first = HostCpuFeatures();
  const CpuFeatures& second = HostCpuFeatures();
  EXPECT_EQ(&first, &second);
#if defined(__x86_64__)
  // The hardware CRC path rides on SSE4.2; pclmul/avx2 imply it in
  // practice on every x86-64 that has them.
  if (first.avx2) {
    EXPECT_TRUE(first.sse42);
  }
#endif
}

TEST(CpuDispatchTest, OverrideWinsOverEnvironment) {
  // The policy is the override, else native: a variable in the
  // environment selects nothing.
  ::setenv("HYPERPROF_KERNEL_DISPATCH", "portable", /*overwrite=*/1);
  EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kNative);
  ::unsetenv("HYPERPROF_KERNEL_DISPATCH");
  {
    ScopedDispatch pin(KernelDispatch::kPortable);
    EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kPortable);
    EXPECT_FALSE(UseHardwareCrc32());
  }
  {
    ScopedDispatch pin(KernelDispatch::kNative);
    EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kNative);
  }
}

TEST(CpuDispatchTest, SummaryNamesActivePolicy) {
  ScopedDispatch pin(KernelDispatch::kPortable);
  EXPECT_EQ(KernelDispatchSummary().rfind("portable (", 0), 0u);
}

TEST(CrcDispatchTest, BothPathsMatchBitwiseReference) {
  Rng rng(101);
  for (size_t size : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8},
                      size_t{9}, size_t{15}, size_t{16}, size_t{63},
                      size_t{64}, size_t{255}, size_t{1024}, size_t{4097}}) {
    auto buffer = RandomBuffer(size, rng);
    uint32_t seed = static_cast<uint32_t>(rng.Next());
    uint32_t expected = ReferenceCrc32c(buffer.data(), size, seed);
    for (KernelDispatch mode : kBothModes) {
      ScopedDispatch pin(mode);
      EXPECT_EQ(Crc32c(buffer.data(), size, seed), expected)
          << "size=" << size << " mode=" << KernelDispatchName(mode);
    }
  }
}

TEST(CrcDispatchTest, UnalignedBuffersMatch) {
  Rng rng(102);
  auto backing = RandomBuffer(512, rng);
  for (size_t offset = 0; offset < 9; ++offset) {
    size_t size = backing.size() - offset - 7;
    uint32_t expected =
        ReferenceCrc32c(backing.data() + offset, size, 0);
    for (KernelDispatch mode : kBothModes) {
      ScopedDispatch pin(mode);
      EXPECT_EQ(Crc32c(backing.data() + offset, size), expected)
          << "offset=" << offset << " mode=" << KernelDispatchName(mode);
    }
  }
}

TEST(CrcDispatchTest, StreamingEqualsOneShotAcrossRandomSplits) {
  Rng rng(103);
  auto buffer = RandomBuffer(8192, rng);
  for (KernelDispatch mode : kBothModes) {
    ScopedDispatch pin(mode);
    uint32_t one_shot = Crc32c(buffer);
    for (int trial = 0; trial < 32; ++trial) {
      Crc32cStream stream;
      size_t pos = 0;
      while (pos < buffer.size()) {
        size_t chunk =
            std::min(buffer.size() - pos, rng.NextBounded(300));
        stream.Update(buffer.data() + pos, chunk);
        pos += chunk;
      }
      EXPECT_EQ(stream.value(), one_shot)
          << "trial=" << trial << " mode=" << KernelDispatchName(mode);
    }
  }
}

TEST(CrcDispatchTest, StreamEmptyUpdatesAndReset) {
  for (KernelDispatch mode : kBothModes) {
    ScopedDispatch pin(mode);
    Crc32cStream stream;
    EXPECT_EQ(stream.value(), Crc32c(nullptr, 0));
    stream.Update(nullptr, 0);
    EXPECT_EQ(stream.value(), Crc32c(nullptr, 0));
    const uint8_t kByte = 0x42;
    stream.Update(&kByte, 1);
    uint32_t with_byte = stream.value();
    EXPECT_EQ(with_byte, Crc32c(&kByte, 1));
    // value() is a running checksum: reading it must not finalize.
    stream.Update(&kByte, 1);
    const uint8_t two[] = {0x42, 0x42};
    EXPECT_EQ(stream.value(), Crc32c(two, 2));
    stream.Reset();
    stream.Update(&kByte, 1);
    EXPECT_EQ(stream.value(), with_byte);
  }
}

TEST(CrcDispatchTest, SeedChainsAcrossDispatchModes) {
  // A checksum started under one policy must be resumable under the other:
  // storage code may checksum a block on a different machine than the one
  // that verifies it.
  Rng rng(104);
  auto buffer = RandomBuffer(1000, rng);
  uint32_t whole = ReferenceCrc32c(buffer.data(), buffer.size(), 0);
  uint32_t head;
  {
    ScopedDispatch pin(KernelDispatch::kNative);
    head = Crc32c(buffer.data(), 333);
  }
  {
    ScopedDispatch pin(KernelDispatch::kPortable);
    EXPECT_EQ(Crc32c(buffer.data() + 333, buffer.size() - 333, head), whole);
  }
}

TEST(Sha3DispatchTest, StreamingEqualsOneShotAcrossRandomSplits) {
  Rng rng(105);
  auto buffer = RandomBuffer(10000, rng);
  for (KernelDispatch mode : kBothModes) {
    ScopedDispatch pin(mode);
    auto one_shot = Sha3_256::Hash(buffer);
    for (int trial = 0; trial < 16; ++trial) {
      Sha3_256 hasher;
      size_t pos = 0;
      while (pos < buffer.size()) {
        // Mix sub-rate, exactly-rate, and multi-block chunks.
        size_t chunk = std::min(buffer.size() - pos,
                                rng.NextBounded(3 * Sha3_256::kRateBytes));
        hasher.Update(buffer.data() + pos, chunk);
        pos += chunk;
      }
      EXPECT_EQ(hasher.Finish(), one_shot)
          << "trial=" << trial << " mode=" << KernelDispatchName(mode);
    }
  }
}

TEST(Sha3DispatchTest, EmptyAndUnalignedInputs) {
  Rng rng(106);
  auto backing = RandomBuffer(700, rng);
  for (KernelDispatch mode : kBothModes) {
    ScopedDispatch pin(mode);
    // Empty message digest is pinned by sha3_test goldens; here just check
    // chunked-empty consistency.
    Sha3_256 empty_hasher;
    empty_hasher.Update(nullptr, 0);
    EXPECT_EQ(empty_hasher.Finish(), Sha3_256::Hash(nullptr, 0));
    for (size_t offset = 1; offset < 8; ++offset) {
      auto direct = Sha3_256::Hash(backing.data() + offset, 600);
      Sha3_256 hasher;
      hasher.Update(backing.data() + offset, 600);
      EXPECT_EQ(hasher.Finish(), direct) << "offset=" << offset;
    }
  }
}

TEST(VarintDispatchTest, EncodeMatchesNaiveReferenceEverywhere) {
  // The SWAR encoder must emit byte-for-byte what the schoolbook encoder
  // emits, for boundary values of every length and random fills.
  Rng rng(107);
  std::vector<uint64_t> values = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000};
  for (int bits = 1; bits < 64; ++bits) {
    values.push_back((1ull << bits) - 1);
    values.push_back(1ull << bits);
    values.push_back((1ull << bits) | (rng.Next() & ((1ull << bits) - 1)));
  }
  values.push_back(~0ull);
  for (KernelDispatch mode : kBothModes) {
    ScopedDispatch pin(mode);
    for (uint64_t value : values) {
      protowire::WireBuffer expected;
      uint64_t v = value;
      while (v >= 0x80) {
        expected.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
      }
      expected.push_back(static_cast<uint8_t>(v));
      protowire::WireBuffer got;
      protowire::PutVarint(got, value);
      EXPECT_EQ(got, expected) << "value=" << value;
      protowire::WireReader reader(got);
      uint64_t decoded;
      ASSERT_TRUE(reader.GetVarint(&decoded));
      EXPECT_EQ(decoded, value);
    }
  }
}

TEST(VarintDispatchTest, DecodeFastAndTailPathsAgree) {
  // The same varint is decoded once with 8+ readable bytes (word-at-a-time
  // path) and once flush against the buffer end (tail path).
  Rng rng(108);
  for (int trial = 0; trial < 2000; ++trial) {
    uint64_t value = rng.Next() >> rng.NextBounded(64);
    protowire::WireBuffer exact;
    protowire::PutVarint(exact, value);
    protowire::WireBuffer padded = exact;
    padded.resize(exact.size() + 16, 0xff);
    uint64_t from_padded, from_exact;
    protowire::WireReader padded_reader(padded);
    protowire::WireReader exact_reader(exact);
    ASSERT_TRUE(padded_reader.GetVarint(&from_padded));
    ASSERT_TRUE(exact_reader.GetVarint(&from_exact));
    EXPECT_EQ(from_padded, value);
    EXPECT_EQ(from_exact, value);
    EXPECT_EQ(padded_reader.position(), exact.size());
    EXPECT_TRUE(exact_reader.AtEnd());
  }
}

TEST(CompressionDispatchTest, OutputIdenticalAcrossModes) {
  // The LZ kernel's optimizations (word-wide match extension, skip-ahead)
  // are dispatch-neutral: both policies must produce the same bytes.
  Rng rng(109);
  for (double entropy : {0.0, 0.3, 0.7, 1.0}) {
    Rng gen(static_cast<uint64_t>(entropy * 1000) + 7);
    auto input = GenerateCompressibleBuffer(1 << 16, entropy, gen);
    std::vector<uint8_t> portable_out, native_out;
    {
      ScopedDispatch pin(KernelDispatch::kPortable);
      portable_out = LzCodec::Compress(input);
    }
    {
      ScopedDispatch pin(KernelDispatch::kNative);
      native_out = LzCodec::Compress(input);
    }
    EXPECT_EQ(portable_out, native_out) << "entropy=" << entropy;
    std::vector<uint8_t> round_trip;
    ASSERT_TRUE(LzCodec::Decompress(portable_out, &round_trip));
    EXPECT_EQ(round_trip, input);
  }
  (void)rng;
}

TEST(CompressionDispatchTest, MatchExtensionBoundaries) {
  // Runs whose match length lands on every offset around the 8-byte word
  // boundaries of the new extension loop.
  for (size_t run = 4; run < 40; ++run) {
    std::vector<uint8_t> input;
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t i = 0; i < run; ++i) {
        input.push_back(static_cast<uint8_t>('a' + (i % 23)));
      }
      input.push_back(static_cast<uint8_t>(0xf0 + rep));  // break the run
    }
    auto compressed = LzCodec::Compress(input);
    std::vector<uint8_t> output;
    ASSERT_TRUE(LzCodec::Decompress(compressed, &output)) << "run=" << run;
    EXPECT_EQ(output, input) << "run=" << run;
  }
}

}  // namespace
}  // namespace hyperprof::workloads
