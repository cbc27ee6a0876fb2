// Adversarial fuzzing of the serving frame decoder and the protowire
// request/response parsers: arbitrary chunking must never change what is
// decoded, and corrupt or garbage bytes must be rejected without reading
// past the buffer (ASan enforces the "without" part).

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "serve/frame.h"
#include "serve/protocol.h"

namespace hyperprof::serve {
namespace {

std::vector<uint8_t> RandomPayload(Rng& rng, size_t size) {
  std::vector<uint8_t> payload(size);
  for (auto& byte : payload) byte = static_cast<uint8_t>(rng.Next());
  return payload;
}

/** Encodes `frames` into one contiguous stream. */
std::vector<uint8_t> EncodeStream(
    const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<uint8_t> stream;
  for (const auto& frame : frames) EncodeFrame(frame, stream);
  return stream;
}

TEST(FrameFuzzTest, RandomSplitPointsReassembleIdentically) {
  Rng rng(0x5eedf00d);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t frame_count = 1 + rng.NextBounded(8);
    std::vector<std::vector<uint8_t>> frames;
    for (size_t i = 0; i < frame_count; ++i) {
      frames.push_back(RandomPayload(rng, rng.NextBounded(300)));
    }
    const std::vector<uint8_t> stream = EncodeStream(frames);

    // Feed the stream in random-size chunks, including empty ones.
    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> decoded;
    std::vector<uint8_t> payload;
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t chunk = rng.NextBounded(17);
      const size_t take = std::min(chunk, stream.size() - offset);
      decoder.Feed(stream.data() + offset, take);
      offset += take;
      for (;;) {
        const FrameDecoder::Status status = decoder.Next(&payload);
        if (status != FrameDecoder::Status::kFrame) {
          ASSERT_EQ(status, FrameDecoder::Status::kNeedMore);
          break;
        }
        decoded.push_back(payload);
      }
    }
    ASSERT_EQ(decoded, frames);
    EXPECT_FALSE(decoder.HasPartial());
    EXPECT_EQ(decoder.frames_decoded(), frame_count);
  }
}

TEST(FrameFuzzTest, FramesDecodeAcrossDispatchPolicies) {
  // A frame's CRC32C goes through the kernel dispatch, and the daemon and
  // its clients may run on hosts with and without a CRC instruction: a
  // frame encoded under either policy must be byte-identical and decode
  // under the other.
  constexpr KernelDispatch kPairs[][2] = {
      {KernelDispatch::kPortable, KernelDispatch::kNative},
      {KernelDispatch::kNative, KernelDispatch::kPortable}};
  Rng rng(0xd15fa7c4);
  for (const auto& pair : kPairs) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::vector<uint8_t>> frames;
      for (size_t i = 0, count = 1 + rng.NextBounded(6); i < count; ++i) {
        frames.push_back(RandomPayload(rng, rng.NextBounded(2000)));
      }
      SetKernelDispatchForTest(pair[1]);
      const std::vector<uint8_t> reference = EncodeStream(frames);
      SetKernelDispatchForTest(pair[0]);
      const std::vector<uint8_t> stream = EncodeStream(frames);
      SetKernelDispatchForTest(pair[1]);
      FrameDecoder decoder;
      decoder.Feed(stream.data(), stream.size());
      std::vector<std::vector<uint8_t>> decoded;
      std::vector<uint8_t> payload;
      while (decoder.Next(&payload) == FrameDecoder::Status::kFrame) {
        decoded.push_back(payload);
      }
      SetKernelDispatchForTest(std::nullopt);
      ASSERT_EQ(stream, reference) << KernelDispatchName(pair[0]);
      ASSERT_EQ(decoded, frames) << KernelDispatchName(pair[0]) << " -> "
                                 << KernelDispatchName(pair[1]);
      EXPECT_FALSE(decoder.HasPartial());
    }
  }
}

TEST(FrameFuzzTest, BeginEndFrameIsByteIdenticalToEncodeFrame) {
  Rng rng(0x1de5a3e);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> payload =
        RandomPayload(rng, rng.NextBounded(400));

    std::vector<uint8_t> copied;
    copied.push_back(0xEE);  // both paths must append, not clobber
    EncodeFrame(payload.data(), payload.size(), copied);

    std::vector<uint8_t> in_place;
    in_place.push_back(0xEE);
    const size_t start = BeginFrame(in_place);
    in_place.insert(in_place.end(), payload.begin(), payload.end());
    EndFrame(in_place, start);

    ASSERT_EQ(in_place, copied);
  }
}

TEST(FrameFuzzTest, ZeroCopyPathMatchesFeedAndNext) {
  Rng rng(0x0c0feeb1);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t frame_count = 1 + rng.NextBounded(6);
    std::vector<std::vector<uint8_t>> frames;
    for (size_t i = 0; i < frame_count; ++i) {
      frames.push_back(RandomPayload(rng, rng.NextBounded(300)));
    }
    const std::vector<uint8_t> stream = EncodeStream(frames);

    // Receive directly into WritableSpan/CommitBytes (as the daemon
    // does), drain with NextView: same frames, zero copies.
    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> decoded;
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t take =
          std::min<size_t>(1 + rng.NextBounded(23), stream.size() - offset);
      uint8_t* span = decoder.WritableSpan(take);
      ASSERT_NE(span, nullptr);
      std::memcpy(span, stream.data() + offset, take);
      decoder.CommitBytes(take);
      offset += take;
      for (;;) {
        FrameView view;
        const FrameDecoder::Status status = decoder.NextView(&view);
        if (status != FrameDecoder::Status::kFrame) {
          ASSERT_EQ(status, FrameDecoder::Status::kNeedMore);
          break;
        }
        decoded.emplace_back(view.data, view.data + view.size);
      }
    }
    ASSERT_EQ(decoded, frames);
    EXPECT_FALSE(decoder.HasPartial());
    EXPECT_EQ(decoder.bytes_fed(), stream.size());
  }
}

TEST(FrameFuzzTest, WarmedDecoderStopsReallocating) {
  // Identical frames through a warmed buffer: after the first frame has
  // grown the buffer to cover one full frame, further cycles must not
  // reallocate — the property the daemon's serve_allocs counter pins.
  Rng rng(0xa110c);
  const std::vector<uint8_t> payload = RandomPayload(rng, 600);
  std::vector<uint8_t> frame;
  EncodeFrame(payload.data(), payload.size(), frame);

  FrameDecoder decoder;
  std::vector<uint8_t> out;
  decoder.Feed(frame.data(), frame.size());
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Status::kFrame);
  const uint64_t warm_reallocs = decoder.buffer_reallocs();

  for (int i = 0; i < 64; ++i) {
    uint8_t* span = decoder.WritableSpan(frame.size());
    ASSERT_NE(span, nullptr);
    std::memcpy(span, frame.data(), frame.size());
    decoder.CommitBytes(frame.size());
    FrameView view;
    ASSERT_EQ(decoder.NextView(&view), FrameDecoder::Status::kFrame);
    ASSERT_EQ(view.size, payload.size());
  }
  EXPECT_EQ(decoder.buffer_reallocs(), warm_reallocs);
}

TEST(FrameFuzzTest, SingleBitFlipsNeverYieldAForgedFrame) {
  Rng rng(0xb17f11b5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<uint8_t> payload =
        RandomPayload(rng, 1 + rng.NextBounded(200));
    std::vector<uint8_t> stream;
    EncodeFrame(payload.data(), payload.size(), stream);
    const size_t bit = rng.NextBounded(stream.size() * 8);
    stream[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));

    FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    std::vector<uint8_t> decoded;
    const FrameDecoder::Status status = decoder.Next(&decoded);
    // A flipped length field may leave the decoder waiting for bytes that
    // never come (kNeedMore) or declare the frame oversized; a flipped
    // payload or checksum byte must fail the CRC. What can never happen is
    // a successfully decoded frame whose payload is not the original.
    if (status == FrameDecoder::Status::kFrame) {
      ADD_FAILURE() << "bit flip at " << bit << " produced a decoded frame";
    } else {
      EXPECT_TRUE(status == FrameDecoder::Status::kNeedMore ||
                  status == FrameDecoder::Status::kBadChecksum ||
                  status == FrameDecoder::Status::kOversized);
    }
  }
}

TEST(FrameDecoderTest, ZeroLengthFeedIntoEmptyDecoder) {
  // A zero-length feed into a decoder that has buffered nothing is a
  // no-op: with a null source too, and with a real one.
  std::vector<uint8_t> payload = {7, 8, 9};
  std::vector<uint8_t> stream;
  EncodeFrame(payload.data(), payload.size(), stream);

  FrameDecoder decoder;
  decoder.Feed(nullptr, 0);
  decoder.Feed(stream.data(), 0);
  EXPECT_FALSE(decoder.HasPartial());
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Status::kNeedMore);

  // The stream still decodes normally afterwards.
  decoder.Feed(stream.data(), stream.size());
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(FrameFuzzTest, ErrorsAreStickyAcrossFurtherFeeds) {
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  std::vector<uint8_t> stream;
  EncodeFrame(payload.data(), payload.size(), stream);
  stream[5] ^= 0xff;  // corrupt the payload; CRC must catch it

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Status::kBadChecksum);
  EXPECT_TRUE(decoder.failed());

  // A good frame after the corruption must NOT resurrect the stream: a
  // framing error means the byte boundary itself is untrustworthy.
  std::vector<uint8_t> good;
  EncodeFrame(payload.data(), payload.size(), good);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Status::kBadChecksum);
}

TEST(FrameFuzzTest, OversizedLengthRejectedBeforeBuffering) {
  std::vector<uint8_t> header(4);
  const uint32_t huge = kMaxFramePayload + 1;
  header[0] = static_cast<uint8_t>(huge);
  header[1] = static_cast<uint8_t>(huge >> 8);
  header[2] = static_cast<uint8_t>(huge >> 16);
  header[3] = static_cast<uint8_t>(huge >> 24);

  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Status::kOversized);
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameFuzzTest, TruncationIsVisibleNotAccepted) {
  std::vector<uint8_t> payload = {9, 8, 7};
  std::vector<uint8_t> stream;
  EncodeFrame(payload.data(), payload.size(), stream);
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size() - 2);  // drop the CRC tail
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.HasPartial());
  EXPECT_EQ(decoder.frames_decoded(), 0u);
}

TEST(FrameFuzzTest, GarbageBytesNeverCrashTheMessageDecoders) {
  Rng rng(0xdec0de);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<uint8_t> garbage =
        RandomPayload(rng, rng.NextBounded(64));
    Request request;
    DecodeRequest(garbage.data(), garbage.size(), &request);
    Response response;
    DecodeResponse(garbage.data(), garbage.size(), &response);
    // No assertion on the return value: random bytes may happen to parse
    // as a valid (if meaningless) message. The property under test is
    // bounds safety — ASan/UBSan turn any overread into a hard failure.
  }
}

TEST(FrameFuzzTest, BitFlippedMessagesRoundTripOrFailCleanly) {
  Rng rng(0xf1a6);
  for (int trial = 0; trial < 300; ++trial) {
    Response response;
    response.id = rng.Next();
    response.status = ResponseStatus::kOk;
    response.latency_nanos = rng.Next() >> 20;
    WindowSummary window;
    window.index = static_cast<int64_t>(rng.NextBounded(1000));
    window.queries = rng.NextBounded(500);
    window.latency_p50 = 0.001;
    window.latency_p99 = 0.005;
    response.windows.push_back(window);
    protowire::WireBuffer wire;
    EncodeResponse(response, wire);

    const size_t bit = rng.NextBounded(wire.size() * 8);
    wire[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    Response decoded;
    DecodeResponse(wire.data(), wire.size(), &decoded);  // must not crash
  }
}

}  // namespace
}  // namespace hyperprof::serve
