#include "serve/frame.h"

#include <cassert>
#include <cstring>

namespace hyperprof::serve {

namespace {

constexpr size_t kMinBufferBytes = 4096;

uint32_t ReadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutLe32(uint32_t v, std::vector<uint8_t>& out) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PatchLe32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

}  // namespace

void EncodeFrame(const uint8_t* payload, size_t size,
                 std::vector<uint8_t>& out) {
  out.reserve(out.size() + size + kFrameOverhead);
  PutLe32(static_cast<uint32_t>(size), out);
  out.insert(out.end(), payload, payload + size);
  // Incremental CRC so the scatter-gather encoder can reuse this path;
  // one-shot Crc32c over the same bytes is identical by contract.
  workloads::Crc32cStream crc;
  crc.Update(payload, size);
  PutLe32(crc.value(), out);
}

size_t BeginFrame(std::vector<uint8_t>& out) {
  PutLe32(0, out);  // placeholder, patched by EndFrame
  return out.size();
}

void EndFrame(std::vector<uint8_t>& out, size_t payload_start) {
  assert(payload_start >= 4 && payload_start <= out.size());
  const size_t payload_size = out.size() - payload_start;
  assert(payload_size <= kMaxFramePayload);
  PatchLe32(static_cast<uint32_t>(payload_size),
            out.data() + payload_start - 4);
  workloads::Crc32cStream crc;
  crc.Update(out.data() + payload_start, payload_size);
  PutLe32(crc.value(), out);
}

void FrameDecoder::Compact() {
  // Compact once the consumed prefix dominates, so a long-lived pipelined
  // connection doesn't grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= size_ / 2) {
    std::memmove(buffer_.data(), buffer_.data() + consumed_,
                 size_ - consumed_);
    size_ -= consumed_;
    consumed_ = 0;
  }
}

uint8_t* FrameDecoder::WritableSpan(size_t min_bytes) {
  if (failed()) return nullptr;
  Compact();
  if (buffer_.size() - size_ < min_bytes) {
    size_t target = buffer_.size() < kMinBufferBytes ? kMinBufferBytes
                                                     : buffer_.size() * 2;
    while (target - size_ < min_bytes) target *= 2;
    buffer_.resize(target);
    ++buffer_reallocs_;
  }
  return buffer_.data() + size_;
}

void FrameDecoder::CommitBytes(size_t size) {
  if (failed()) return;
  assert(size_ + size <= buffer_.size());
  size_ += size;
  bytes_fed_ += size;
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  // An empty feed copies nothing, and into an empty decoder memcpy would
  // get a null destination (and may get a null source), which is
  // undefined even for zero bytes.
  if (failed() || size == 0) return;
  uint8_t* dst = WritableSpan(size);
  std::memcpy(dst, data, size);
  CommitBytes(size);
}

FrameDecoder::Status FrameDecoder::NextView(FrameView* view) {
  if (failed()) return error_;
  const size_t available = size_ - consumed_;
  if (available < 4) return Status::kNeedMore;
  const uint8_t* base = buffer_.data() + consumed_;
  const uint32_t length = ReadLe32(base);
  // The length is validated before waiting for the body: an oversized
  // prefix fails immediately instead of buffering toward the bogus size.
  if (length > kMaxFramePayload) {
    error_ = Status::kOversized;
    return error_;
  }
  if (available < static_cast<size_t>(length) + kFrameOverhead) {
    return Status::kNeedMore;
  }
  const uint8_t* body = base + 4;
  workloads::Crc32cStream crc;
  crc.Update(body, length);
  if (crc.value() != ReadLe32(body + length)) {
    error_ = Status::kBadChecksum;
    return error_;
  }
  view->data = body;
  view->size = length;
  consumed_ += static_cast<size_t>(length) + kFrameOverhead;
  ++frames_decoded_;
  return Status::kFrame;
}

FrameDecoder::Status FrameDecoder::Next(std::vector<uint8_t>* payload) {
  FrameView view;
  const Status status = NextView(&view);
  if (status == Status::kFrame) payload->assign(view.data, view.data + view.size);
  return status;
}

}  // namespace hyperprof::serve
