// Wire framing for the distributed release protocol.
//
// Every message on an mdrr connection is one frame:
//
//   [u32 payload_length][u8 frame_type][payload bytes]
//
// with all multi-byte integers little-endian, packed byte-by-byte (no
// struct punning), so the format is identical across hosts regardless of
// native endianness. Payload length covers the payload only (not the type
// byte) and is capped at kMaxFramePayload; a peer claiming more is a
// protocol error, rejected before any allocation.
//
// WireWriter/WireReader are the primitive serializers every payload codec
// builds on. Bulk codecs (the code columns of wire.h) write a whole
// column through one exact-size Grow and read it back through one
// borrowed span (Borrow), so a column costs one length check and one
// pass on each side, not one call per byte. The reader is fully
// bounds-checked and returns Status on truncation -- frames can come
// from untrusted peers, so decoders must never index past the buffer or
// trust embedded lengths (see net_fuzz_test.cc).

#ifndef MDRR_NET_FRAME_H_
#define MDRR_NET_FRAME_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"

namespace mdrr {
namespace net {

// "MDRR" in ASCII; first field of the Hello frame so a stray client
// speaking a different protocol is rejected immediately.
inline constexpr uint32_t kProtocolMagic = 0x4d445252;

// Bumped on any incompatible wire change. Handshakes reject mismatches.
// v2: code columns travel width-tagged at 1, 2 or 4 bytes per code
// (wire.h); v1 sent every code as a u32.
inline constexpr uint32_t kProtocolVersion = 2;

// Hard upper bound on a frame payload (1 GiB). Large enough for any shard
// assignment at realistic grains, small enough that a hostile length
// prefix cannot drive an unbounded allocation.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class FrameType : uint8_t {
  // Handshake.
  kHello = 1,     // client -> server: magic, version, role
  kHelloAck = 2,  // server -> client: magic, version

  // Coordinator/worker release protocol.
  kAssignShards = 3,   // coordinator -> worker: matrix + shard slices
  kPartialResult = 4,  // worker -> coordinator: codes + merged counts
  kCommit = 5,         // coordinator -> worker: release done, disconnect
  kAbort = 6,          // either direction: fail-closed with a reason

  // Streaming ingest (mdrr_collectd --listen).
  kStreamOpen = 7,    // client -> server: cardinalities, total reports
  kStreamReport = 8,  // client -> server: batch of perturbed reports
  kStreamSeal = 9,    // client -> server: no more reports
  kStreamResult = 10  // server -> client: ingest summary
};

struct Frame {
  FrameType type;
  std::vector<uint8_t> payload;
};

// Appends little-endian primitives to a byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(v); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  // IEEE-754 bit pattern, so doubles round-trip exactly (the determinism
  // contract is bitwise; "close" is a failure).
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bytes(const void* data, size_t len) {
    if (len > 0) std::memcpy(Grow(len), data, len);
  }

  // Appends `len` bytes for the caller to fill and returns them: one
  // exact-size growth for a whole bulk-coded column.
  uint8_t* Grow(size_t len) {
    const size_t at = buffer_.size();
    buffer_.resize(at + len);
    return buffer_.data() + at;
  }

  // u32 length prefix + raw bytes.
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> Release() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Bounds-checked little-endian reads over a borrowed byte span. Every
// getter fails with OutOfRange on truncation instead of reading past the
// end; `remaining()` lets codecs sanity-check claimed element counts
// before allocating.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : WireReader(buffer.data(), buffer.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  StatusOr<uint8_t> U8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }

  StatusOr<uint32_t> U32() {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  StatusOr<uint64_t> U64() {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  StatusOr<int64_t> I64() {
    auto v = U64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(v.value());
  }

  StatusOr<double> F64() {
    auto bits = U64();
    if (!bits.ok()) return bits.status();
    double v;
    uint64_t b = bits.value();
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  StatusOr<std::string> String() {
    auto len = U32();
    if (!len.ok()) return len.status();
    if (remaining() < len.value()) return Truncated("string body");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len.value());
    pos_ += len.value();
    return s;
  }

  // Borrows the next `n` bytes in place (no copy) and steps past them;
  // the span lives as long as the reader's buffer.
  StatusOr<const uint8_t*> Borrow(size_t n) {
    if (remaining() < n) return Truncated("span");
    const uint8_t* span = data_ + pos_;
    pos_ += n;
    return span;
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("wire buffer truncated reading ") +
                              what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_FRAME_H_
