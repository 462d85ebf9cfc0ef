#ifndef PORYGON_COMMON_CODEC_H_
#define PORYGON_COMMON_CODEC_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace porygon {

/// Append-only binary encoder. All multi-byte integers are little-endian;
/// variable-size payloads are length-prefixed with a varint. This is the wire
/// format for every message, block, and proof in the system, so encoded sizes
/// feed directly into the bandwidth model of the network simulator
/// (tests/wire_golden_test.cc pins the bytes).
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// LEB128 unsigned varint.
  void PutVarint(uint64_t v);
  /// Length-prefixed byte string.
  void PutBytes(ByteView data);
  /// Fixed-width byte block, no length prefix (e.g. 32-byte hashes).
  void PutFixed(ByteView data);
  void PutString(std::string_view s) { PutBytes(ByteView(s)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// IEEE-754 bits as a little-endian u64 (exact round-trip).
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// Fixed-width byte array, no length prefix (Hash256, PublicKey, ...).
  template <size_t N>
  void PutArray(const std::array<uint8_t, N>& a) {
    PutFixed(ByteView(a.data(), N));
  }

  const Bytes& buffer() const { return buf_; }
  Bytes TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Streaming decoder over a byte view. Every accessor validates bounds and
/// returns Corruption on truncated input. Input comes from peers that may be
/// Byzantine, so element counts read off the wire go through GetCount before
/// they size any allocation.
class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint();
  /// Reads a length-prefixed byte string.
  Result<Bytes> GetBytes();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> GetFixed(size_t n);
  /// Borrowed-buffer variants: the returned view aliases the input buffer
  /// (valid only while it lives), so relay/forward paths can re-encode or
  /// hash nested payloads without copying them first.
  Result<ByteView> GetBytesView();
  Result<ByteView> GetFixedView(size_t n);
  Result<std::string> GetString();
  Result<bool> GetBool();
  Result<double> GetF64();

  /// Reads a fixed-width byte array written by Encoder::PutArray.
  template <size_t N>
  Result<std::array<uint8_t, N>> GetArray() {
    PORYGON_ASSIGN_OR_RETURN(ByteView raw, GetFixedView(N));
    std::array<uint8_t, N> out{};
    std::memcpy(out.data(), raw.data(), N);
    return out;
  }

  /// Reads a varint element count and rejects it with Corruption when the
  /// remaining input cannot hold that many elements of at least
  /// `min_elem_bytes` (>= 1) each, so a forged count cannot size a huge
  /// allocation.
  Result<uint64_t> GetCount(size_t min_elem_bytes);

  /// Ok when every byte was consumed, else Corruption naming `what`.
  Status Finish(std::string_view what) const;

  /// Number of bytes not yet consumed.
  size_t remaining() const { return data_.size(); }
  bool Done() const { return data_.empty(); }

 private:
  ByteView data_;
};

/// Varint-encoded size of `v`, for size accounting without encoding.
size_t VarintLength(uint64_t v);

}  // namespace porygon

#endif  // PORYGON_COMMON_CODEC_H_
