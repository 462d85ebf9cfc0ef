#include "common/codec.h"

namespace porygon {

void Encoder::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  size_t n = buf_.size();
  buf_.resize(n + 4);
  StoreLittleEndian32(buf_.data() + n, v);
}

void Encoder::PutU64(uint64_t v) {
  size_t n = buf_.size();
  buf_.resize(n + 8);
  StoreLittleEndian64(buf_.data() + n, v);
}

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Encoder::PutBytes(ByteView data) {
  PutVarint(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Encoder::PutFixed(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

Result<uint8_t> Decoder::GetU8() {
  if (data_.size() < 1) return Status::Corruption("truncated u8");
  uint8_t v = data_[0];
  data_.RemovePrefix(1);
  return v;
}

Result<uint16_t> Decoder::GetU16() {
  if (data_.size() < 2) return Status::Corruption("truncated u16");
  uint16_t v = static_cast<uint16_t>(data_[0]) |
               static_cast<uint16_t>(data_[1]) << 8;
  data_.RemovePrefix(2);
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  if (data_.size() < 4) return Status::Corruption("truncated u32");
  uint32_t v = LoadLittleEndian32(data_.data());
  data_.RemovePrefix(4);
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  if (data_.size() < 8) return Status::Corruption("truncated u64");
  uint64_t v = LoadLittleEndian64(data_.data());
  data_.RemovePrefix(8);
  return v;
}

Result<uint64_t> Decoder::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    uint8_t b = data_[i];
    if (shift >= 64 || (shift == 63 && (b & 0x7F) > 1)) {
      return Status::Corruption("varint overflow");
    }
    v |= uint64_t{static_cast<uint8_t>(b & 0x7F)} << shift;
    if ((b & 0x80) == 0) {
      data_.RemovePrefix(i + 1);
      return v;
    }
    shift += 7;
  }
  return Status::Corruption("truncated varint");
}

Result<Bytes> Decoder::GetBytes() {
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  return GetFixed(n);
}

Result<Bytes> Decoder::GetFixed(size_t n) {
  if (data_.size() < n) return Status::Corruption("truncated byte block");
  Bytes out(data_.data(), data_.data() + n);
  data_.RemovePrefix(n);
  return out;
}

Result<ByteView> Decoder::GetBytesView() {
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  return GetFixedView(n);
}

Result<ByteView> Decoder::GetFixedView(size_t n) {
  if (data_.size() < n) return Status::Corruption("truncated byte block");
  ByteView out(data_.data(), n);
  data_.RemovePrefix(n);
  return out;
}

Result<std::string> Decoder::GetString() {
  PORYGON_ASSIGN_OR_RETURN(Bytes b, GetBytes());
  return std::string(b.begin(), b.end());
}

Result<bool> Decoder::GetBool() {
  PORYGON_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::Corruption("invalid bool");
  return v == 1;
}

Result<double> Decoder::GetF64() {
  PORYGON_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  return std::bit_cast<double>(bits);
}

Result<uint64_t> Decoder::GetCount(size_t min_elem_bytes) {
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  if (n > remaining() / min_elem_bytes) {
    return Status::Corruption("element count exceeds input");
  }
  return n;
}

Status Decoder::Finish(std::string_view what) const {
  if (!Done()) {
    return Status::Corruption("trailing " + std::string(what) + " bytes");
  }
  return Status::Ok();
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace porygon
