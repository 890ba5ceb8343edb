#include "wire/buffer.h"

namespace dufs::wire {

void BufferWriter::WriteVarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BufferWriter::WriteBytes(const std::vector<std::uint8_t>& b) {
  WriteVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

Result<std::uint8_t> BufferReader::ReadU8() { return ReadLE<std::uint8_t>(); }
Result<std::uint16_t> BufferReader::ReadU16() { return ReadLE<std::uint16_t>(); }
Result<std::uint32_t> BufferReader::ReadU32() { return ReadLE<std::uint32_t>(); }
Result<std::uint64_t> BufferReader::ReadU64() { return ReadLE<std::uint64_t>(); }

Result<std::int64_t> BufferReader::ReadI64() {
  auto v = ReadLE<std::uint64_t>();
  if (!v.ok()) return v.status();
  return static_cast<std::int64_t>(*v);
}

Result<bool> BufferReader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

Result<std::uint64_t> BufferReader::ReadVarint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) {
      return Status(StatusCode::kIoError, "wire: truncated varint");
    }
    if (shift >= 64) {
      return Status(StatusCode::kIoError, "wire: varint overflow");
    }
    const std::uint8_t b = data_[pos_++];
    // The 10th byte carries only bit 63; any higher payload bit would be
    // shifted out of the value.
    if (shift == 63 && (b & 0x7E) != 0) {
      return Status(StatusCode::kIoError, "wire: varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<std::string> BufferReader::ReadString() {
  auto s = ReadStringView();
  if (!s.ok()) return s.status();
  return std::string(*s);
}

Result<std::vector<std::uint8_t>> BufferReader::ReadBytes() {
  auto b = ReadBytesView();
  if (!b.ok()) return b.status();
  return std::vector<std::uint8_t>(b->begin(), b->end());
}

Result<std::string_view> BufferReader::ReadStringView() {
  auto b = ReadBytesView();
  if (!b.ok()) return b.status();
  return std::string_view(reinterpret_cast<const char*>(b->data()), b->size());
}

Result<std::span<const std::uint8_t>> BufferReader::ReadBytesView() {
  auto len = ReadVarint();
  if (!len.ok()) return len.status();
  if (remaining() < *len) {
    return Status(StatusCode::kIoError, "wire: truncated bytes");
  }
  const std::span<const std::uint8_t> b(data_ + pos_,
                                        static_cast<std::size_t>(*len));
  pos_ += b.size();
  return b;
}

Result<const std::uint8_t*> BufferReader::ReadBlock(std::size_t n) {
  if (remaining() < n) {
    return Status(StatusCode::kIoError, "wire: short read");
  }
  const std::uint8_t* block = data_ + pos_;
  pos_ += n;
  return block;
}

}  // namespace dufs::wire
