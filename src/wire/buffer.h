// Binary wire format for simulated RPC payloads.
//
// Everything that crosses the simulated network is really serialized — the
// encoded size feeds the NIC bandwidth model, and decode errors surface as
// Status rather than UB. Encoding: fixed-width little-endian integers,
// varint-prefixed strings/blobs.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dufs::wire {

// Little-endian stores and loads of one fixed-width integer at `p`. On a
// little-endian host each is one unaligned move; the byte loop is the
// portable definition (GCC at -O2 keeps it a loop).
template <typename T>
void StoreLE(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}
template <typename T>
T LoadLE(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

class BufferWriter {
 public:
  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v) { AppendLE(v); }
  void WriteU32(std::uint32_t v) { AppendLE(v); }
  void WriteU64(std::uint64_t v) { AppendLE(v); }
  void WriteI64(std::int64_t v) { AppendLE(static_cast<std::uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  // LEB128-style unsigned varint.
  void WriteVarint(std::uint64_t v);
  // Bytes WriteVarint(v) appends: 1 per started 7-bit group.
  static std::size_t VarintSize(std::uint64_t v) {
    std::size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  }
  // Bytes WriteString/WriteBytes append for `n` bytes: length, then bytes.
  static std::size_t BlobSize(std::size_t n) { return VarintSize(n) + n; }

  void WriteString(std::string_view s);
  void WriteBytes(const std::vector<std::uint8_t>& b);
  // Appends already-encoded bytes verbatim (no length prefix).
  template <typename It>
  void WriteRaw(It first, It last) {
    buf_.insert(buf_.end(), first, last);
  }
  // Appends `n` bytes for the caller to fill in place (a fixed-size block).
  std::uint8_t* Extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  // Empties the buffer but keeps its capacity, for a writer that is reused.
  void Clear() { buf_.clear(); }
  // Makes room for `total` bytes in all, so a message whose encoded size is
  // known up front is written with a single allocation.
  void Reserve(std::size_t total) { buf_.reserve(total); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  // One resize, then byte stores: the vector grows once per value, not
  // once per byte.
  template <typename T>
  void AppendLE(T v) {
    StoreLE(Extend(sizeof(T)), v);
  }

  std::vector<std::uint8_t> buf_;
};

class BufferReader {
 public:
  explicit BufferReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  BufferReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<bool> ReadBool();
  Result<std::uint64_t> ReadVarint();
  Result<std::string> ReadString();
  Result<std::vector<std::uint8_t>> ReadBytes();
  // The same fields as views into the buffer being read: no copy, valid
  // while that buffer is.
  Result<std::string_view> ReadStringView();
  Result<std::span<const std::uint8_t>> ReadBytesView();
  // The next `n` bytes in place (a fixed-size block).
  Result<const std::uint8_t*> ReadBlock(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  // The next unread byte, so a caller can take a view of what it read.
  const std::uint8_t* cursor() const { return data_ + pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> ReadLE() {
    auto block = ReadBlock(sizeof(T));
    if (!block.ok()) return block.status();
    return LoadLE<T>(*block);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dufs::wire
