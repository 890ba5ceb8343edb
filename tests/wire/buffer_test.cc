#include "wire/buffer.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"

namespace dufs::wire {
namespace {

TEST(BufferTest, FixedWidthRoundTrip) {
  BufferWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteBool(false);

  BufferReader r(w.data());
  EXPECT_EQ(*r.ReadU8(), 0xab);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, VarintBoundaries) {
  BufferWriter w;
  const std::uint64_t values[] = {0,      1,        127,        128,
                                  16383,  16384,    (1ull << 32) - 1,
                                  1ull << 32,       ~0ull};
  for (auto v : values) w.WriteVarint(v);
  BufferReader r(w.data());
  for (auto v : values) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, VarintEncodingIsCompact) {
  BufferWriter w;
  w.WriteVarint(127);
  EXPECT_EQ(w.size(), 1u);
  w.WriteVarint(128);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(BufferTest, StringRoundTrip) {
  BufferWriter w;
  w.WriteString("");
  w.WriteString("hello");
  w.WriteString(std::string(1000, 'z'));
  BufferReader r(w.data());
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString()->size(), 1000u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, BytesRoundTrip) {
  BufferWriter w;
  std::vector<std::uint8_t> blob = {0, 255, 128, 7};
  w.WriteBytes(blob);
  BufferReader r(w.data());
  EXPECT_EQ(*r.ReadBytes(), blob);
}

TEST(BufferTest, RawBytesAreAppendedVerbatimAndClearKeepsWriting) {
  BufferWriter w;
  w.WriteU8(7);
  const std::deque<std::uint8_t> raw = {1, 2, 3};
  w.WriteRaw(raw.begin(), raw.end());
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{7, 1, 2, 3}));
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  w.WriteRaw(raw.begin() + 1, raw.end());
  EXPECT_EQ(w.Take(), (std::vector<std::uint8_t>{2, 3}));
}

TEST(BufferTest, ShortReadIsError) {
  BufferWriter w;
  w.WriteU16(7);
  BufferReader r(w.data());
  EXPECT_TRUE(r.ReadU16().ok());
  auto bad = r.ReadU32();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kIoError);
}

TEST(BufferTest, TruncatedStringIsError) {
  BufferWriter w;
  w.WriteVarint(100);  // claims 100 bytes, provides none
  BufferReader r(w.data());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BufferTest, TruncatedVarintIsError) {
  std::vector<std::uint8_t> bytes = {0x80, 0x80};  // never terminates
  BufferReader r(bytes);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(BufferTest, OverlongVarintIsError) {
  std::vector<std::uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  BufferReader r(bytes);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(BufferTest, FuzzRoundTrip) {
  // Random sequences of typed fields encoded then decoded must round-trip.
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    BufferWriter w;
    std::vector<std::pair<int, std::uint64_t>> script;
    std::vector<std::string> strings;
    const int fields = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < fields; ++i) {
      const int kind = static_cast<int>(rng.NextBelow(4));
      switch (kind) {
        case 0: {
          const auto v = rng.NextU64();
          w.WriteU64(v);
          script.emplace_back(0, v);
          break;
        }
        case 1: {
          const auto v = rng.NextU64();
          w.WriteVarint(v);
          script.emplace_back(1, v);
          break;
        }
        case 2: {
          std::string s(rng.NextBelow(64), 'a' + static_cast<char>(i % 26));
          w.WriteString(s);
          strings.push_back(s);
          script.emplace_back(2, strings.size() - 1);
          break;
        }
        default: {
          const auto v = rng.NextBelow(2);
          w.WriteBool(v != 0);
          script.emplace_back(3, v);
        }
      }
    }
    BufferReader r(w.data());
    for (auto [kind, v] : script) {
      switch (kind) {
        case 0: EXPECT_EQ(*r.ReadU64(), v); break;
        case 1: EXPECT_EQ(*r.ReadVarint(), v); break;
        case 2: EXPECT_EQ(*r.ReadString(), strings[v]); break;
        default: EXPECT_EQ(*r.ReadBool(), v != 0);
      }
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

}  // namespace
}  // namespace dufs::wire
