// Wire pins for compound replies (DESIGN.md §13.1). The bytes below were
// captured from the object-based encoder that the single Database encoder
// replaced: every reply it writes must match them byte for byte, every
// strict truncation of one must fail to decode, and the view must read
// back the fields the bytes hold.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/hex.h"
#include "zk/database.h"
#include "zk/proto.h"

namespace dufs::zk {
namespace {

constexpr char kResolveHit[] =
    "0000040000000000000004000000000000000400000000000000900100000000"
    "0000900100000000000000000000000000000000000000000000000000000500"
    "0000054666696c65000403016101000000000000000100000000000000060000"
    "0000000000640000000000000064000000000000000000000002000000000000"
    "0000000000020000000400000004446469720162020000000000000002000000"
    "000000000300000000000000c800000000000000c80000000000000000000000"
    "0100000000000000000000000100000004000000044464697201630300000000"
    "000000030000000000000005000000000000002c010000000000002c01000000"
    "0000000000000002000000000000000000000002000000040000000444646972"
    "0000";
constexpr char kResolvePartialMiss[] =
    "0100000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000002020161010000000000000001000000000000000600000000000000"
    "6400000000000000640000000000000000000000020000000000000000000000"
    "0200000004000000044464697201620200000000000000020000000000000003"
    "00000000000000c800000000000000c800000000000000000000000100000000"
    "00000000000000010000000400000004446469720000";
constexpr char kResolveInteriorEnotdir[] =
    "0300000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000004040161010000000000000001000000000000000600000000000000"
    "6400000000000000640000000000000000000000020000000000000000000000"
    "0200000004000000044464697201620200000000000000020000000000000003"
    "00000000000000c800000000000000c800000000000000000000000100000000"
    "0000000000000001000000040000000444646972016303000000000000000300"
    "00000000000005000000000000002c010000000000002c010000000000000000"
    "0000020000000000000000000000020000000400000004446469720166040000"
    "0000000000040000000000000004000000000000009001000000000000900100"
    "0000000000000000000000000000000000000000000000000005000000054666"
    "696c650000";
constexpr char kResolveRoot[] =
    "0000000000000000000000000000000000000100000000000000000000000000"
    "0000000000000000000000000000010000000000000000000000010000000000"
    "0000000000000000";
constexpr char kResolveInvalid[] =
    "0700000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000";
constexpr char kReaddirEmpty[] =
    "0000060000000000000006000000000000000600000000000000580200000000"
    "0000580200000000000000000000000000000000000000000000000000000400"
    "0000044464697200020101610100000000000000010000000000000006000000"
    "0000000064000000000000006400000000000000000000000200000000000000"
    "00000000020000000400000004446469720000";
constexpr char kReaddirEntries[] =
    "00000300000000000000030000000000000005000000000000002c0100000000"
    "00002c0100000000000000000000020000000000000000000000020000000400"
    "0000044464697200030201610100000000000000010000000000000006000000"
    "0000000064000000000000006400000000000000000000000200000000000000"
    "0000000002000000040000000444646972016202000000000000000200000000"
    "0000000300000000000000c800000000000000c8000000000000000000000001"
    "0000000000000000000000010000000400000004446469720201660400000000"
    "0000000400000000000000040000000000000090010000000000009001000000"
    "000000000000000000000000000000000000000000000005000000054666696c"
    "650167050000000000000005000000000000000500000000000000f401000000"
    "000000f401000000000000000000000000000000000000000000000000000006"
    "00000006466f7468657200";
constexpr char kReaddirFile[] =
    "0300040000000000000004000000000000000400000000000000900100000000"
    "0000900100000000000000000000000000000000000000000000000000000500"
    "0000054666696c65000403016101000000000000000100000000000000060000"
    "0000000000640000000000000064000000000000000000000002000000000000"
    "0000000000020000000400000004446469720162020000000000000002000000"
    "000000000300000000000000c800000000000000c80000000000000000000000"
    "0100000000000000000000000100000004000000044464697201630300000000"
    "000000030000000000000005000000000000002c010000000000002c01000000"
    "0000000000000002000000000000000000000002000000040000000444646972"
    "0000";
constexpr char kCreateOk[] =
    "000a2f612f622f632f6e65770700000000000000070000000000000007000000"
    "00000000bc02000000000000bc02000000000000000000000000000000000000"
    "0000000000000000040000000000040301610100000000000000010000000000"
    "0000060000000000000064000000000000006400000000000000000000000200"
    "0000000000000000000002000000040000000444646972016202000000000000"
    "0002000000000000000300000000000000c800000000000000c8000000000000"
    "0000000000010000000000000000000000010000000400000004446469720163"
    "0300000000000000030000000000000007000000000000002c01000000000000"
    "2c01000000000000000000000300000000000000000000000300000004000000"
    "04446469720000";
constexpr char kCreateEexist[] =
    "0200040000000000000004000000000000000400000000000000900100000000"
    "0000900100000000000000000000000000000000000000000000000000000500"
    "0000054666696c65000403016101000000000000000100000000000000060000"
    "0000000000640000000000000064000000000000000000000002000000000000"
    "0000000000020000000400000004446469720162020000000000000002000000"
    "000000000300000000000000c800000000000000c80000000000000000000000"
    "0100000000000000000000000100000004000000044464697201630300000000"
    "000000030000000000000007000000000000002c010000000000002c01000000"
    "0000000000000003000000000000000000000003000000040000000444646972"
    "0000";
constexpr char kDeleteOk[] =
    "0000050000000000000005000000000000000500000000000000f40100000000"
    "0000f40100000000000000000000000000000000000000000000000000000600"
    "000006466f746865720003030161010000000000000001000000000000000600"
    "0000000000006400000000000000640000000000000000000000020000000000"
    "0000000000000200000004000000044464697201620200000000000000020000"
    "00000000000300000000000000c800000000000000c800000000000000000000"
    "0001000000000000000000000001000000040000000444646972016303000000"
    "00000000030000000000000009000000000000002c010000000000002c010000"
    "0000000000000000040000000000000000000000020000000400000004446469"
    "720000";
constexpr char kDeleteEisdir[] =
    "04000300000000000000030000000000000009000000000000002c0100000000"
    "00002c0100000000000000000000040000000000000000000000020000000400"
    "0000044464697200030201610100000000000000010000000000000006000000"
    "0000000064000000000000006400000000000000000000000200000000000000"
    "0000000002000000040000000444646972016202000000000000000200000000"
    "0000000300000000000000c800000000000000c8000000000000000000000001"
    "0000000000000000000000010000000400000004446469720000";

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

constexpr std::uint8_t kTag = 'D';

// The tree every pin was captured against: /a/b/c and the empty /a/e are
// directories, /a/b/c/f and /a/b/c/g files. Each write takes the next
// zxid, stamped zxid * 100 ns.
class CompoundWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Apply(Op::Create("/a", Bytes("Ddir")));
    Apply(Op::Create("/a/b", Bytes("Ddir")));
    Apply(Op::Create("/a/b/c", Bytes("Ddir")));
    Apply(Op::Create("/a/b/c/f", Bytes("Ffile")));
    Apply(Op::Create("/a/b/c/g", Bytes("Fother")));
    Apply(Op::Create("/a/e", Bytes("Ddir")));
  }

  AppliedTxn Apply(Op op) {
    Txn txn;
    txn.session = 1;
    txn.op = std::move(op);
    ++zxid_;
    return db_.Apply(txn, zxid_, zxid_ * 100);
  }

  std::string Read(const Op& op) {
    return BytesToHex(db_.EncodeCompoundRead(op));
  }
  std::string Write(Op op) { return BytesToHex(Apply(std::move(op)).reply); }

  Database db_;
  Zxid zxid_ = 0;
};

TEST_F(CompoundWireTest, ResolvePathMatchesPins) {
  EXPECT_EQ(Read(Op::ResolvePath("/a/b/c/f", false, kTag)), kResolveHit);
  EXPECT_EQ(Read(Op::ResolvePath("/a/b/x/y", false, kTag)),
            kResolvePartialMiss);
  EXPECT_EQ(Read(Op::ResolvePath("/a/b/c/f/deeper", false, kTag)),
            kResolveInteriorEnotdir);
  EXPECT_EQ(Read(Op::ResolvePath("/", false, kTag)), kResolveRoot);
  EXPECT_EQ(Read(Op::ResolvePath("/a//b", false, kTag)), kResolveInvalid);
}

TEST_F(CompoundWireTest, ReadDirPlusMatchesPins) {
  EXPECT_EQ(Read(Op::ReadDirPlus("/a/e", false, kTag)), kReaddirEmpty);
  EXPECT_EQ(Read(Op::ReadDirPlus("/a/b/c", false, kTag)), kReaddirEntries);
  EXPECT_EQ(Read(Op::ReadDirPlus("/a/b/c/f", false, kTag)), kReaddirFile);
}

// The writes run in the order they were captured in, after the reads,
// which change nothing.
TEST_F(CompoundWireTest, CompoundWritesMatchPins) {
  EXPECT_EQ(Write(Op::ResolveCreate("/a/b/c/new", Bytes("Fnew"),
                                    CreateMode::kPersistent, kTag, false)),
            kCreateOk);
  EXPECT_EQ(Write(Op::ResolveCreate("/a/b/c/f", Bytes("Floser"),
                                    CreateMode::kPersistent, kTag, false)),
            kCreateEexist);
  EXPECT_EQ(Write(Op::ResolveDelete("/a/b/c/g", kAnyVersion, kTag, false)),
            kDeleteOk);
  EXPECT_EQ(Write(Op::ResolveDelete("/a/b/c", kAnyVersion, kTag, false)),
            kDeleteEisdir);
}

std::vector<std::uint8_t> Pin(const char* hex) {
  auto bytes = HexToBytes(hex);
  EXPECT_TRUE(bytes.has_value());
  return bytes.value_or(std::vector<std::uint8_t>{});
}

std::string Str(std::span<const std::uint8_t> data) {
  return std::string(data.begin(), data.end());
}

TEST(CompoundReplyDecodeTest, ViewReadsThePinnedFields) {
  const auto listing = CompoundReply::Decode(Pin(kReaddirEntries));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->code(), StatusCode::kOk);
  EXPECT_EQ(listing->resolved_depth(), 3u);
  EXPECT_EQ(Str(listing->data()), "Ddir");
  EXPECT_EQ(listing->stat().num_children, 2);
  ASSERT_EQ(listing->prefix().size(), 2u);
  EXPECT_EQ(listing->prefix()[0].name, "a");
  EXPECT_EQ(listing->prefix()[1].name, "b");
  EXPECT_EQ(listing->prefix()[1].stat().czxid, 2);
  ASSERT_EQ(listing->entries().size(), 2u);
  EXPECT_EQ(listing->entries()[0].name, "f");
  EXPECT_EQ(Str(listing->entries()[0].data), "Ffile");
  EXPECT_EQ(listing->entries()[1].name, "g");
  EXPECT_EQ(listing->entries()[1].stat().ctime, 500);

  const auto created = CompoundReply::Decode(Pin(kCreateOk));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->created_path(), "/a/b/c/new");
  EXPECT_EQ(created->resolved_depth(), 4u);
  EXPECT_TRUE(created->data().empty());
  EXPECT_EQ(created->prefix().size(), 3u);

  const auto invalid = CompoundReply::Decode(Pin(kResolveInvalid));
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid->code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(invalid->resolved_depth(), 0u);
  EXPECT_TRUE(invalid->prefix().empty());
  EXPECT_TRUE(invalid->entries().empty());
}

// A move keeps the views: they point into the payload, which moves along.
TEST(CompoundReplyDecodeTest, MoveKeepsViewsAndTakeBytesReturnsThePayload) {
  const std::vector<std::uint8_t> pin = Pin(kResolveHit);
  auto decoded = CompoundReply::Decode(pin);
  ASSERT_TRUE(decoded.ok());
  CompoundReply moved = std::move(decoded).value();
  EXPECT_EQ(moved.prefix()[2].name, "c");
  EXPECT_EQ(Str(moved.data()), "Ffile");
  EXPECT_EQ(std::move(moved).TakeBytes(), pin);
}

TEST(CompoundReplyDecodeTest, TrailingBytesAreAnError) {
  std::vector<std::uint8_t> pin = Pin(kResolveHit);
  pin.push_back(0);
  EXPECT_FALSE(CompoundReply::Decode(pin).ok());
}

const char* const kPins[] = {
    kResolveHit,   kResolvePartialMiss, kResolveInteriorEnotdir,
    kResolveRoot,  kResolveInvalid,     kReaddirEmpty,
    kReaddirEntries, kReaddirFile,      kCreateOk,
    kCreateEexist, kDeleteOk,           kDeleteEisdir};

TEST(CompoundReplyDecodeTest, EveryStrictTruncationOfAPinIsAnError) {
  for (const char* hex : kPins) {
    const std::vector<std::uint8_t> pin = Pin(hex);
    ASSERT_TRUE(CompoundReply::Decode(pin).ok()) << hex;
    for (std::size_t len = 0; len < pin.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          pin.begin(), pin.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(CompoundReply::Decode(cut).ok())
          << hex << " cut at " << len;
    }
  }
}

// What the session server reads of every reply: the head agrees with the
// full view, no node is read, and the payload comes back unchanged.
TEST(CompoundReplyDecodeTest, HeadOfEveryPinAgreesWithTheFullView) {
  for (const char* hex : kPins) {
    const std::vector<std::uint8_t> pin = Pin(hex);
    const auto full = CompoundReply::Decode(pin);
    auto head = CompoundReply::DecodeHead(pin);
    ASSERT_TRUE(full.ok() && head.ok()) << hex;
    EXPECT_EQ(head->code(), full->code()) << hex;
    EXPECT_EQ(head->resolved_depth(), full->resolved_depth()) << hex;
    EXPECT_TRUE(head->prefix().empty() && head->entries().empty()) << hex;
    EXPECT_EQ(std::move(head).value().TakeBytes(), pin) << hex;
  }
}

}  // namespace
}  // namespace dufs::zk
