// Wire pins for the replicated write path (DESIGN.md §16): the client
// request, FORWARD and its reply, BATCH PROPOSE, range ACK, COMMIT and a
// DIFF body. The bytes below were captured from an ensemble whose servers
// decoded every write into a Txn object and encoded it again at each hop;
// the byte-string path must write exactly these bytes, each view must read
// back the fields they hold, and each view must reject every strict
// truncation and any trailing byte.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "zk/proto.h"
#include "zk/server.h"

namespace dufs::zk {
namespace {

// A client on node 3 (session 3<<32 | 1) ResolveCreates /dir through the
// follower zk1 of a three-server ensemble, then resolves /dir/missing.
constexpr SessionId kSession = 0x0000000300000001;
constexpr Zxid kZxid = 0x0000010000000002;  // epoch 1, counter 2

constexpr char kWriteRequest[] =
    "01000000030000000011042f6469720644697272656300ffffffff014400";
constexpr char kReadRequest[] =
    "010000000300000000040c2f6469722f6d697373696e670000ffffffff014400";
constexpr char kForwardRequest[] =
    "010000000300000000000000000000000011042f6469720644697272656300ffffff"
    "ff014400";
constexpr char kCommit[] = "0200000000010000";
// The ClientResponse the leader encoded, and the FORWARD reply carrying it.
constexpr char kReply[] =
    "00042f646972020000000001000002000000000100000200000000010000e6dc2503"
    "00000000e6dc25030000000000000000000000000000000000000000000000000600"
    "0000000001000000";
constexpr char kForwardReply[] =
    "02000000000100004c00042f646972020000000001000002000000000100000200000"
    "000010000e6dc250300000000e6dc2503000000000000000000000000000000000000"
    "00000000000006000000000001000000";

// Group commit: one write alone, then three concurrent ones, from clients
// on nodes 3, 4 and 5 attached to the leader.
constexpr char kBatchOne[] =
    "01000000000000000105000000000100000200000003000000dca790030000000000"
    "11042f6f6e6504446f6e6500ffffffff004400";
constexpr char kBatchThree[] =
    "01000000000000000306000000000100000200000003000000cb90b0060000000000"
    "11032f663002463000ffffffff004400070000000001000003000000040000001b54"
    "b106000000000011032f663102463100ffffffff0044000800000000010000040000"
    "00050000006b17b206000000000011032f663202463200ffffffff004400";
constexpr char kRangeAck[] = "06000000000100000800000000010000";

// A committed log of a traced ResolveCreate, a four-op Multi and a
// ResolveDelete of the next epoch, diffed from zxid 0; and a Multi request.
constexpr char kDiff[] =
    "030100000001000000010000000500000015cd5b0700000000ac02110c2f6d2f6430"
    "2f66696c652e3106467265632d3100ffffffff01440002000000010000000200000006"
    "000000e7cd5b0700000000000d000000ffffffff0000040a042f6d2f78017801ffffff"
    "ff00000c022f6d04446e65770003000000000010052f6d2f643000000200000000000b"
    "062f6d2f6f6c640000ffffffff000001000000020000000200000006000000e8cd5b07"
    "0000000001120c2f6d2f64302f66696c652e31000004000000004400";
constexpr char kMultiTxn[] =
    "0200000006000000e7cd5b0700000000000d000000ffffffff0000040a042f6d2f7801"
    "7801ffffffff00000c022f6d04446e65770003000000000010052f6d2f643000000200"
    "000000000b062f6d2f6f6c640000ffffffff0000";
constexpr char kMultiRequest[] =
    "0200000006000000d1df040d000000ffffffff0000040a042f6d2f78017801ffffffff"
    "00000c022f6d04446e65770003000000000010052f6d2f643000000200000000000b06"
    "2f6d2f6f6c640000ffffffff0000";

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> Pin(const char* hex) {
  auto bytes = HexToBytes(hex);
  EXPECT_TRUE(bytes.has_value());
  return bytes.value_or(std::vector<std::uint8_t>{});
}

std::string Str(std::span<const std::uint8_t> data) {
  return std::string(data.begin(), data.end());
}

Op WriteOp() {
  return Op::ResolveCreate("/dir", Bytes("Dirrec"), CreateMode::kPersistent,
                           'D', /*watch=*/true);
}

Txn MakeTxn(SessionId session, std::int64_t time, std::uint64_t trace,
            Op op) {
  Txn txn;
  txn.session = session;
  txn.time = time;
  txn.trace = trace;
  txn.op = std::move(op);
  return txn;
}

// The txns behind kDiff and kMultiTxn.
Txn MultiTxn() {
  Txn txn = MakeTxn(0x0000000600000002, 123456999, 0, Op{});
  txn.op.type = OpType::kMulti;
  txn.multi_ops = {Op::Create("/m/x", Bytes("x"), CreateMode::kEphemeral),
                   Op::SetData("/m", Bytes("Dnew"), 3),
                   Op::CheckVersion("/m/d0", 2),
                   Op::Delete("/m/old", kAnyVersion)};
  return txn;
}

std::vector<std::pair<Zxid, Txn>> DiffHistory() {
  std::vector<std::pair<Zxid, Txn>> history;
  history.emplace_back(
      0x100000001,
      MakeTxn(0x0000000500000001, 123456789, 300,
              Op::ResolveCreate("/m/d0/file.1", Bytes("Frec-1"),
                                CreateMode::kPersistent, 'D', true)));
  history.emplace_back(0x100000002, MultiTxn());
  history.emplace_back(
      0x200000001, MakeTxn(0x0000000600000002, 123457000, 1,
                           Op::ResolveDelete("/m/d0/file.1", 4, 'D', false)));
  return history;
}

BatchEntry Entry(Zxid zxid, SessionId session, std::int64_t time,
                 const std::string& path, const std::string& data) {
  return {zxid, MakeTxn(session, time, 0,
                        Op::ResolveCreate(path, Bytes(data),
                                          CreateMode::kPersistent, 'D', false))
                    .Encode()};
}

// A DIFF body read the way SyncWithLeader reads it, but whole: the count,
// then each zxid and txn, and nothing after.
Result<std::vector<std::pair<Zxid, TxnView>>> ReadDiff(
    std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  auto count = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(count);
  std::vector<std::pair<Zxid, TxnView>> out;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    auto txn = TxnView::Read(r);
    DUFS_RETURN_IF_ERROR(txn);
    out.emplace_back(*zxid, *txn);
  }
  if (!r.AtEnd()) return Status(StatusCode::kIoError, "trailing bytes");
  return out;
}

void ExpectMultiOps(const OpList& ops) {
  ASSERT_EQ(ops.size(), 4u);
  const Txn expected = MultiTxn();
  std::size_t i = 0;
  for (const OpView& op : ops) {
    const Op& want = expected.multi_ops[i++];
    EXPECT_EQ(op.type, want.type) << i;
    EXPECT_EQ(op.path, want.path) << i;
    EXPECT_EQ(Str(op.data), Str(want.data)) << i;
    EXPECT_EQ(op.mode, want.mode) << i;
    EXPECT_EQ(op.version, want.version) << i;
    EXPECT_EQ(op.watch, want.watch) << i;
    EXPECT_EQ(op.dir_tag, want.dir_tag) << i;
  }
  EXPECT_EQ(i, 4u);
}

TEST(WriteWireTest, RequestsMatchPins) {
  ClientRequest write;
  write.session = kSession;
  write.op = WriteOp();
  EXPECT_EQ(BytesToHex(write.Encode()), kWriteRequest);

  ClientRequest read;
  read.session = kSession;
  read.op = Op::ResolvePath("/dir/missing", /*watch=*/true, 'D');
  EXPECT_EQ(BytesToHex(read.Encode()), kReadRequest);

  const Txn multi = MultiTxn();
  ClientRequest multi_req;
  multi_req.session = multi.session;
  multi_req.trace = 77777;
  multi_req.op = multi.op;
  multi_req.multi_ops = multi.multi_ops;
  EXPECT_EQ(BytesToHex(multi_req.Encode()), kMultiRequest);
}

TEST(WriteWireTest, RequestViewReadsThePinnedFields) {
  const auto write_bytes = Pin(kWriteRequest);
  auto write = RequestView::Decode(write_bytes);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->session, kSession);
  EXPECT_EQ(write->trace, 0u);
  EXPECT_EQ(write->op.type, OpType::kResolveCreate);
  EXPECT_EQ(write->op.path, "/dir");
  EXPECT_EQ(Str(write->op.data), "Dirrec");
  EXPECT_EQ(write->op.version, kAnyVersion);
  EXPECT_TRUE(write->op.watch);
  EXPECT_EQ(write->op.dir_tag, 'D');
  EXPECT_TRUE(write->multi_ops.empty());

  const auto read_bytes = Pin(kReadRequest);
  auto read = RequestView::Decode(read_bytes);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->op.type, OpType::kResolvePath);
  EXPECT_EQ(read->op.path, "/dir/missing");
  EXPECT_TRUE(read->op.data.empty());

  const auto multi_bytes = Pin(kMultiRequest);
  auto multi = RequestView::Decode(multi_bytes);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->trace, 77777u);
  EXPECT_EQ(multi->op.type, OpType::kMulti);
  ExpectMultiOps(multi->multi_ops);
}

// The session server turns the request into the FORWARD request by
// splicing a zero time in after the session.
TEST(WriteWireTest, ForwardRequestIsTheRequestWithATimeSlot) {
  const auto request = Pin(kWriteRequest);
  auto view = RequestView::Decode(request);
  ASSERT_TRUE(view.ok());
  const std::vector<std::uint8_t> txn = view->TxnBytes();
  EXPECT_EQ(BytesToHex(txn), kForwardRequest);
  EXPECT_EQ(txn.size(), txn.capacity());
  EXPECT_EQ(BytesToHex(MakeTxn(kSession, 0, 0, WriteOp()).Encode()),
            kForwardRequest);

  auto forwarded = TxnView::Decode(txn);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded->session, kSession);
  EXPECT_EQ(forwarded->time, 0);
  EXPECT_EQ(forwarded->op.path, "/dir");
  EXPECT_EQ(forwarded->bytes.size(), txn.size());
}

TEST(WriteWireTest, AckCommitAndRangeAckMatchPins) {
  EXPECT_EQ(BytesToHex(EncodeZxid(kZxid)), kCommit);

  EXPECT_EQ(BytesToHex(EncodeZxidRange(0x10000000006, 0x10000000008)),
            kRangeAck);
  auto range = DecodeZxidRange(Pin(kRangeAck));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 0x10000000006);
  EXPECT_EQ(range->second, 0x10000000008);
}

TEST(WriteWireTest, ForwardReplyCarriesTheLeadersReply) {
  EXPECT_EQ(BytesToHex(ForwardReply::Encode(kZxid, Pin(kReply))),
            kForwardReply);
  std::vector<std::uint8_t> bytes = Pin(kForwardReply);
  auto zxid = ForwardReply::TakeReply(bytes);
  ASSERT_TRUE(zxid.ok());
  EXPECT_EQ(*zxid, kZxid);
  EXPECT_EQ(BytesToHex(bytes), kReply);
}

TEST(WriteWireTest, BatchProposesMatchPins) {
  const std::vector<BatchEntry> one = {
      Entry(0x10000000005, 0x0000000300000002, 0x0390a7dc, "/one", "Done")};
  EXPECT_EQ(BytesToHex(EncodeBatchPropose(1, one)), kBatchOne);
  const std::vector<BatchEntry> three = {
      Entry(0x10000000006, 0x0000000300000002, 0x06b090cb, "/f0", "F0"),
      Entry(0x10000000007, 0x0000000400000003, 0x06b1541b, "/f1", "F1"),
      Entry(0x10000000008, 0x0000000500000004, 0x06b2176b, "/f2", "F2")};
  EXPECT_EQ(BytesToHex(EncodeBatchPropose(1, three)), kBatchThree);

  const auto bytes = Pin(kBatchThree);
  auto batch = BatchProposeView::Decode(bytes);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->epoch(), 1);
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->lo(), 0x10000000006);
  EXPECT_EQ(batch->hi(), 0x10000000008);
  EXPECT_EQ(batch->front_trace(), 0u);
  std::size_t i = 0;
  batch->ForEach([&](Zxid zxid, const TxnView& txn) {
    ASSERT_LT(i, three.size());
    EXPECT_EQ(zxid, three[i].zxid);
    EXPECT_EQ(BytesToHex(std::vector<std::uint8_t>(txn.bytes.begin(),
                                                   txn.bytes.end())),
              BytesToHex(three[i].txn));
    EXPECT_EQ(txn.op.path, "/f" + std::to_string(i));
    ++i;
  });
  EXPECT_EQ(i, 3u);
}

TEST(WriteWireTest, DiffOfStoredBytesMatchesPin) {
  CommittedLog log(/*max_entries=*/100);
  for (const auto& [zxid, txn] : DiffHistory()) log.Append(zxid, txn.Encode());
  wire::BufferWriter w;
  log.WriteDiff(0, w);
  EXPECT_EQ(BytesToHex(w.data()), kDiff);

  const auto bytes = Pin(kDiff);
  auto diff = ReadDiff(bytes);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->size(), 3u);
  const auto history = DiffHistory();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& [zxid, txn] = (*diff)[i];
    EXPECT_EQ(zxid, history[i].first);
    EXPECT_EQ(txn.session, history[i].second.session);
    EXPECT_EQ(txn.time, history[i].second.time);
    EXPECT_EQ(txn.trace, history[i].second.trace);
    EXPECT_EQ(txn.op.type, history[i].second.op.type);
    EXPECT_EQ(txn.op.path, history[i].second.op.path);
  }
  ExpectMultiOps((*diff)[1].second.multi_ops);
}

TEST(WriteWireTest, MultiTxnReadsBackOpForOp) {
  EXPECT_EQ(BytesToHex(MultiTxn().Encode()), kMultiTxn);
  const auto bytes = Pin(kMultiTxn);
  auto txn = TxnView::Decode(bytes);
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->session, 0x0000000600000002u);
  EXPECT_EQ(txn->time, 123456999);
  EXPECT_EQ(txn->op.type, OpType::kMulti);
  ExpectMultiOps(txn->multi_ops);
}

// Each pin with the view its receiver reads it through.
struct Frame {
  const char* hex;
  std::function<bool(std::vector<std::uint8_t>)> decodes;
};

std::vector<Frame> Frames() {
  auto request = [](std::vector<std::uint8_t> b) {
    return RequestView::Decode(b).ok();
  };
  auto txn = [](std::vector<std::uint8_t> b) {
    return TxnView::Decode(b).ok();
  };
  auto zxid = [](std::vector<std::uint8_t> b) { return DecodeZxid(b).ok(); };
  return {
      {kWriteRequest, request},
      {kReadRequest, request},
      {kMultiRequest, request},
      {kForwardRequest, txn},
      {kMultiTxn, txn},
      {kForwardReply,
       [](std::vector<std::uint8_t> b) {
         return ForwardReply::TakeReply(b).ok();
       }},
      {kBatchOne,
       [](std::vector<std::uint8_t> b) {
         return BatchProposeView::Decode(b).ok();
       }},
      {kBatchThree,
       [](std::vector<std::uint8_t> b) {
         return BatchProposeView::Decode(b).ok();
       }},
      {kCommit, zxid},
      {kRangeAck,
       [](std::vector<std::uint8_t> b) {
         return DecodeZxidRange(b).ok();
       }},
      {kDiff, [](std::vector<std::uint8_t> b) { return ReadDiff(b).ok(); }},
  };
}

TEST(WriteWireTest, EveryStrictTruncationOfAPinIsAnError) {
  for (const Frame& frame : Frames()) {
    const std::vector<std::uint8_t> pin = Pin(frame.hex);
    ASSERT_TRUE(frame.decodes(pin)) << frame.hex;
    for (std::size_t len = 0; len < pin.size(); ++len) {
      EXPECT_FALSE(frame.decodes(std::vector<std::uint8_t>(
          pin.begin(), pin.begin() + static_cast<std::ptrdiff_t>(len))))
          << frame.hex << " cut at " << len;
    }
  }
}

TEST(WriteWireTest, TrailingBytesAreAnError) {
  for (const Frame& frame : Frames()) {
    std::vector<std::uint8_t> pin = Pin(frame.hex);
    pin.push_back(0);
    EXPECT_FALSE(frame.decodes(pin)) << frame.hex;
  }
}

}  // namespace
}  // namespace dufs::zk
