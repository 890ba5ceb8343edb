#include "zk/proto.h"

#include "common/log.h"

namespace dufs::zk {
namespace {

using Writer = wire::BufferWriter;

}  // namespace

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kGetData: return "getData";
    case OpType::kExists: return "exists";
    case OpType::kGetChildren: return "getChildren";
    case OpType::kSync: return "sync";
    case OpType::kCreate: return "create";
    case OpType::kDelete: return "delete";
    case OpType::kSetData: return "setData";
    case OpType::kMulti: return "multi";
    case OpType::kCreateSession: return "createSession";
    case OpType::kCloseSession: return "closeSession";
    case OpType::kCheckVersion: return "checkVersion";
    case OpType::kResolvePath: return "resolvePath";
    case OpType::kReadDirPlus: return "readDirPlus";
    case OpType::kResolveCreate: return "resolveCreate";
    case OpType::kResolveDelete: return "resolveDelete";
  }
  return "unknown";
}

void Op::Encode(wire::BufferWriter& w) const {
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteString(path);
  w.WriteBytes(data);
  w.WriteU8(static_cast<std::uint8_t>(mode));
  w.WriteU32(static_cast<std::uint32_t>(version));
  w.WriteBool(watch);
  w.WriteU8(dir_tag);
}

std::size_t Op::EncodedSize() const {
  // type, mode, watch and dir_tag are one byte each; version is 4.
  return 4 + 4 + Writer::BlobSize(path.size()) +
         Writer::BlobSize(data.size());
}

Op Op::Create(std::string path, std::vector<std::uint8_t> data,
              CreateMode mode) {
  Op op;
  op.type = OpType::kCreate;
  op.path = std::move(path);
  op.data = std::move(data);
  op.mode = mode;
  return op;
}

Op Op::Delete(std::string path, std::int32_t version) {
  Op op;
  op.type = OpType::kDelete;
  op.path = std::move(path);
  op.version = version;
  return op;
}

Op Op::SetData(std::string path, std::vector<std::uint8_t> data,
               std::int32_t version) {
  Op op;
  op.type = OpType::kSetData;
  op.path = std::move(path);
  op.data = std::move(data);
  op.version = version;
  return op;
}

Op Op::CheckVersion(std::string path, std::int32_t version) {
  Op op;
  op.type = OpType::kCheckVersion;
  op.path = std::move(path);
  op.version = version;
  return op;
}

Op Op::ResolvePath(std::string path, bool watch, std::uint8_t dir_tag) {
  Op op;
  op.type = OpType::kResolvePath;
  op.path = std::move(path);
  op.watch = watch;
  op.dir_tag = dir_tag;
  return op;
}

Op Op::ReadDirPlus(std::string path, bool watch, std::uint8_t dir_tag) {
  Op op;
  op.type = OpType::kReadDirPlus;
  op.path = std::move(path);
  op.watch = watch;
  op.dir_tag = dir_tag;
  return op;
}

Op Op::ResolveCreate(std::string path, std::vector<std::uint8_t> data,
                     CreateMode mode, std::uint8_t dir_tag, bool watch) {
  Op op;
  op.type = OpType::kResolveCreate;
  op.path = std::move(path);
  op.data = std::move(data);
  op.mode = mode;
  op.dir_tag = dir_tag;
  op.watch = watch;
  return op;
}

Op Op::ResolveDelete(std::string path, std::int32_t version,
                     std::uint8_t dir_tag, bool watch) {
  Op op;
  op.type = OpType::kResolveDelete;
  op.path = std::move(path);
  op.version = version;
  op.dir_tag = dir_tag;
  op.watch = watch;
  return op;
}

void Txn::Encode(wire::BufferWriter& w) const {
  w.WriteU64(session);
  w.WriteI64(time);
  w.WriteVarint(trace);
  op.Encode(w);
  w.WriteVarint(multi_ops.size());
  for (const auto& o : multi_ops) o.Encode(w);
}

std::size_t Txn::EncodedSize() const {
  std::size_t n = 8 + 8 + wire::BufferWriter::VarintSize(trace) +
                  op.EncodedSize() +
                  wire::BufferWriter::VarintSize(multi_ops.size());
  for (const auto& o : multi_ops) n += o.EncodedSize();
  return n;
}

std::vector<std::uint8_t> Txn::Encode() const {
  wire::BufferWriter w;
  w.Reserve(EncodedSize());
  Encode(w);
  return w.Take();
}

void StampTxnTime(std::span<std::uint8_t> txn, std::int64_t time) {
  DUFS_CHECK(txn.size() >= kTxnTimeOffset + 8);
  wire::StoreLE(txn.data() + kTxnTimeOffset, static_cast<std::uint64_t>(time));
}

Result<OpView> OpView::Read(wire::BufferReader& r) {
  OpView op;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  op.type = static_cast<OpType>(*type);
  auto path = r.ReadStringView();
  DUFS_RETURN_IF_ERROR(path);
  op.path = *path;
  auto data = r.ReadBytesView();
  DUFS_RETURN_IF_ERROR(data);
  op.data = *data;
  auto mode = r.ReadU8();
  DUFS_RETURN_IF_ERROR(mode);
  op.mode = static_cast<CreateMode>(*mode);
  auto version = r.ReadU32();
  DUFS_RETURN_IF_ERROR(version);
  op.version = static_cast<std::int32_t>(*version);
  auto watch = r.ReadBool();
  DUFS_RETURN_IF_ERROR(watch);
  op.watch = *watch;
  auto dir_tag = r.ReadU8();
  DUFS_RETURN_IF_ERROR(dir_tag);
  op.dir_tag = *dir_tag;
  return op;
}

namespace {

Op ToOp(const OpView& v) {
  Op op;
  op.type = v.type;
  op.path = std::string(v.path);
  op.data.assign(v.data.begin(), v.data.end());
  op.mode = v.mode;
  op.version = v.version;
  op.watch = v.watch;
  op.dir_tag = v.dir_tag;
  return op;
}

}  // namespace

Result<Op> Op::Decode(wire::BufferReader& r) {
  auto view = OpView::Read(r);
  DUFS_RETURN_IF_ERROR(view);
  return ToOp(*view);
}

Result<Txn> Txn::Decode(wire::BufferReader& r) {
  auto view = TxnView::Read(r);
  DUFS_RETURN_IF_ERROR(view);
  Txn txn;
  txn.session = view->session;
  txn.time = view->time;
  txn.trace = view->trace;
  txn.op = ToOp(view->op);
  for (const OpView& op : view->multi_ops) txn.multi_ops.push_back(ToOp(op));
  return txn;
}

void OpList::Iterator::Next() {
  auto op = OpView::Read(r_);
  DUFS_CHECK(op.ok());  // the list's owner read every op once already
  op_ = *op;
}

namespace {

// The fewest bytes an op takes: type, empty path and data, mode, version,
// watch and dir_tag.
constexpr std::size_t kMinOpSize = 1 + 1 + 1 + 1 + 4 + 1 + 1;

}  // namespace

Result<OpList> OpList::Read(wire::BufferReader& r) {
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  if (*n > r.remaining() / kMinOpSize) {
    return Status(StatusCode::kIoError, "wire: op count past the frame");
  }
  const std::uint8_t* first = r.cursor();
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto op = OpView::Read(r);
    DUFS_RETURN_IF_ERROR(op);
  }
  return OpList(first, static_cast<std::size_t>(r.cursor() - first),
                static_cast<std::size_t>(*n));
}

Result<TxnView> TxnView::Read(wire::BufferReader& r) {
  TxnView txn;
  const std::uint8_t* first = r.cursor();
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  txn.session = *session;
  auto time = r.ReadI64();
  DUFS_RETURN_IF_ERROR(time);
  txn.time = *time;
  auto trace = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(trace);
  txn.trace = *trace;
  auto op = OpView::Read(r);
  DUFS_RETURN_IF_ERROR(op);
  txn.op = *op;
  auto multi = OpList::Read(r);
  DUFS_RETURN_IF_ERROR(multi);
  txn.multi_ops = *multi;
  txn.bytes = std::span<const std::uint8_t>(
      first, static_cast<std::size_t>(r.cursor() - first));
  return txn;
}

namespace {

Status ExpectEnd(const wire::BufferReader& r) {
  if (!r.AtEnd()) {
    return Status(StatusCode::kIoError, "wire: trailing bytes after a frame");
  }
  return Status::Ok();
}

}  // namespace

Result<TxnView> TxnView::Decode(std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  auto txn = Read(r);
  DUFS_RETURN_IF_ERROR(txn);
  DUFS_RETURN_IF_ERROR(ExpectEnd(r));
  return txn;
}

std::vector<std::uint8_t> EncodeBatchPropose(
    std::int64_t epoch, std::span<const BatchEntry> entries) {
  std::size_t size = 8 + Writer::VarintSize(entries.size());
  for (const BatchEntry& e : entries) size += 8 + e.txn.size();
  wire::BufferWriter w;
  w.Reserve(size);
  w.WriteI64(epoch);
  w.WriteVarint(entries.size());
  for (const BatchEntry& e : entries) {
    w.WriteI64(e.zxid);
    w.WriteRaw(e.txn.begin(), e.txn.end());
  }
  return w.Take();
}

Result<BatchProposeView> BatchProposeView::Decode(
    std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  BatchProposeView m;
  auto epoch = r.ReadI64();
  DUFS_RETURN_IF_ERROR(epoch);
  m.epoch_ = *epoch;
  auto count = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(count);
  const std::uint8_t* rest = r.cursor();
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    auto txn = TxnView::Read(r);
    DUFS_RETURN_IF_ERROR(txn);
    if (i == 0) {
      m.lo_ = *zxid;
      m.front_ = *txn;
      rest = r.cursor();
    }
    m.hi_ = *zxid;
  }
  DUFS_RETURN_IF_ERROR(ExpectEnd(r));
  m.count_ = static_cast<std::size_t>(*count);
  m.rest_ = std::span<const std::uint8_t>(
      rest, static_cast<std::size_t>(r.cursor() - rest));
  return m;
}

std::vector<std::uint8_t> EncodeZxid(Zxid zxid) {
  wire::BufferWriter w;
  w.WriteI64(zxid);
  return w.Take();
}

Result<Zxid> DecodeZxid(std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  auto zxid = r.ReadI64();
  DUFS_RETURN_IF_ERROR(zxid);
  DUFS_RETURN_IF_ERROR(ExpectEnd(r));
  return *zxid;
}

std::vector<std::uint8_t> EncodeZxidRange(Zxid lo, Zxid hi) {
  wire::BufferWriter w;
  w.Reserve(16);
  w.WriteI64(lo);
  w.WriteI64(hi);
  return w.Take();
}

Result<std::pair<Zxid, Zxid>> DecodeZxidRange(
    std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  auto lo = r.ReadI64();
  DUFS_RETURN_IF_ERROR(lo);
  auto hi = r.ReadI64();
  DUFS_RETURN_IF_ERROR(hi);
  DUFS_RETURN_IF_ERROR(ExpectEnd(r));
  return std::pair<Zxid, Zxid>(*lo, *hi);
}

std::vector<std::uint8_t> ForwardReply::Encode(
    Zxid zxid, const std::vector<std::uint8_t>& reply) {
  wire::BufferWriter w;
  w.Reserve(8 + Writer::BlobSize(reply.size()));
  w.WriteI64(zxid);
  w.WriteBytes(reply);
  return w.Take();
}

Result<Zxid> ForwardReply::TakeReply(std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  auto zxid = r.ReadI64();
  DUFS_RETURN_IF_ERROR(zxid);
  auto len = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(len);
  if (*len != r.remaining()) {
    return Status(StatusCode::kIoError, "wire: bad forward reply length");
  }
  bytes.erase(bytes.begin(),
              bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()));
  return *zxid;
}

void OpResult::Encode(wire::BufferWriter& w) const {
  w.WriteU8(static_cast<std::uint8_t>(code));
  w.WriteString(created_path);
  stat.Encode(w);
  w.WriteBytes(data);
  w.WriteVarint(children.size());
  for (const auto& c : children) w.WriteString(c);
  // The compound fields: resolved depth, prefix count, entry count.
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(0);
}

std::size_t OpResult::EncodedSize() const {
  std::size_t n = 1 + Writer::BlobSize(created_path.size()) +
                  ZnodeStat::kEncodedSize + Writer::BlobSize(data.size()) +
                  Writer::VarintSize(children.size()) + 3;
  for (const auto& c : children) n += Writer::BlobSize(c.size());
  return n;
}

Result<OpResult> OpResult::Decode(wire::BufferReader& r) {
  OpResult res;
  auto code = r.ReadU8();
  DUFS_RETURN_IF_ERROR(code);
  res.code = static_cast<StatusCode>(*code);
  auto created = r.ReadString();
  DUFS_RETURN_IF_ERROR(created);
  res.created_path = std::move(*created);
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  res.stat = *stat;
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  res.data = std::move(*data);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto child = r.ReadString();
    DUFS_RETURN_IF_ERROR(child);
    res.children.push_back(std::move(*child));
  }
  for (int field = 0; field < 3; ++field) {
    auto empty = r.ReadVarint();
    DUFS_RETURN_IF_ERROR(empty);
    if (*empty != 0) {
      return Status(StatusCode::kIoError,
                    "wire: compound fields in a plain reply");
    }
  }
  return res;
}

namespace {

// The fewest bytes a compound-reply node takes: an empty name, its stat
// and empty data.
constexpr std::size_t kMinNodeSize = 1 + ZnodeStat::kEncodedSize + 1;

// One compound-reply node; its views alias the reader's buffer.
Result<CompoundReply::Node> ReadNode(wire::BufferReader& r) {
  CompoundReply::Node node;
  auto name = r.ReadStringView();
  DUFS_RETURN_IF_ERROR(name);
  node.name = *name;
  auto stat = r.ReadBlock(ZnodeStat::kEncodedSize);
  DUFS_RETURN_IF_ERROR(stat);
  node.stat_block = *stat;
  auto data = r.ReadBytesView();
  DUFS_RETURN_IF_ERROR(data);
  node.data = *data;
  return node;
}

// `n` nodes into `out`, which has room for them.
Status ReadNodes(wire::BufferReader& r, std::uint64_t n,
                 std::vector<CompoundReply::Node>& out) {
  if (n > out.capacity() - out.size()) {
    return Status(StatusCode::kIoError, "wire: node count past the frame");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    auto node = ReadNode(r);
    DUFS_RETURN_IF_ERROR(node);
    out.push_back(*node);
  }
  return Status::Ok();
}

Status ExpectZero(wire::BufferReader& r, const char* what) {
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  if (*n != 0) return Status(StatusCode::kIoError, what);
  return Status::Ok();
}

}  // namespace

Result<CompoundReply> CompoundReply::Decode(std::vector<std::uint8_t> bytes) {
  return Read(std::move(bytes), /*nodes=*/true);
}

Result<CompoundReply> CompoundReply::DecodeHead(
    std::vector<std::uint8_t> bytes) {
  return Read(std::move(bytes), /*nodes=*/false);
}

Result<CompoundReply> CompoundReply::Read(std::vector<std::uint8_t> bytes,
                                          bool nodes) {
  CompoundReply reply;
  reply.bytes_ = std::move(bytes);
  wire::BufferReader r(reply.bytes_);
  auto code = r.ReadU8();
  DUFS_RETURN_IF_ERROR(code);
  reply.code_ = static_cast<StatusCode>(*code);
  auto created = r.ReadStringView();
  DUFS_RETURN_IF_ERROR(created);
  reply.created_path_ = *created;
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  reply.stat_ = *stat;
  auto data = r.ReadBytesView();
  DUFS_RETURN_IF_ERROR(data);
  reply.data_ = *data;
  DUFS_RETURN_IF_ERROR(ExpectZero(r, "wire: children in a compound reply"));
  auto depth = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(depth);
  if (*depth > UINT32_MAX) {
    return Status(StatusCode::kIoError, "wire: resolved depth overflow");
  }
  reply.resolved_depth_ = static_cast<std::uint32_t>(*depth);
  if (!nodes) return reply;
  // Every node takes at least kMinNodeSize of the bytes left, so a table
  // of that many holds the prefix and the entries together: one
  // allocation, and no second pass to count them first.
  reply.nodes_.reserve(r.remaining() / kMinNodeSize);
  auto n_prefix = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_prefix);
  DUFS_RETURN_IF_ERROR(ReadNodes(r, *n_prefix, reply.nodes_));
  reply.n_prefix_ = reply.nodes_.size();
  auto n_entries = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_entries);
  DUFS_RETURN_IF_ERROR(ReadNodes(r, *n_entries, reply.nodes_));
  DUFS_RETURN_IF_ERROR(
      ExpectZero(r, "wire: multi results in a compound reply"));
  if (!r.AtEnd()) {
    return Status(StatusCode::kIoError, "wire: trailing bytes after a reply");
  }
  return reply;
}

std::vector<std::uint8_t> ClientRequest::Encode() const {
  wire::BufferWriter w;
  std::size_t size = 8 + wire::BufferWriter::VarintSize(trace) +
                     op.EncodedSize() +
                     wire::BufferWriter::VarintSize(multi_ops.size());
  for (const auto& o : multi_ops) size += o.EncodedSize();
  w.Reserve(size);
  w.WriteU64(session);
  w.WriteVarint(trace);
  op.Encode(w);
  w.WriteVarint(multi_ops.size());
  for (const auto& o : multi_ops) o.Encode(w);
  return w.Take();
}

Result<RequestView> RequestView::Decode(std::span<const std::uint8_t> bytes) {
  wire::BufferReader r(bytes.data(), bytes.size());
  RequestView req;
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  req.session = *session;
  auto trace = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(trace);
  req.trace = *trace;
  auto op = OpView::Read(r);
  DUFS_RETURN_IF_ERROR(op);
  req.op = *op;
  auto multi = OpList::Read(r);
  DUFS_RETURN_IF_ERROR(multi);
  req.multi_ops = *multi;
  DUFS_RETURN_IF_ERROR(ExpectEnd(r));
  req.bytes = bytes;
  return req;
}

std::vector<std::uint8_t> RequestView::TxnBytes() const {
  // A request starts with the U64 session, as a txn does.
  const auto rest = bytes.begin() + 8;
  wire::BufferWriter w;
  w.Reserve(bytes.size() + 8);
  w.WriteRaw(bytes.begin(), rest);
  w.WriteI64(0);
  w.WriteRaw(rest, bytes.end());
  return w.Take();
}

std::vector<std::uint8_t> ClientResponse::Encode() const {
  wire::BufferWriter w;
  w.Reserve(EncodedSize());
  Encode(w);
  return w.Take();
}

void ClientResponse::Encode(wire::BufferWriter& w) const {
  result.Encode(w);
  w.WriteVarint(multi_results.size());
  for (const auto& r : multi_results) r.Encode(w);
}

std::size_t ClientResponse::EncodedSize() const {
  std::size_t n = result.EncodedSize() +
                  wire::BufferWriter::VarintSize(multi_results.size());
  for (const auto& r : multi_results) n += r.EncodedSize();
  return n;
}

Result<ClientResponse> ClientResponse::Decode(
    const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  ClientResponse resp;
  auto result = OpResult::Decode(r);
  DUFS_RETURN_IF_ERROR(result);
  resp.result = std::move(*result);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto sub = OpResult::Decode(r);
    DUFS_RETURN_IF_ERROR(sub);
    resp.multi_results.push_back(std::move(*sub));
  }
  return resp;
}

std::vector<std::uint8_t> WatchEvent::Encode() const {
  wire::BufferWriter w;
  w.Reserve(1 + Writer::BlobSize(path.size()) + 8);
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteString(path);
  w.WriteU64(session);
  return w.Take();
}

Result<WatchEvent> WatchEvent::Decode(const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  WatchEvent ev;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  ev.type = static_cast<WatchEventType>(*type);
  auto path = r.ReadString();
  DUFS_RETURN_IF_ERROR(path);
  ev.path = std::move(*path);
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  ev.session = *session;
  return ev;
}

}  // namespace dufs::zk
