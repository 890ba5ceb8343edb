// Wire protocol of the coordination service: client operations, transaction
// records (the replicated log entries), and operation results.
//
// Reads (GetData/Exists/GetChildren/Sync) are served by any server from its
// local replica. Writes (Create/Delete/SetData/Multi/session lifecycle) are
// turned into Txn records, sequenced by the leader, replicated by its BATCH
// PROPOSE / range ACK / COMMIT watermark exchange, and applied by every
// replica in zxid order (see server.h, DESIGN.md §16).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "wire/buffer.h"
#include "zk/znode.h"

namespace dufs::zk {

// RPC method ids (shared RpcEndpoint method space: zk owns 100-119).
namespace method {
inline constexpr std::uint16_t kConnect = 100;      // client -> server
inline constexpr std::uint16_t kRequest = 101;      // client -> server
inline constexpr std::uint16_t kForward = 110;      // follower -> leader
// Replication: every proposal is a contiguous zxid run (one txn unless group
// commit coalesced more), ACKed as one [lo, hi] range.
inline constexpr std::uint16_t kBatchPropose = 104; // leader -> follower
inline constexpr std::uint16_t kBatchAck = 105;     // follower -> leader
inline constexpr std::uint16_t kCommit = 113;       // leader -> all (one-way)
inline constexpr std::uint16_t kElectionVote = 114; // peer -> peer (one-way)
inline constexpr std::uint16_t kFollowerInfo = 115; // follower -> leader
inline constexpr std::uint16_t kPing = 116;         // leader -> follower
inline constexpr std::uint16_t kWatchEvent = 117;   // server -> client
inline constexpr std::uint16_t kSessionPing = 118;  // client -> server (one-way)
}  // namespace method

enum class OpType : std::uint8_t {
  // Reads (never replicated).
  kGetData = 0,
  kExists = 1,
  kGetChildren = 2,
  kSync = 3,
  // Compound reads: server-side path resolution (DESIGN.md §13). One RPC
  // resolves every component of `path` against the local replica and ships
  // the whole prefix back for client cache seeding.
  kResolvePath = 4,
  kReadDirPlus = 5,
  // Writes (replicated as Txns).
  kCreate = 10,
  kDelete = 11,
  kSetData = 12,
  kMulti = 13,
  kCreateSession = 14,
  kCloseSession = 15,
  // Multi-only guard op.
  kCheckVersion = 16,
  // Compound writes: resolve + mutate in one replicated txn. They ride the
  // ordinary Txn path (leader sequencing, group commit, replay untouched);
  // the resolution loop runs inside Database::Apply on every replica.
  kResolveCreate = 17,
  kResolveDelete = 18,
};

inline bool IsWrite(OpType t) { return static_cast<int>(t) >= 10; }

inline bool IsCompound(OpType t) {
  return t == OpType::kResolvePath || t == OpType::kReadDirPlus ||
         t == OpType::kResolveCreate || t == OpType::kResolveDelete;
}

// Stable display name ("create", "getChildren", ...) for logs and traces.
const char* OpTypeName(OpType t);

// One operation — used both for standalone requests and inside a Multi.
struct Op {
  OpType type = OpType::kGetData;
  std::string path;
  std::vector<std::uint8_t> data;
  CreateMode mode = CreateMode::kPersistent;
  std::int32_t version = kAnyVersion;
  // Reads and compound writes; on compound ops the session server registers
  // a one-shot data watch on every resolved component (plus the first
  // missing one), keeping client-side prefix seeding coherent.
  bool watch = false;
  // Compound ops only. Nonzero = every *interior* resolved component's data
  // must begin with this byte or resolution stops with kNotADirectory. The
  // FS layer stores its kind tag as the first MetaRecord byte, which lets
  // the (otherwise schema-agnostic) coordination service enforce the POSIX
  // walk rule server-side. 0 disables the guard (existence checks only).
  std::uint8_t dir_tag = 0;

  void Encode(wire::BufferWriter& w) const;
  // An owning copy; the servers read ops in place (OpView).
  static Result<Op> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;  // bytes Encode appends

  // Convenience constructors.
  static Op Create(std::string path, std::vector<std::uint8_t> data,
                   CreateMode mode = CreateMode::kPersistent);
  static Op Delete(std::string path, std::int32_t version = kAnyVersion);
  static Op SetData(std::string path, std::vector<std::uint8_t> data,
                    std::int32_t version = kAnyVersion);
  static Op CheckVersion(std::string path, std::int32_t version);
  static Op ResolvePath(std::string path, bool watch, std::uint8_t dir_tag);
  static Op ReadDirPlus(std::string path, bool watch, std::uint8_t dir_tag);
  static Op ResolveCreate(std::string path, std::vector<std::uint8_t> data,
                          CreateMode mode, std::uint8_t dir_tag, bool watch);
  static Op ResolveDelete(std::string path, std::int32_t version,
                          std::uint8_t dir_tag, bool watch);
};

// One operation read in place: the path and data view the bytes it was
// read from. An Op converts to its view, so a caller holding an Op passes
// it wherever a view goes.
struct OpView {
  OpType type = OpType::kGetData;
  std::string_view path;
  std::span<const std::uint8_t> data;
  CreateMode mode = CreateMode::kPersistent;
  std::int32_t version = kAnyVersion;
  bool watch = false;
  std::uint8_t dir_tag = 0;

  OpView() = default;
  OpView(const Op& op)  // NOLINT(google-explicit-constructor)
      : type(op.type),
        path(op.path),
        data(op.data),
        mode(op.mode),
        version(op.version),
        watch(op.watch),
        dir_tag(op.dir_tag) {}

  static Result<OpView> Read(wire::BufferReader& r);
};

// The ops of a Multi, read in place from bytes the view that holds this
// list has already checked.
class OpList {
 public:
  class Iterator {
   public:
    Iterator(const std::uint8_t* at, std::size_t size, std::size_t left)
        : r_(at, size), left_(left) {
      if (left_ > 0) Next();
    }
    const OpView& operator*() const { return op_; }
    const OpView* operator->() const { return &op_; }
    Iterator& operator++() {
      if (--left_ > 0) Next();
      return *this;
    }
    bool operator==(const Iterator& o) const { return left_ == o.left_; }

   private:
    void Next();

    wire::BufferReader r_;
    std::size_t left_;
    OpView op_;
  };

  OpList() = default;
  OpList(const std::uint8_t* data, std::size_t size, std::size_t count)
      : data_(data), size_(size), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const { return Iterator(data_, size_, count_); }
  Iterator end() const { return Iterator(data_, 0, 0); }

  // Reads `varint n, then n ops` from `r` and returns them as a list.
  static Result<OpList> Read(wire::BufferReader& r);

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

// A replicated transaction: the client's write plus its session stamp and
// the leader-assigned wall time (so ctime/mtime are identical on every
// replica, exactly like ZooKeeper's TxnHeader time). On the wire it is the
// request (RequestView) with the time spliced in after the session:
//   U64 session, I64 time, varint trace, op, varint n, n multi ops.
// Replicas hold and apply it as these bytes (TxnView); this struct builds
// one (tests, the session-expiry CloseSession).
struct Txn {
  SessionId session = 0;
  std::int64_t time = 0;     // leader clock at sequencing time (sim ns)
  std::uint64_t trace = 0;   // originating trace id; 0 = untraced (varint
                             // on the wire, so tracing off costs one byte)
  Op op;                     // kCreate/kDelete/kSetData/kCreateSession/...
  std::vector<Op> multi_ops; // when op.type == kMulti

  void Encode(wire::BufferWriter& w) const;
  std::vector<std::uint8_t> Encode() const;
  // An owning copy; the servers read txns in place (TxnView).
  static Result<Txn> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;  // bytes Encode appends
};

// Where Txn::time sits in an encoded txn: the leader stamps it in place.
inline constexpr std::size_t kTxnTimeOffset = 8;
void StampTxnTime(std::span<std::uint8_t> txn, std::int64_t time);

// A txn read in place. Its views alias the bytes it was read from.
struct TxnView {
  SessionId session = 0;
  std::int64_t time = 0;
  std::uint64_t trace = 0;
  OpView op;
  OpList multi_ops;  // when op.type == kMulti
  std::span<const std::uint8_t> bytes;  // the whole encoded txn

  // One txn from `r`, which may hold more after it (a batch, a diff).
  static Result<TxnView> Read(wire::BufferReader& r);
  // Exactly one txn: trailing bytes are an error.
  static Result<TxnView> Decode(std::span<const std::uint8_t> bytes);
};

// Leader -> follower BATCH PROPOSE (method::kBatchPropose): a contiguous
// run of sequenced txns, I64 epoch, varint n, then n times (I64 zxid, txn
// bytes as the leader sequenced them). Without group commit every run is a
// batch of one. The follower journals the run with one fsync and ACKs the
// whole [lo, hi] zxid range back.
struct BatchEntry {
  Zxid zxid = 0;
  std::vector<std::uint8_t> txn;
};
std::vector<std::uint8_t> EncodeBatchPropose(
    std::int64_t epoch, std::span<const BatchEntry> entries);
class BatchProposeView {
 public:
  std::int64_t epoch() const { return epoch_; }
  std::size_t size() const { return count_; }
  Zxid lo() const { return lo_; }
  Zxid hi() const { return hi_; }
  std::uint64_t front_trace() const { return front_.trace; }

  // Calls fn(zxid, txn) for each entry in order. Decode kept the first
  // entry's view, so a batch of one is read only once.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (count_ == 0) return;
    fn(lo_, front_);
    wire::BufferReader r(rest_.data(), rest_.size());
    for (std::size_t i = 1; i < count_; ++i) {
      const Zxid zxid = *r.ReadI64();
      fn(zxid, *TxnView::Read(r));
    }
  }

  static Result<BatchProposeView> Decode(std::span<const std::uint8_t> bytes);

 private:
  std::int64_t epoch_ = 0;
  std::size_t count_ = 0;
  Zxid lo_ = 0;
  Zxid hi_ = 0;
  TxnView front_;
  std::span<const std::uint8_t> rest_;  // the entries after the first
};

// COMMIT (a cumulative watermark) and FOLLOWERINFO carry one zxid; the ACK
// carries the [lo, hi] range of the batch it answers.
std::vector<std::uint8_t> EncodeZxid(Zxid zxid);
Result<Zxid> DecodeZxid(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> EncodeZxidRange(Zxid lo, Zxid hi);
Result<std::pair<Zxid, Zxid>> DecodeZxidRange(
    std::span<const std::uint8_t> bytes);

// Leader -> follower reply to a FORWARD (whose request is the txn bytes):
// I64 zxid, then WriteBytes(the encoded ClientResponse). The follower
// strips the header in place and hands the client the very bytes the
// leader encoded.
struct ForwardReply {
  static std::vector<std::uint8_t> Encode(
      Zxid zxid, const std::vector<std::uint8_t>& reply);
  // Leaves just the reply in `bytes` and returns the zxid.
  static Result<Zxid> TakeReply(std::vector<std::uint8_t>& bytes);
};

// Result of applying one plain Op. A compound op's reply is not an OpResult
// but bytes (CompoundReply below); on the wire both are the same frame.
struct OpResult {
  StatusCode code = StatusCode::kOk;
  std::string created_path;          // kCreate
  ZnodeStat stat;                    // kExists/kSetData/kGetData
  std::vector<std::uint8_t> data;    // kGetData
  std::vector<std::string> children; // kGetChildren

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const { return Status(code); }

  // The compound fields (resolved depth, prefix and entries) go out empty
  // and must come back empty.
  void Encode(wire::BufferWriter& w) const;
  static Result<OpResult> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;
};

// Client-facing request/response frames (method::kRequest). A request is
//   U64 session, varint trace, op, varint n, n multi ops.
struct ClientRequest {
  SessionId session = 0;
  std::uint64_t trace = 0;  // see Txn::trace
  Op op;
  std::vector<Op> multi_ops;

  std::vector<std::uint8_t> Encode() const;
};

// A request read in place by the server it arrives at.
struct RequestView {
  SessionId session = 0;
  std::uint64_t trace = 0;
  OpView op;
  OpList multi_ops;
  std::span<const std::uint8_t> bytes;  // the whole request

  static Result<RequestView> Decode(std::span<const std::uint8_t> bytes);
  // The txn a write request becomes, built with one allocation: the
  // session, a zero time (the leader stamps it), then the rest unchanged.
  std::vector<std::uint8_t> TxnBytes() const;
};

struct ClientResponse {
  OpResult result;                  // result of `op` (or first failed multi op)
  std::vector<OpResult> multi_results;

  StatusCode code() const { return result.code; }

  std::vector<std::uint8_t> Encode() const;
  void Encode(wire::BufferWriter& w) const;
  std::size_t EncodedSize() const;
  static Result<ClientResponse> Decode(const std::vector<std::uint8_t>& bytes);
};

// The reply to a compound op (kResolvePath/kReadDirPlus/kResolveCreate/
// kResolveDelete, DESIGN.md §13.1), read in place. It is a ClientResponse
// frame with no multi results whose OpResult carries, after the plain
// fields (children always empty):
//   varint resolved_depth
//   varint n, then n prefix nodes
//   varint m, then m entries
// and a node is WriteString(name), the 64-byte ZnodeStat, WriteBytes(data).
// Database::EncodeReply writes it straight from the tree; the servers pass
// the bytes on unchanged and the client decodes them once, here.
//
// Contract (the same bytes whichever replica encoded them):
//   - resolved_depth = number of leading components of Op::path that exist
//     *after* the op ran (so a successful ResolveDelete of an n-component
//     path reports n-1; a successful ResolveCreate reports n).
//   - prefix = one node per existing leading component EXCLUDING the
//     terminal, whose stat/data ride stat()/data().
//     prefix().size() == min(resolved_depth, n_components - 1). On a partial
//     miss (code kNotFound) the prefix covers exactly the components that
//     do exist, so the client can seed positives for them and a negative
//     for the first missing one. On kNotADirectory the offending non-dir
//     component is the *last* prefix node; components past it were never
//     examined, so no negative may be inferred.
//   - entries = kReadDirPlus only: every child of the listed directory with
//     its stat+data, in sorted (map) order.
//
// Names and data are views into the payload the reply owns. It is
// move-only, and a move keeps every view valid.
class CompoundReply {
 public:
  struct Node {
    std::string_view name;
    const std::uint8_t* stat_block;  // ZnodeStat::kEncodedSize bytes
    std::span<const std::uint8_t> data;

    // Decoded on each call: a reader that never looks at a node's stat
    // (the server registering watches) never pays for it.
    ZnodeStat stat() const { return ZnodeStat::DecodeFrom(stat_block); }
  };

  // Takes the payload and reads it in one pass. Any malformed or truncated
  // frame is an error; a well-formed one costs at most one allocation (the
  // node table).
  static Result<CompoundReply> Decode(std::vector<std::uint8_t> bytes);
  // The same up to the resolved depth, allocating nothing: prefix() and
  // entries() are empty and the node table is not read or checked. For the
  // server, which counts a reply it encoded and watches the walked path.
  static Result<CompoundReply> DecodeHead(std::vector<std::uint8_t> bytes);

  CompoundReply(CompoundReply&&) = default;
  CompoundReply& operator=(CompoundReply&&) = default;
  CompoundReply(const CompoundReply&) = delete;
  CompoundReply& operator=(const CompoundReply&) = delete;

  StatusCode code() const { return code_; }
  bool ok() const { return code_ == StatusCode::kOk; }
  Status ToStatus() const { return Status(code_); }
  const ZnodeStat& stat() const { return stat_; }
  std::span<const std::uint8_t> data() const { return data_; }
  std::string_view created_path() const { return created_path_; }
  std::uint32_t resolved_depth() const { return resolved_depth_; }
  std::span<const Node> prefix() const {
    return std::span<const Node>(nodes_).first(n_prefix_);
  }
  std::span<const Node> entries() const {
    return std::span<const Node>(nodes_).subspan(n_prefix_);
  }

  // Hands the payload back (to forward it); the views go with it.
  std::vector<std::uint8_t> TakeBytes() && { return std::move(bytes_); }

 private:
  CompoundReply() = default;
  static Result<CompoundReply> Read(std::vector<std::uint8_t> bytes,
                                    bool nodes);

  std::vector<std::uint8_t> bytes_;
  StatusCode code_ = StatusCode::kOk;
  ZnodeStat stat_;
  std::span<const std::uint8_t> data_;
  std::string_view created_path_;
  std::uint32_t resolved_depth_ = 0;
  std::vector<Node> nodes_;  // the prefix, then the entries
  std::size_t n_prefix_ = 0;
};

// Watch event pushed to clients (method::kWatchEvent).
enum class WatchEventType : std::uint8_t {
  kNodeCreated = 0,
  kNodeDeleted = 1,
  kNodeDataChanged = 2,
  kNodeChildrenChanged = 3,
};

struct WatchEvent {
  WatchEventType type = WatchEventType::kNodeDataChanged;
  std::string path;
  SessionId session = 0;

  std::vector<std::uint8_t> Encode() const;
  static Result<WatchEvent> Decode(const std::vector<std::uint8_t>& bytes);
};

}  // namespace dufs::zk
