// The replicated state machine: DataTree + session table + txn application.
//
// Every replica owns one Database and applies committed Txns in zxid order.
// Apply() is deterministic — identical inputs leave every replica with an
// identical Fingerprint() — and returns the OpResults plus the watch
// triggers the owning server should fan out. Only the replica that answers
// the client asks for a reply; the others get the status codes and the
// triggers alone (DESIGN.md §13.2). A compound op's reply is encoded here,
// once, straight from the resolution walk (CompoundReply in proto.h).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "zk/proto.h"
#include "zk/znode.h"

namespace dufs::zk {

struct AppliedTxn {
  OpResult result;                    // standalone op (or aggregate for multi)
  std::vector<OpResult> multi_results;
  // A compound write applied with `reply`: the whole encoded ClientResponse
  // (a CompoundReply) the client receives. Its code is result.code.
  std::vector<std::uint8_t> reply;

  // A path views the applied txn's bytes or a buffer of the database (a
  // sequential node's name, a closed session's ephemerals), so it is valid
  // while those bytes live and until the database applies the next txn.
  // The server builds a string only for a watch that fires.
  struct Trigger {
    WatchEventType type;
    std::string_view path;
  };
  std::vector<Trigger> triggers;
};

class Database {
 public:
  Database();

  // --- replicated writes --------------------------------------------------
  // `reply` = a client waits for this result. Without it the state change,
  // status codes and triggers are the same, but a compound op encodes no
  // AppliedTxn::reply. The result is the database's own record, reused by
  // every Apply (so a warm apply allocates only what the tree keeps); the
  // caller may move the reply out.
  AppliedTxn& Apply(const TxnView& txn, Zxid zxid, std::int64_t now_ns,
                    bool reply = true);
  // The same for a txn built as an object: encoded into a buffer of the
  // database first, which the triggers then view.
  AppliedTxn& Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                    bool reply = true);
  Zxid last_applied() const { return last_applied_; }

  // --- local reads ----------------------------------------------------
  // Plain reads (kGetData/kExists/kGetChildren/kSync).
  OpResult Read(const OpView& op) const;
  // kResolvePath/kReadDirPlus: the encoded ClientResponse, written from the
  // walk into one buffer reserved at its exact size.
  std::vector<std::uint8_t> EncodeCompoundRead(const OpView& op) const;

  bool SessionExists(SessionId id) const { return sessions_.count(id) > 0; }
  std::size_t session_count() const { return sessions_.size(); }

  DataTree& tree() { return *tree_; }
  const DataTree& tree() const { return *tree_; }

  // --- snapshots ---------------------------------------------------------
  std::vector<std::uint8_t> Snapshot() const;
  static Result<std::unique_ptr<Database>> Restore(
      const std::vector<std::uint8_t>& snapshot);

  std::uint64_t Fingerprint() const;
  std::size_t EstimateMemoryBytes() const;

 private:
  // What a compound op did; its reply is encoded from it after any
  // mutation (so ancestor stats in the prefix are post-op).
  struct CompoundOutcome {
    StatusCode code = StatusCode::kOk;
    std::size_t prefix = 0;  // leading chain_ entries shipped as the prefix
    std::uint32_t depth = 0;
    // Its stat (and data, when terminal_data) ride the reply's stat/data.
    const DataTree::Znode* terminal = nullptr;
    bool terminal_data = false;
    // A successful ResolveCreate: the reply's created path is the op path's
    // directory plus the terminal's name.
    bool created = false;
    // kReadDirPlus: the directory whose children are the entries.
    const DataTree::Znode* listed = nullptr;
    std::unique_ptr<DataTree::Znode> deleted;  // keeps `terminal` alive
  };

  // `reply`, when set, receives a compound op's encoded reply.
  OpResult ApplyOne(const OpView& op, SessionId session, Zxid zxid,
                    std::int64_t now_ns, std::vector<std::uint8_t>* reply,
                    std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveRead(const OpView& op) const;
  CompoundOutcome ResolveCreate(const OpView& op, SessionId session, Zxid zxid,
                                std::int64_t now_ns,
                                std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveDelete(const OpView& op, Zxid zxid,
                                std::vector<AppliedTxn::Trigger>& out);
  // The one compound-reply encoder: the ClientResponse bytes for `outcome`,
  // read from chain_ and the tree.
  std::vector<std::uint8_t> EncodeReply(const OpView& op,
                                        const CompoundOutcome& outcome) const;
  void ApplyMulti(const TxnView& txn, Zxid zxid, std::int64_t now_ns);
  // The path a create of `op.path` made `node` at: the op path itself,
  // unless the node's name took a sequential suffix (built in created_path_).
  std::string_view CreatedPath(const OpView& op, const DataTree::Znode& node);
  // Splits `path` into components_ and walks them into chain_ (see
  // ResolveChain in database.cc); returns the walk's status.
  StatusCode Resolve(std::string_view path, std::uint8_t dir_tag) const;

  std::unique_ptr<DataTree> tree_;
  // Scratch for Resolve, reused by every compound op instead of fresh
  // vectors per call. Only the current op's walk lives here, and listing_
  // holds a ReadDirPlus reply's entries while EncodeReply sorts them.
  mutable std::vector<std::string_view> components_;
  mutable std::vector<const DataTree::Znode*> chain_;
  mutable std::vector<const DataTree::Znode*> listing_;
  HashSet<SessionId> sessions_;
  Zxid last_applied_ = 0;
  // Reused by every Apply: the record it returns, the bytes of a txn given
  // as an object, and the trigger paths no txn byte holds.
  AppliedTxn applied_;
  wire::BufferWriter txn_bytes_;
  std::string created_path_;
  std::vector<std::string> closed_ephemerals_;
};

}  // namespace dufs::zk
