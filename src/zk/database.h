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
#include <unordered_set>
#include <vector>

#include "zk/proto.h"
#include "zk/znode.h"

namespace dufs::zk {

struct AppliedTxn {
  OpResult result;                    // standalone op (or aggregate for multi)
  std::vector<OpResult> multi_results;
  // A compound write applied with `reply`: the whole encoded ClientResponse
  // (a CompoundReply) the client receives. Its code is result.code.
  std::vector<std::uint8_t> reply;

  struct Trigger {
    WatchEventType type;
    std::string path;
  };
  std::vector<Trigger> triggers;
};

class Database {
 public:
  Database();

  // --- replicated writes --------------------------------------------------
  // `reply` = a client waits for this result. Without it the state change,
  // status codes and triggers are the same, but a compound op encodes no
  // AppliedTxn::reply.
  AppliedTxn Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                   bool reply = true);
  Zxid last_applied() const { return last_applied_; }

  // --- local reads ----------------------------------------------------
  // Plain reads (kGetData/kExists/kGetChildren/kSync).
  OpResult Read(const Op& op) const;
  // kResolvePath/kReadDirPlus: the encoded ClientResponse, written from the
  // walk into one buffer reserved at its exact size.
  std::vector<std::uint8_t> EncodeCompoundRead(const Op& op) const;

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
  OpResult ApplyOne(const Op& op, SessionId session, Zxid zxid,
                    std::int64_t now_ns, std::vector<std::uint8_t>* reply,
                    std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveRead(const Op& op) const;
  CompoundOutcome ResolveCreate(const Op& op, SessionId session, Zxid zxid,
                                std::int64_t now_ns,
                                std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveDelete(const Op& op, Zxid zxid,
                                std::vector<AppliedTxn::Trigger>& out);
  // The one compound-reply encoder: the ClientResponse bytes for `outcome`,
  // read from chain_ and the tree.
  std::vector<std::uint8_t> EncodeReply(const Op& op,
                                        const CompoundOutcome& outcome) const;
  AppliedTxn ApplyMulti(const Txn& txn, Zxid zxid, std::int64_t now_ns);
  // Splits `path` into components_ and walks them into chain_ (see
  // ResolveChain in database.cc); returns the walk's status.
  StatusCode Resolve(std::string_view path, std::uint8_t dir_tag) const;

  std::unique_ptr<DataTree> tree_;
  // Scratch for Resolve, reused by every compound op instead of fresh
  // vectors per call. Only the current op's walk lives here.
  mutable std::vector<std::string_view> components_;
  mutable std::vector<const DataTree::Znode*> chain_;
  std::unordered_set<SessionId> sessions_;
  Zxid last_applied_ = 0;
};

}  // namespace dufs::zk
