// The replicated state machine: DataTree + session table + txn application.
//
// Every replica owns one Database and applies committed Txns in zxid order.
// Apply() is deterministic — identical inputs leave every replica with an
// identical Fingerprint() — and returns the OpResults plus the watch
// triggers the owning server should fan out. Only the replica that answers
// the client asks for a reply; the others get the status codes and the
// triggers alone (DESIGN.md §13.2).
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
  // status codes and triggers are the same, but compound ops ship no
  // resolved prefix, stat, data or created path.
  AppliedTxn Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                   bool reply = true);
  Zxid last_applied() const { return last_applied_; }

  // --- local reads ----------------------------------------------------
  OpResult Read(const Op& op) const;

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
  // What a compound write did; the reply, if one is wanted, is shaped from
  // it after the mutation (so ancestor stats in the prefix are post-op).
  struct CompoundOutcome {
    StatusCode code = StatusCode::kOk;
    std::size_t prefix = 0;  // leading chain_ entries shipped as the prefix
    std::uint32_t depth = 0;
    // Its stat (and data, when terminal_data) ride OpResult::stat/data.
    const DataTree::Znode* terminal = nullptr;
    bool terminal_data = false;
    std::unique_ptr<DataTree::Znode> deleted;  // keeps `terminal` alive
  };

  OpResult ApplyOne(const Op& op, SessionId session, Zxid zxid,
                    std::int64_t now_ns, bool reply,
                    std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveCreate(const Op& op, SessionId session, Zxid zxid,
                                std::int64_t now_ns,
                                std::vector<AppliedTxn::Trigger>& out);
  CompoundOutcome ResolveDelete(const Op& op, Zxid zxid,
                                std::vector<AppliedTxn::Trigger>& out);
  void ShapeReply(const Op& op, const CompoundOutcome& outcome,
                  OpResult& res) const;
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
