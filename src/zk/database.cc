#include "zk/database.h"

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "common/log.h"

namespace dufs::zk {

namespace {

// Server-side resolution walk (DESIGN.md §13). Walks `components` from the
// root child-by-child into `chain` (cleared first). On success `chain` holds
// every component's znode; on kNotFound it holds exactly the leading
// components that do exist; on kNotADirectory the offending *interior*
// non-directory node is the last chain entry and later components were
// never examined. A nonzero dir_tag requires every interior component's
// data to begin with that byte — the FS layer's kind tag — so the walk
// enforces the POSIX rule without the coordination service knowing the
// record schema.
StatusCode ResolveChain(const DataTree& tree,
                        const std::vector<std::string_view>& components,
                        std::uint8_t dir_tag,
                        std::vector<const DataTree::Znode*>& chain) {
  chain.clear();
  const DataTree::Znode* cur = &tree.root();
  for (std::size_t i = 0; i < components.size(); ++i) {
    cur = cur->children.Find(components[i]);
    if (cur == nullptr) return StatusCode::kNotFound;
    chain.push_back(cur);
    if (i + 1 < components.size() && dir_tag != 0 &&
        (cur->data.empty() || cur->data[0] != dir_tag)) {
      return StatusCode::kNotADirectory;
    }
  }
  return StatusCode::kOk;
}

using Writer = wire::BufferWriter;

// One compound-reply node (CompoundReply in proto.h): name, stat, data.
std::size_t NodeSize(std::string_view name, const DataTree::Znode& node) {
  return Writer::BlobSize(name.size()) + ZnodeStat::kEncodedSize +
         Writer::BlobSize(node.data.size());
}

void WriteNode(wire::BufferWriter& w, std::string_view name,
               const DataTree::Znode& node) {
  w.WriteString(name);
  node.stat.Encode(w);
  w.WriteBytes(node.data);
}

std::vector<std::uint8_t> Copy(std::span<const std::uint8_t> data) {
  return std::vector<std::uint8_t>(data.begin(), data.end());
}

}  // namespace

Database::Database() : tree_(std::make_unique<DataTree>()) {}

StatusCode Database::Resolve(std::string_view path,
                             std::uint8_t dir_tag) const {
  PathComponents(path, components_);
  return ResolveChain(*tree_, components_, dir_tag, chain_);
}

std::string_view Database::CreatedPath(const OpView& op,
                                       const DataTree::Znode& node) {
  if (!IsSequential(op.mode)) return op.path;
  const std::string_view dir(op.path.data(), op.path.rfind('/') + 1);
  created_path_.assign(dir);
  created_path_.append(node.name);
  return created_path_;
}

OpResult Database::Read(const OpView& op) const {
  OpResult res;
  switch (op.type) {
    case OpType::kGetData: {
      auto node = tree_->Find(op.path);
      if (!node.ok()) {
        res.code = node.code();
        return res;
      }
      res.data = (*node)->data;
      res.stat = (*node)->stat;
      return res;
    }
    case OpType::kExists: {
      auto stat = tree_->Stat(op.path);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      res.stat = *stat;
      return res;
    }
    case OpType::kGetChildren: {
      auto children = tree_->GetChildren(op.path);
      if (!children.ok()) {
        res.code = children.code();
        return res;
      }
      res.children = std::move(*children);
      auto stat = tree_->Stat(op.path);
      if (stat.ok()) res.stat = *stat;
      return res;
    }
    case OpType::kSync:
      return res;  // ordering is handled by the server pipeline
    default:
      res.code = StatusCode::kInvalidArgument;
      return res;
  }
}

std::vector<std::uint8_t> Database::EncodeCompoundRead(
    const OpView& op) const {
  DUFS_CHECK(op.type == OpType::kResolvePath ||
             op.type == OpType::kReadDirPlus);
  return EncodeReply(op, ResolveRead(op));
}

Database::CompoundOutcome Database::ResolveRead(const OpView& op) const {
  CompoundOutcome o;
  if (auto st = ValidatePath(op.path); !st.ok()) {
    o.code = st.code();
    return o;
  }
  o.code = Resolve(op.path, op.dir_tag);
  // A partial resolution ships the whole existing prefix back, so the
  // client can seed positives for it.
  o.prefix = chain_.size();
  o.depth = static_cast<std::uint32_t>(chain_.size());
  if (o.code != StatusCode::kOk) return o;
  const std::size_t n = components_.size();
  // Terminal stat/data ride the ordinary fields; the prefix excludes it.
  o.prefix = n == 0 ? 0 : n - 1;
  o.terminal = n == 0 ? &tree_->root() : chain_.back();
  o.terminal_data = true;
  if (op.type == OpType::kReadDirPlus) {
    // The listed node itself must carry the directory tag when the guard
    // is on — listing a file is ENOTDIR, with the full prefix and the
    // terminal's stat/data still shipped for cache seeding.
    if (op.dir_tag != 0 && n != 0 &&
        (o.terminal->data.empty() || o.terminal->data[0] != op.dir_tag)) {
      o.code = StatusCode::kNotADirectory;
      return o;
    }
    o.listed = o.terminal;
  }
  return o;
}

OpResult Database::ApplyOne(const OpView& op, SessionId session, Zxid zxid,
                            std::int64_t now_ns,
                            std::vector<std::uint8_t>* reply,
                            std::vector<AppliedTxn::Trigger>& out) {
  OpResult res;
  switch (op.type) {
    case OpType::kCreate: {
      auto created = tree_->Create(op.path, Copy(op.data), op.mode,
                                   IsEphemeral(op.mode) ? session : 0, zxid,
                                   now_ns);
      if (!created.ok()) {
        res.code = created.code();
        return res;
      }
      res.created_path = std::move(*created);
      std::string_view path = op.path;
      if (IsSequential(op.mode)) path = created_path_.assign(res.created_path);
      out.push_back({WatchEventType::kNodeCreated, path});
      out.push_back({WatchEventType::kNodeChildrenChanged, ParentView(path)});
      return res;
    }
    case OpType::kDelete: {
      auto st = tree_->Delete(op.path, op.version, zxid);
      if (!st.ok()) {
        res.code = st.code();
        return res;
      }
      out.push_back({WatchEventType::kNodeDeleted, op.path});
      out.push_back({WatchEventType::kNodeChildrenChanged, ParentView(op.path)});
      return res;
    }
    case OpType::kSetData: {
      auto stat =
          tree_->SetData(op.path, Copy(op.data), op.version, zxid, now_ns);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      res.stat = *stat;
      out.push_back({WatchEventType::kNodeDataChanged, op.path});
      return res;
    }
    case OpType::kCheckVersion: {
      auto stat = tree_->Stat(op.path);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      if (op.version != kAnyVersion && stat->version != op.version) {
        res.code = StatusCode::kBadVersion;
      }
      return res;
    }
    case OpType::kResolveCreate:
    case OpType::kResolveDelete: {
      const CompoundOutcome outcome =
          op.type == OpType::kResolveCreate
              ? ResolveCreate(op, session, zxid, now_ns, out)
              : ResolveDelete(op, zxid, out);
      res.code = outcome.code;
      if (reply != nullptr) *reply = EncodeReply(op, outcome);
      return res;
    }
    default:
      res.code = StatusCode::kInvalidArgument;
      return res;
  }
}

// One walk: the chain the resolution builds is the parent the create goes
// under, so the mutation walks nothing further.
Database::CompoundOutcome Database::ResolveCreate(
    const OpView& op, SessionId session, Zxid zxid, std::int64_t now_ns,
    std::vector<AppliedTxn::Trigger>& out) {
  CompoundOutcome o;
  if (auto st = ValidatePath(op.path); !st.ok() || op.path == "/") {
    o.code = st.ok() ? StatusCode::kAlreadyExists : st.code();
    return o;
  }
  const StatusCode walk = Resolve(op.path, op.dir_tag);
  const std::size_t n = components_.size();
  // Every failure below ships the whole existing prefix back.
  o.prefix = chain_.size();
  o.depth = static_cast<std::uint32_t>(chain_.size());
  if (walk == StatusCode::kNotADirectory ||
      (walk == StatusCode::kNotFound && chain_.size() < n - 1)) {
    o.code = walk;  // broken ancestor chain — nothing to create
    return o;
  }
  if (walk == StatusCode::kOk && !IsSequential(op.mode)) {
    // The existing terminal is the client's freshest view of the node it
    // raced against: surface it via stat/data, not the prefix.
    o.code = StatusCode::kAlreadyExists;
    o.prefix = n - 1;
    o.terminal = chain_.back();
    o.terminal_data = true;
    return o;
  }
  const DataTree::Znode& parent = n == 1 ? tree_->root() : *chain_[n - 2];
  auto created = tree_->CreateChild(parent, components_.back(), Copy(op.data),
                                    op.mode,
                                    IsEphemeral(op.mode) ? session : 0, zxid,
                                    now_ns);
  if (!created.ok()) {
    o.code = created.code();
    return o;
  }
  // Chain pointers stay live across the mutation, and the parent's stat
  // was updated in place — the prefix the client seeds is post-create.
  o.prefix = n - 1;
  o.depth = static_cast<std::uint32_t>(n);
  o.terminal = *created;
  o.created = true;
  out.push_back({WatchEventType::kNodeCreated, CreatedPath(op, *o.terminal)});
  out.push_back({WatchEventType::kNodeChildrenChanged, ParentView(op.path)});
  return o;
}

Database::CompoundOutcome Database::ResolveDelete(
    const OpView& op, Zxid zxid, std::vector<AppliedTxn::Trigger>& out) {
  CompoundOutcome o;
  if (auto st = ValidatePath(op.path); !st.ok() || op.path == "/") {
    o.code = st.ok() ? StatusCode::kInvalidArgument : st.code();
    return o;
  }
  o.code = Resolve(op.path, op.dir_tag);
  if (o.code != StatusCode::kOk) {
    o.prefix = chain_.size();
    o.depth = static_cast<std::uint32_t>(chain_.size());
    return o;
  }
  const std::size_t n = components_.size();
  // The victim's pre-delete record (its fid) lets the client finish the
  // physical unlink; its stat serves version accounting.
  o.prefix = n - 1;
  o.depth = static_cast<std::uint32_t>(n);
  o.terminal = chain_.back();
  o.terminal_data = true;
  if (op.dir_tag != 0 && !o.terminal->data.empty() &&
      o.terminal->data[0] == op.dir_tag) {
    o.code = StatusCode::kIsADirectory;
    return o;
  }
  const DataTree::Znode& parent = n == 1 ? tree_->root() : *chain_[n - 2];
  auto removed =
      tree_->DeleteChild(parent, components_.back(), op.version, zxid);
  if (!removed.ok()) {
    o.code = removed.code();
    return o;
  }
  // Depth excludes the deleted terminal; the parent's in-place stat update
  // (cversion/num_children) is visible through the prefix.
  o.depth = static_cast<std::uint32_t>(n - 1);
  o.deleted = std::move(*removed);
  out.push_back({WatchEventType::kNodeDeleted, op.path});
  out.push_back({WatchEventType::kNodeChildrenChanged, ParentView(op.path)});
  return o;
}

// The reply a waiting client gets for a compound op, written in one pass
// into a buffer reserved at its exact size. For a write only the answering
// replica encodes it (DESIGN.md §13.2).
std::vector<std::uint8_t> Database::EncodeReply(
    const OpView& op, const CompoundOutcome& o) const {
  const std::span<const std::uint8_t> data =
      o.terminal_data ? std::span<const std::uint8_t>(o.terminal->data)
                      : std::span<const std::uint8_t>();
  std::string_view created_dir;
  std::string_view created_name;
  if (o.created) {
    created_dir = std::string_view(op.path.data(), op.path.rfind('/') + 1);
    created_name = o.terminal->name;
  }
  const std::size_t created_len = created_dir.size() + created_name.size();
  // ReadDirPlus entries go out in name order, whatever the table's slots.
  std::vector<const DataTree::Znode*>& entries = listing_;
  entries.clear();
  if (o.listed != nullptr) o.listed->children.SortedInto(entries);
  const std::size_t n_entries = entries.size();

  // code, created path, stat, data, children (0), depth, the prefix, the
  // entries and the multi results (0).
  std::size_t size = 1 + Writer::BlobSize(created_len) +
                     ZnodeStat::kEncodedSize + Writer::BlobSize(data.size()) +
                     1 + Writer::VarintSize(o.depth) +
                     Writer::VarintSize(o.prefix) +
                     Writer::VarintSize(n_entries) + 1;
  for (std::size_t i = 0; i < o.prefix; ++i) {
    size += NodeSize(chain_[i]->name, *chain_[i]);
  }
  for (const DataTree::Znode* child : entries) {
    size += NodeSize(child->name, *child);
  }

  wire::BufferWriter w;
  w.Reserve(size);
  w.WriteU8(static_cast<std::uint8_t>(o.code));
  w.WriteVarint(created_len);
  w.WriteRaw(created_dir.begin(), created_dir.end());
  w.WriteRaw(created_name.begin(), created_name.end());
  (o.terminal != nullptr ? o.terminal->stat : ZnodeStat{}).Encode(w);
  w.WriteVarint(data.size());
  w.WriteRaw(data.begin(), data.end());
  w.WriteVarint(0);  // children: a plain getChildren field
  w.WriteVarint(o.depth);
  w.WriteVarint(o.prefix);
  for (std::size_t i = 0; i < o.prefix; ++i) {
    WriteNode(w, chain_[i]->name, *chain_[i]);
  }
  w.WriteVarint(n_entries);
  for (const DataTree::Znode* child : entries) {
    WriteNode(w, child->name, *child);
  }
  w.WriteVarint(0);  // multi results
  DUFS_CHECK(w.size() == size);
  return w.Take();
}

void Database::ApplyMulti(const TxnView& txn, Zxid zxid,
                          std::int64_t now_ns) {
  AppliedTxn& applied = applied_;

  // Phase 1 — validate against the tree plus an overlay of the multi's own
  // effects, so the whole batch is atomic: either all ops apply or none do.
  struct Overlay {
    // Paths explicitly created (value true) or deleted (false) so far.
    std::map<std::string, bool, std::less<>> exists;
    std::map<std::string, std::int32_t, std::less<>> version_bump;
    std::map<std::string, int, std::less<>> child_delta;
  } ov;

  auto exists_now = [&](std::string_view path) -> bool {
    auto it = ov.exists.find(path);
    if (it != ov.exists.end()) return it->second;
    return tree_->Exists(path);
  };
  auto version_now = [&](std::string_view path) -> std::int32_t {
    auto stat = tree_->Stat(path);
    std::int32_t v = stat.ok() ? stat->version : 0;
    auto it = ov.version_bump.find(path);
    if (it != ov.version_bump.end()) v += it->second;
    return v;
  };
  auto children_now = [&](std::string_view path) -> int {
    auto stat = tree_->Stat(path);
    int n = stat.ok() ? stat->num_children : 0;
    auto it = ov.child_delta.find(path);
    if (it != ov.child_delta.end()) n += it->second;
    return n;
  };

  StatusCode failure = StatusCode::kOk;
  for (const OpView& op : txn.multi_ops) {
    StatusCode code = StatusCode::kOk;
    switch (op.type) {
      case OpType::kCreate: {
        if (IsSequential(op.mode)) {
          code = StatusCode::kInvalidArgument;  // unsupported inside multi
          break;
        }
        if (auto st = ValidatePath(op.path); !st.ok()) {
          code = st.code();
          break;
        }
        if (op.path == "/" || exists_now(op.path)) {
          code = StatusCode::kAlreadyExists;
          break;
        }
        const std::string parent = ParentPath(op.path);
        if (!exists_now(parent)) {
          code = StatusCode::kNotFound;
          break;
        }
        ov.exists[std::string(op.path)] = true;
        ++ov.child_delta[parent];
        break;
      }
      case OpType::kDelete: {
        if (auto st = ValidatePath(op.path); !st.ok() || op.path == "/") {
          code = st.ok() ? StatusCode::kInvalidArgument : st.code();
          break;
        }
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (children_now(op.path) > 0) {
          code = StatusCode::kNotEmpty;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        ov.exists[std::string(op.path)] = false;
        --ov.child_delta[ParentPath(op.path)];
        break;
      }
      case OpType::kSetData: {
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        ++ov.version_bump[std::string(op.path)];
        break;
      }
      case OpType::kCheckVersion: {
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        break;
      }
      default:
        code = StatusCode::kInvalidArgument;
    }
    OpResult r;
    r.code = code;
    applied.multi_results.push_back(std::move(r));
    if (code != StatusCode::kOk && failure == StatusCode::kOk) failure = code;
  }

  if (failure != StatusCode::kOk) {
    applied.result.code = failure;
    return;
  }

  // Phase 2 — apply for real; validation guarantees success.
  applied.multi_results.clear();
  for (const OpView& op : txn.multi_ops) {
    // Multi carries plain ops only, so there is no reply to encode.
    OpResult r = ApplyOne(op, txn.session, zxid, now_ns, /*reply=*/nullptr,
                          applied.triggers);
    DUFS_CHECK(r.ok());
    applied.multi_results.push_back(std::move(r));
  }
}

AppliedTxn& Database::Apply(const TxnView& txn, Zxid zxid,
                            std::int64_t now_ns, bool reply) {
  // Replicas must stamp identical times: prefer the leader-assigned stamp.
  if (txn.time != 0) now_ns = txn.time;
  DUFS_CHECK(zxid > last_applied_);
  last_applied_ = zxid;

  AppliedTxn& applied = applied_;
  applied.result = OpResult{};
  applied.multi_results.clear();
  applied.reply.clear();
  applied.triggers.clear();
  switch (txn.op.type) {
    case OpType::kMulti:
      ApplyMulti(txn, zxid, now_ns);
      break;
    case OpType::kSync:
      break;  // ordering no-op: forces the session server to catch up
    case OpType::kCreateSession:
      sessions_.insert(txn.session);
      break;
    case OpType::kCloseSession: {
      // Deterministic ephemeral cleanup on every replica. Ephemerals cannot
      // have children, so plain deletes always succeed.
      std::vector<std::string>& ephemerals = closed_ephemerals_;
      ephemerals = tree_->EphemeralsOf(txn.session);
      // Delete deepest-first so parents empty out before their own delete.
      std::sort(ephemerals.begin(), ephemerals.end(),
                [](const std::string& a, const std::string& b) {
                  return a.size() > b.size();
                });
      for (const std::string& path : ephemerals) {
        auto st = tree_->Delete(path, kAnyVersion, zxid);
        if (st.ok()) {
          applied.triggers.push_back({WatchEventType::kNodeDeleted, path});
          applied.triggers.push_back(
              {WatchEventType::kNodeChildrenChanged, ParentView(path)});
        }
      }
      sessions_.erase(txn.session);
      break;
    }
    default:
      applied.result =
          ApplyOne(txn.op, txn.session, zxid, now_ns,
                   reply ? &applied.reply : nullptr, applied.triggers);
  }
  return applied;
}

AppliedTxn& Database::Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                            bool reply) {
  txn_bytes_.Clear();
  txn.Encode(txn_bytes_);
  auto view = TxnView::Decode(txn_bytes_.data());
  DUFS_CHECK(view.ok());
  return Apply(*view, zxid, now_ns, reply);
}

std::vector<std::uint8_t> Database::Snapshot() const {
  wire::BufferWriter w;
  w.WriteI64(last_applied_);
  w.WriteVarint(sessions_.size());
  // Serialize session ids in sorted order — iterating the hash set directly
  // would make snapshot bytes depend on the process's hash salt.
  std::vector<SessionId> sessions(sessions_.begin(), sessions_.end());
  std::sort(sessions.begin(), sessions.end());
  for (SessionId s : sessions) w.WriteU64(s);
  tree_->Serialize(w);
  return w.Take();
}

Result<std::unique_ptr<Database>> Database::Restore(
    const std::vector<std::uint8_t>& snapshot) {
  wire::BufferReader r(snapshot);
  auto db = std::make_unique<Database>();
  auto last = r.ReadI64();
  DUFS_RETURN_IF_ERROR(last);
  db->last_applied_ = *last;
  auto n_sessions = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_sessions);
  for (std::uint64_t i = 0; i < *n_sessions; ++i) {
    auto s = r.ReadU64();
    DUFS_RETURN_IF_ERROR(s);
    db->sessions_.insert(*s);
  }
  auto tree = DataTree::Deserialize(r);
  DUFS_RETURN_IF_ERROR(tree);
  db->tree_ = std::move(*tree);
  return db;
}

std::uint64_t Database::Fingerprint() const {
  std::uint64_t h = tree_->Fingerprint();
  h ^= 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(last_applied_);
  return h;
}

std::size_t Database::EstimateMemoryBytes() const {
  return tree_->EstimateMemoryBytes() + sessions_.size() * 64;
}

}  // namespace dufs::zk
