#include "core/dufs_client.h"

#include <algorithm>
#include <span>

#include "sim/gather.h"

namespace dufs::core {

using vfs::FileAttr;
using vfs::FileType;

namespace {

StatusCode MapZkCode(StatusCode code) {
  // Znode-level codes map 1:1 onto filesystem codes.
  return code;
}

// Kind tag compound ops hand the server: MetaRecord::Encode writes the
// FileType as its first byte, so the server's interior-component guard
// (data[0] == kDirTag ? directory : ENOTDIR) needs no record schema.
constexpr std::uint8_t kDirTag =
    static_cast<std::uint8_t>(vfs::FileType::kDirectory);

// Interior-ENOTDIR normalization. The server's resolution walk is strict
// POSIX, but DUFS resolves znodes by *flat* full-path key (as does the
// MemFs oracle), so a path that walks through a file has always read as
// absent (ENOENT) — except a create whose immediate parent is the file,
// which the explicit parent check reported as ENOTDIR. Map the server's
// walk codes back onto those established semantics.
StatusCode MapCompoundCode(zk::OpType type, const zk::CompoundReply& reply,
                           std::size_t n_components) {
  if (reply.code() == StatusCode::kNotADirectory &&
      reply.resolved_depth() < n_components) {
    const bool parent_offender = reply.resolved_depth() + 1 == n_components;
    if (type != zk::OpType::kResolveCreate || !parent_offender) {
      return StatusCode::kNotFound;
    }
  }
  return MapZkCode(reply.code());
}

Result<MetaRecord> DecodeRecord(std::span<const std::uint8_t> data) {
  return MetaRecord::Decode(data.data(), data.size());
}

}  // namespace

// One client operation: a root trace span (the head of the client-op ->
// zk-rpc -> quorum-round -> fsync-batch chain) plus an end-to-end latency
// sample. Annotates the span with the number of metadata-cache hits the op
// enjoyed. Costs two dummy-cell reads when observability is not attached.
class OpScope {
 public:
  OpScope(DufsClient& client, obs::Timer timer, obs::Name name,
          const std::string& path)
      : client_(client),
        timer_(timer),
        name_(name),
        start_(client.zk_.sim().now()),
        hits_before_(client.c_cache_hits_.value()),
        prof_node_(client.obs_.prof_name, prof::FrameKind::kNode),
        span_(obs::Span::Root(client.obs_, name, "op")) {
    span_.ArgStr("path", path);
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() { Finish(); }

  // Re-arm the trace id after a resumption, before the next zk/backend call.
  void Arm() { span_.Arm(); }

  void Finish() {
    if (finished_) return;
    finished_ = true;
    const sim::Duration latency = client_.zk_.sim().now() - start_;
    timer_.Record(latency);
    if (client_.obs_.incidents != nullptr) {
      // `name_` is the op-class literal ("stat", "create", ...) — exactly
      // the canonical class names the incident engine registers.
      client_.obs_.incidents->RecordOp(name_.c_str(), client_.obs_.track,
                                       latency);
    }
    span_.ArgInt("cache_hits",
                 static_cast<std::int64_t>(client_.c_cache_hits_.value() -
                                           hits_before_));
    span_.End();
  }

 private:
  DufsClient& client_;
  obs::Timer timer_;
  obs::Name name_;
  sim::SimTime start_;
  std::uint64_t hits_before_;
  // Node frame below the op-class frame (the root span): `client0;create`.
  // Declared before span_ so the push order gives node -> op on the stack.
  prof::ProfScope prof_node_;
  obs::Span span_;
  bool finished_ = false;
};

void DufsClient::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  c_cache_hits_ = obs_.counter("cache.hits");
  c_cache_misses_ = obs_.counter("cache.misses");
  t_stat_ = obs_.timer("op.stat_ns");
  t_create_ = obs_.timer("op.create_ns");
  t_readdir_ = obs_.timer("op.readdir_ns");
  t_unlink_ = obs_.timer("op.unlink_ns");
  t_mkdir_ = obs_.timer("op.mkdir_ns");
  t_rename_ = obs_.timer("op.rename_ns");
}

DufsClient::DufsClient(zk::ZkClient& zk,
                       std::vector<vfs::FileSystem*> backends,
                       DufsConfig config)
    : zk_(zk),
      backends_(std::move(backends)),
      config_(std::move(config)),
      meta_cache_(zk.sim(), config_.meta_cache) {
  DUFS_CHECK(!backends_.empty());
  DUFS_CHECK(config_.lookup_fanout > 0);
  placement_ = MakePlacement(config_.placement, backends_.size());
  if (config_.enable_meta_cache) {
    // Every cache fill registers a one-shot data watch on its znode; the
    // notification (create/delete/dataChanged) drops the entry, so remote
    // mutations are observed within one notification delay.
    zk_.SetWatchHandler(
        [this](const zk::WatchEvent& ev) { meta_cache_.Invalidate(ev.path); });
  }
}

std::string DufsClient::ZnodePath(std::string_view virtual_path) const {
  if (virtual_path == "/" || virtual_path.empty()) return NsRoot();
  return NsRoot() + std::string(virtual_path);
}

Fid DufsClient::NextFid() {
  DUFS_CHECK(client_id_ != 0);
  return Fid{client_id_, ++fid_counter_};
}

vfs::FileSystem& DufsClient::BackendFor(const Fid& fid,
                                        std::uint32_t* index) {
  const std::uint32_t i = placement_->Place(fid);
  DUFS_CHECK(i < backends_.size());
  if (index != nullptr) *index = i;
  return *backends_[i];
}

sim::Task<Status> DufsClient::Mount() {
  if (!zk_.connected()) {
    auto st = co_await zk_.Connect();
    if (!st.ok()) co_return st;
  }
  // Metadata skeleton (idempotent).
  const std::string skeleton[] = {config_.meta_prefix,
                                  config_.meta_prefix + "/clients", NsRoot()};
  for (const std::string& path : skeleton) {
    auto created = co_await zk_.Create(path, MetaRecord::Dir(0755).Encode());
    if (!created.ok() && created.code() != StatusCode::kAlreadyExists) {
      co_return created.status();
    }
  }
  // Claim a unique instance id (paper §IV-E): a sequential znode under
  // <prefix>/clients; the sequence number + 1 becomes the 64-bit client id.
  auto claimed = co_await zk_.Create(config_.meta_prefix + "/clients/c-", {},
                                     zk::CreateMode::kPersistentSequential);
  if (!claimed.ok()) co_return claimed.status();
  const std::string& path = *claimed;
  const auto digits = path.substr(path.size() - 10);
  client_id_ = std::stoull(digits) + 1;
  fid_counter_ = 0;
  meta_cache_.Clear();
  (void)co_await LookupPath("/");  // warm the root dentry
  co_return Status::Ok();
}

sim::Task<Status> DufsClient::FormatBackends() {
  // Back-ends are independent: format them all concurrently (bounded by the
  // fan-out knob); within one back-end the skeleton stays level-ordered.
  auto format_one = [](DufsClient& self, std::uint32_t b) -> sim::Task<Status> {
    std::size_t ops = 0;
    for (const auto& dir : StaticPhysicalSkeleton()) {
      auto st = co_await self.backends_[b]->Mkdir(dir, 0755);
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) co_return st;
      // Yield through the event loop periodically: long chains of
      // synchronously-completing back-end ops (MemFs) must not rely on
      // symmetric-transfer tail calls, which unoptimized builds lack.
      if (++ops % 64 == 0) co_await self.zk_.sim().Delay(0);
    }
    co_return Status::Ok();
  };
  std::vector<sim::Task<Status>> tasks;
  tasks.reserve(backends_.size());
  for (std::uint32_t b = 0; b < backends_.size(); ++b) {
    tasks.push_back(format_one(*this, b));
  }
  auto statuses = co_await sim::WhenAll(std::move(tasks), config_.lookup_fanout);
  for (const auto& st : statuses) {
    if (!st.ok()) co_return st;
  }
  co_return Status::Ok();
}

sim::Task<Result<DufsClient::Lookup>> DufsClient::LookupPath(
    std::string virtual_path) {
  if (config_.compound_ops) return LookupCompound(std::move(virtual_path));
  return LookupWalk(std::move(virtual_path));
}

// The FUSE-faithful walk (--compound=off ablation): resolve dentry by
// dentry like the kernel VFS does against the paper's prototype — one
// full-path probe per component, so a cold depth-D lookup costs O(D) round
// trips. Warm lookups still collapse to cache hits component-by-component.
sim::Task<Result<DufsClient::Lookup>> DufsClient::LookupWalk(
    std::string virtual_path) {
  if (virtual_path.size() <= 1) {
    co_return co_await LookupSingle(std::move(virtual_path));
  }
  const auto components = zk::PathComponents(virtual_path);
  std::string walked;
  walked.reserve(virtual_path.size());
  for (std::size_t i = 0; i < components.size(); ++i) {
    walked.push_back('/');
    walked.append(components[i]);
    auto step = co_await LookupSingle(walked);
    if (!step.ok()) co_return step.status();
    if (i + 1 == components.size()) co_return std::move(*step);
    if (step->record.type != FileType::kDirectory) {
      // Interior file: the flat-key namespace reads this as absent (the
      // walked suffix cannot exist under a file), matching LookupSingle.
      co_return Status(StatusCode::kNotFound, virtual_path);
    }
  }
  co_return Status(StatusCode::kNotFound, virtual_path);  // unreachable
}

StatusCode DufsClient::SeedFromReply(zk::OpType type,
                                     const std::string& znode_path,
                                     const zk::CompoundReply& reply,
                                     std::vector<vfs::DirEntry>* listing,
                                     std::optional<MetaRecord>* terminal) {
  zk::PathComponents(znode_path, split_);
  const StatusCode code = MapCompoundCode(type, reply, split_.size());
  const bool seed = config_.enable_meta_cache;
  std::string& seeded = seed_path_;
  seeded.clear();
  if (seed) {
    for (const zk::CompoundReply::Node& node : reply.prefix()) {
      seeded.push_back('/');
      seeded.append(node.name);
      auto rec = DecodeRecord(node.data);
      if (rec.ok()) {
        meta_cache_.PutPositive(seeded, std::move(*rec), node.stat());
      }
    }
  }
  if (reply.resolved_depth() >= split_.size()) {
    // Fully resolved. The terminal's record rides stat/data (compound
    // writes that already know their record leave data empty and seed at
    // the call site instead).
    if (!reply.data().empty() && (seed || terminal != nullptr)) {
      auto rec = DecodeRecord(reply.data());
      if (rec.ok()) {
        if (terminal != nullptr) *terminal = *rec;
        if (seed) {
          meta_cache_.PutPositive(znode_path, std::move(*rec), reply.stat());
        }
      }
    }
  } else if (seed && (reply.code() == StatusCode::kOk ||
                      reply.code() == StatusCode::kNotFound)) {
    // Partial miss (or a delete that just removed the terminal): the first
    // missing component is *known* absent and the server holds a creation
    // watch on it — exactly what a coherent negative entry needs. Not on
    // kNotADirectory: components past the offender were never examined.
    seeded.push_back('/');
    seeded.append(split_[reply.resolved_depth()]);
    meta_cache_.PutNegative(seeded);
  }
  if (reply.entries().empty()) return code;
  // A listing: one positive entry per child, each path built in the same
  // buffer.
  seeded.assign(znode_path);
  seeded.push_back('/');
  const std::size_t dir_len = seeded.size();
  if (listing != nullptr) listing->reserve(reply.entries().size());
  for (const zk::CompoundReply::Node& entry : reply.entries()) {
    auto rec = DecodeRecord(entry.data);
    if (listing != nullptr) {
      listing->push_back({std::string(entry.name),
                          rec.ok() ? rec->type : FileType::kRegular});
    }
    if (rec.ok() && seed) {
      seeded.resize(dir_len);
      seeded.append(entry.name);
      meta_cache_.PutPositive(seeded, std::move(*rec), entry.stat());
    }
  }
  return code;
}

// The one-RPC fast path: full-path resolution runs server-side against the
// znode tree; hit or miss, the reply carries every component the walk
// touched and the cache is seeded from all of them (satellite: positives
// for the resolved prefix + a negative for the first missing component).
sim::Task<Result<DufsClient::Lookup>> DufsClient::LookupCompound(
    std::string virtual_path) {
  const std::string znode = ZnodePath(virtual_path);
  if (config_.enable_meta_cache) {
    if (const MetaCache::Entry* hit = meta_cache_.Lookup(znode)) {
      c_cache_hits_.Inc();
      if (obs_.incidents != nullptr) {
        obs_.incidents->RecordCacheProbe(obs_.track, /*hit=*/true);
      }
      if (hit->negative) co_return Status(StatusCode::kNotFound, virtual_path);
      Lookup out;
      out.record = hit->record;
      out.stat = hit->stat;
      co_return out;
    }
    c_cache_misses_.Inc();
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordCacheProbe(obs_.track, /*hit=*/false);
    }
  }
  auto res = co_await zk_.Resolve(znode, /*watch=*/config_.enable_meta_cache,
                                  kDirTag);
  if (!res.ok()) co_return Status(MapZkCode(res.code()), virtual_path);
  std::optional<MetaRecord> record;
  const StatusCode code = SeedFromReply(zk::OpType::kResolvePath, znode, *res,
                                        /*listing=*/nullptr, &record);
  if (code != StatusCode::kOk) co_return Status(code, virtual_path);
  if (!record.has_value()) co_return DecodeRecord(res->data()).status();
  Lookup out;
  out.record = std::move(*record);
  out.stat = res->stat();
  co_return out;
}

sim::Task<Result<DufsClient::Lookup>> DufsClient::LookupSingle(
    std::string virtual_path) {
  const std::string znode = ZnodePath(virtual_path);
  if (config_.enable_meta_cache) {
    if (const MetaCache::Entry* hit = meta_cache_.Lookup(znode)) {
      c_cache_hits_.Inc();
      if (obs_.incidents != nullptr) {
        obs_.incidents->RecordCacheProbe(obs_.track, /*hit=*/true);
      }
      if (hit->negative) co_return Status(StatusCode::kNotFound, virtual_path);
      Lookup out;
      out.record = hit->record;
      out.stat = hit->stat;
      co_return out;
    }
    c_cache_misses_.Inc();
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordCacheProbe(obs_.track, /*hit=*/false);
    }
  }
  // Cache miss: fetch with a one-shot watch so the filled entry is dropped
  // on any remote change. The watch is registered even when the node is
  // absent, which is what keeps negative entries coherent across a remote
  // create.
  auto got = co_await zk_.Get(znode, /*watch=*/config_.enable_meta_cache);
  if (!got.ok()) {
    if (config_.enable_meta_cache && got.code() == StatusCode::kNotFound) {
      meta_cache_.PutNegative(znode);
    }
    co_return Status(MapZkCode(got.code()), virtual_path);
  }
  auto record = MetaRecord::Decode(got->data);
  if (!record.ok()) co_return record.status();
  if (config_.enable_meta_cache) {
    meta_cache_.PutPositive(znode, *record, got->stat);
  }
  Lookup out;
  out.record = std::move(*record);
  out.stat = got->stat;
  co_return out;
}

void DufsClient::InvalidateAfterMutation(const std::string& virtual_path,
                                         bool subtree) {
  if (!config_.enable_meta_cache) return;
  if (subtree) {
    meta_cache_.InvalidateSubtree(ZnodePath(virtual_path));
  } else {
    meta_cache_.Invalidate(ZnodePath(virtual_path));
  }
  // The parent's attr changed too (child count, child-list version).
  meta_cache_.Invalidate(ZnodePath(vfs::DirName(virtual_path)));
}

sim::Task<Status> DufsClient::CheckParentIsDir(std::string virtual_path) {
  const std::string parent = vfs::DirName(virtual_path);
  auto lookup = co_await LookupPath(parent);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type != FileType::kDirectory) {
    co_return Status(StatusCode::kNotADirectory, parent);
  }
  co_return Status::Ok();
}

vfs::FileAttr DufsClient::AttrFromDir(const MetaRecord& record,
                                      const zk::ZnodeStat& stat) const {
  FileAttr attr;
  attr.type = FileType::kDirectory;
  attr.mode = record.mode;
  attr.size = 0;
  attr.inode = static_cast<std::uint64_t>(stat.czxid);
  attr.nlink = 2 + static_cast<std::uint32_t>(stat.num_children);
  attr.ctime = stat.ctime;
  attr.mtime = record.mtime_override.value_or(stat.mtime);
  attr.atime = record.atime_override.value_or(stat.mtime);
  return attr;
}

// Fig. 6 — stat(): directories are answered entirely from ZooKeeper; files
// redirect to the physical file for size/times.
sim::Task<Result<FileAttr>> DufsClient::GetAttr(std::string path) {
  OpScope op(*this, t_stat_, "stat", path);
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  const MetaRecord& record = lookup->record;

  if (record.type == FileType::kDirectory) {
    co_return AttrFromDir(record, lookup->stat);
  }
  if (record.type == FileType::kSymlink) {
    FileAttr attr;
    attr.type = FileType::kSymlink;
    attr.mode = record.mode;
    attr.size = record.symlink_target.size();
    attr.inode = static_cast<std::uint64_t>(lookup->stat.czxid);
    attr.ctime = attr.mtime = attr.atime = lookup->stat.ctime;
    co_return attr;
  }

  std::uint32_t backend = 0;
  auto& fs = BackendFor(record.fid, &backend);
  op.Arm();
  auto phys = co_await fs.GetAttr(PhysicalPathForFid(record.fid));
  if (!phys.ok()) {
    if (phys.code() == StatusCode::kNotFound) {
      co_return Status(StatusCode::kStale, "physical file missing: " + path);
    }
    co_return phys.status();
  }
  FileAttr attr = *phys;
  attr.type = FileType::kRegular;
  attr.mode = record.mode;
  attr.inode = FidHasher{}(record.fid);
  attr.ctime = lookup->stat.ctime;
  co_return attr;
}

// Fig. 5 — mkdir(): a single znode create; never touches a back-end.
sim::Task<Status> DufsClient::Mkdir(std::string path, vfs::Mode mode) {
  OpScope op(*this, t_mkdir_, "mkdir", path);
  if (auto st = vfs::ValidateVirtualPath(path); !st.ok()) co_return st;
  if (auto st = co_await CheckParentIsDir(path); !st.ok()) co_return st;
  op.Arm();
  auto created =
      co_await zk_.Create(ZnodePath(path), MetaRecord::Dir(mode).Encode());
  // Invalidate even on failure: kAlreadyExists refutes a cached negative.
  InvalidateAfterMutation(path);
  if (!created.ok()) co_return Status(MapZkCode(created.code()), path);
  co_return Status::Ok();
}

sim::Task<Status> DufsClient::Rmdir(std::string path) {
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type != FileType::kDirectory) {
    co_return Status(StatusCode::kNotADirectory, path);
  }
  auto st = co_await zk_.Delete(ZnodePath(path));
  InvalidateAfterMutation(path, /*subtree=*/true);
  if (!st.ok()) co_return Status(MapZkCode(st.code()), path);
  co_return Status::Ok();
}

sim::Task<Result<FileAttr>> DufsClient::Create(std::string path,
                                               vfs::Mode mode) {
  OpScope op(*this, t_create_, "create", path);
  if (auto st = vfs::ValidateVirtualPath(path); !st.ok()) co_return st;
  // Compound mode folds the parent check into the ResolveCreate itself
  // (missing ancestor -> ENOENT, file ancestor -> ENOTDIR, atomically).
  if (!config_.compound_ops) {
    if (auto st = co_await CheckParentIsDir(path); !st.ok()) co_return st;
  }

  // The format put every physical directory in place (paper §IV-G), so
  // the file's three parents exist and only the znode and the file are
  // created here.
  const Fid fid = NextFid();
  auto& fs = BackendFor(fid);
  const std::string znode = ZnodePath(path);
  op.Arm();
  if (config_.compound_ops) {
    auto res = co_await zk_.ResolveCreate(
        znode, MetaRecord::File(fid, mode).Encode(),
        zk::CreateMode::kPersistent, kDirTag,
        /*watch=*/config_.enable_meta_cache);
    if (!res.ok()) co_return Status(MapZkCode(res.code()), path);
    // Seed instead of invalidate: the reply's prefix carries the parent's
    // post-create stat, strictly fresher than what a re-fetch would see.
    const StatusCode code =
        SeedFromReply(zk::OpType::kResolveCreate, znode, *res);
    if (res->ok() && config_.enable_meta_cache) {
      // The reply does not echo the record the client just wrote; seed the
      // terminal from what we know plus the authoritative stat.
      meta_cache_.PutPositive(znode, MetaRecord::File(fid, mode), res->stat());
    }
    if (code != StatusCode::kOk) co_return Status(code, path);
  } else {
    auto created =
        co_await zk_.Create(znode, MetaRecord::File(fid, mode).Encode());
    InvalidateAfterMutation(path);
    if (!created.ok()) co_return Status(MapZkCode(created.code()), path);
  }
  op.Arm();
  auto phys = co_await fs.Create(PhysicalPathForFid(fid), mode);
  if (!phys.ok() && phys.code() != StatusCode::kAlreadyExists) {
    (void)co_await zk_.Delete(znode);  // roll back the znode
    InvalidateAfterMutation(path);
    co_return phys.status();
  }

  FileAttr attr;
  attr.type = FileType::kRegular;
  attr.mode = mode;
  attr.inode = FidHasher{}(fid);
  co_return attr;
}

sim::Task<Status> DufsClient::Unlink(std::string path) {
  OpScope op(*this, t_unlink_, "unlink", path);
  if (config_.compound_ops) {
    // Resolve + delete in one replicated txn: no lookup round trip and no
    // version race to retry — the server checks kind server-side (interior
    // file -> ENOTDIR, directory terminal -> EISDIR) and removes the znode
    // atomically. The reply carries the deleted record, which names the
    // physical file still to be unlinked.
    const std::string znode = ZnodePath(path);
    auto res = co_await zk_.ResolveDelete(znode, zk::kAnyVersion, kDirTag,
                                          /*watch=*/config_.enable_meta_cache);
    if (!res.ok()) co_return Status(MapZkCode(res.code()), path);
    const StatusCode code =
        SeedFromReply(zk::OpType::kResolveDelete, znode, *res);
    if (code != StatusCode::kOk) co_return Status(code, path);
    auto record = DecodeRecord(res->data());
    if (record.ok() && record->type == FileType::kRegular) {
      auto& fs = BackendFor(record->fid);
      op.Arm();
      auto phys = co_await fs.Unlink(PhysicalPathForFid(record->fid));
      if (!phys.ok() && phys.code() != StatusCode::kNotFound) co_return phys;
    }
    co_return Status::Ok();
  }
  for (int attempt = 0; attempt <= config_.race_retries; ++attempt) {
    op.Arm();
    auto lookup = co_await LookupPath(path);
    if (!lookup.ok()) co_return lookup.status();
    if (lookup->record.type == FileType::kDirectory) {
      co_return Status(StatusCode::kIsADirectory, path);
    }
    op.Arm();
    auto st = co_await zk_.Delete(ZnodePath(path), lookup->stat.version);
    InvalidateAfterMutation(path);
    if (st.code() == StatusCode::kBadVersion) {
      continue;  // stale version (possibly from cache); re-resolve and retry
    }
    if (!st.ok()) co_return Status(MapZkCode(st.code()), path);
    if (lookup->record.type == FileType::kRegular) {
      auto& fs = BackendFor(lookup->record.fid);
      op.Arm();
      auto phys = co_await fs.Unlink(PhysicalPathForFid(lookup->record.fid));
      if (!phys.ok() && phys.code() != StatusCode::kNotFound) co_return phys;
    }
    co_return Status::Ok();
  }
  co_return Status(StatusCode::kConflict, path);
}

sim::Task<Result<std::vector<vfs::DirEntry>>> DufsClient::ReadDir(
    std::string path) {
  OpScope op(*this, t_readdir_, "readdir", path);
  if (config_.compound_ops) {
    // readdir + per-entry stat in one reply: the K child-record probes the
    // fan-out below pays (even in parallel, ~1 RTT + K server reads) become
    // part of the single ReadDirPlus, and every entry seeds the cache so a
    // following stat storm over the listing is all hits.
    const std::string znode = ZnodePath(path);
    auto res = co_await zk_.ReadDirPlus(znode,
                                        /*watch=*/config_.enable_meta_cache,
                                        kDirTag);
    if (!res.ok()) co_return Status(MapZkCode(res.code()), path);
    std::vector<vfs::DirEntry> entries;
    const StatusCode code =
        SeedFromReply(zk::OpType::kReadDirPlus, znode, *res, &entries);
    if (code != StatusCode::kOk) co_return Status(code, path);
    co_return entries;
  }
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type != FileType::kDirectory) {
    co_return Status(StatusCode::kNotADirectory, path);
  }
  op.Arm();
  auto children = co_await zk_.GetChildren(ZnodePath(path));
  if (!children.ok()) co_return Status(MapZkCode(children.code()), path);
  // Child type requires its record; ZooKeeper returns names only. The FUSE
  // readdir contract only needs types opportunistically, so probe through
  // the (cheap, local-read) Get — all children concurrently, bounded by the
  // fan-out knob, so a K-entry listing costs ~1 RTT instead of K.
  auto child_type = [](DufsClient& self,
                       std::string child_path) -> sim::Task<FileType> {
    auto child = co_await self.LookupPath(std::move(child_path));
    co_return child.ok() ? child->record.type : FileType::kRegular;
  };
  std::vector<sim::Task<FileType>> probes;
  probes.reserve(children->size());
  for (const auto& name : *children) {
    probes.push_back(child_type(
        *this, path == "/" ? "/" + name : path + "/" + name));
  }
  op.Arm();
  auto types = co_await sim::WhenAll(std::move(probes), config_.lookup_fanout);
  std::vector<vfs::DirEntry> entries;
  entries.reserve(children->size());
  for (std::size_t i = 0; i < children->size(); ++i) {
    entries.push_back({std::move((*children)[i]), types[i]});
  }
  co_return entries;
}

sim::Task<Status> DufsClient::RenameSubtree(std::string from, std::string to,
                                            Lookup src) {
  // Destination semantics (POSIX): a directory may replace only an *empty*
  // directory; anything else is a type/occupancy error.
  std::optional<std::int32_t> replace_dst_version;
  auto dst = co_await LookupPath(to);
  if (dst.ok()) {
    if (dst->record.type != FileType::kDirectory) {
      co_return Status(StatusCode::kNotADirectory, to);
    }
    if (dst->stat.num_children > 0) {
      co_return Status(StatusCode::kNotEmpty, to);
    }
    replace_dst_version = dst->stat.version;
  } else if (dst.code() != StatusCode::kNotFound) {
    co_return dst.status();
  }

  // Collect the subtree breadth-first so creates are parent-before-child.
  // Each BFS level fans out: one parallel wave of GetChildren over the
  // level's directories, then one parallel wave of Gets over all their
  // children — subtree depth, not size, bounds the round-trip count.
  struct NodeCopy {
    std::string rel;  // "" for the root of the subtree
    std::vector<std::uint8_t> data;
    std::int32_t version;
  };
  std::vector<NodeCopy> nodes;
  nodes.push_back({"", src.record.Encode(), src.stat.version});
  std::vector<std::string> level{""};  // directory rels at the current depth
  while (!level.empty()) {
    std::vector<sim::Task<Result<std::vector<std::string>>>> list_tasks;
    list_tasks.reserve(level.size());
    for (const auto& rel : level) {
      list_tasks.push_back(zk_.GetChildren(ZnodePath(from + rel)));
    }
    auto lists =
        co_await sim::WhenAll(std::move(list_tasks), config_.lookup_fanout);
    std::vector<std::string> child_rels;
    for (std::size_t d = 0; d < level.size(); ++d) {
      if (!lists[d].ok()) {
        co_return Status(MapZkCode(lists[d].code()), from + level[d]);
      }
      for (const auto& name : *lists[d]) {
        child_rels.push_back(level[d] + "/" + name);
      }
    }
    if (nodes.size() + child_rels.size() > config_.dir_rename_limit) {
      co_return Status(StatusCode::kCrossDevice,
                       "directory rename exceeds atomic-move limit");
    }
    std::vector<sim::Task<Result<zk::OpResult>>> get_tasks;
    get_tasks.reserve(child_rels.size());
    for (const auto& rel : child_rels) {
      get_tasks.push_back(zk_.Get(ZnodePath(from + rel)));
    }
    auto gets =
        co_await sim::WhenAll(std::move(get_tasks), config_.lookup_fanout);
    level.clear();
    for (std::size_t i = 0; i < child_rels.size(); ++i) {
      if (!gets[i].ok()) co_return Status(StatusCode::kConflict, from);
      nodes.push_back({child_rels[i], gets[i]->data, gets[i]->stat.version});
      auto rec = MetaRecord::Decode(gets[i]->data);
      if (rec.ok() && rec->type == FileType::kDirectory) {
        level.push_back(child_rels[i]);
      }
    }
  }

  std::vector<zk::Op> ops;
  ops.reserve(nodes.size() * 3 + 1);
  for (const auto& n : nodes) {
    ops.push_back(zk::Op::CheckVersion(ZnodePath(from + n.rel), n.version));
  }
  if (replace_dst_version.has_value()) {
    ops.push_back(zk::Op::Delete(ZnodePath(to), *replace_dst_version));
  }
  for (const auto& n : nodes) {
    ops.push_back(zk::Op::Create(ZnodePath(to + n.rel), n.data));
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    ops.push_back(zk::Op::Delete(ZnodePath(from + it->rel), it->version));
  }
  auto multi = co_await zk_.Multi(std::move(ops));
  // Invalidate both subtrees regardless of outcome: a failed multi means a
  // competing mutation, so cached copies under either root are suspect.
  InvalidateAfterMutation(from, /*subtree=*/true);
  InvalidateAfterMutation(to, /*subtree=*/true);
  if (!multi.ok()) co_return Status(MapZkCode(multi.code()), from);
  co_return Status::Ok();
}

// Rename: the indirection through FIDs means no physical data moves — only
// znodes change (§IV-A). Files move atomically via a ZooKeeper multi.
sim::Task<Status> DufsClient::Rename(std::string from, std::string to) {
  OpScope op(*this, t_rename_, "rename", from);
  for (int attempt = 0; attempt <= config_.race_retries; ++attempt) {
    op.Arm();
    auto src = co_await LookupPath(from);
    if (!src.ok()) co_return src.status();
    if (from == to) co_return Status::Ok();  // POSIX no-op
    if (vfs::IsWithin(from, to)) {
      co_return Status(StatusCode::kInvalidArgument,
                       "rename into own subtree");
    }
    if (auto st = co_await CheckParentIsDir(to); !st.ok()) co_return st;

    if (src->record.type == FileType::kDirectory) {
      auto st = co_await RenameSubtree(from, to, *src);
      if (st.code() == StatusCode::kConflict ||
          st.code() == StatusCode::kBadVersion ||
          st.code() == StatusCode::kAlreadyExists) {
        continue;  // lost a race (or served a stale cached dst); retry fresh
      }
      co_return st;
    }

    // File / symlink: check src version, replace dst if it is a file,
    // create dst, delete src — one atomic multi.
    std::vector<zk::Op> ops;
    ops.push_back(zk::Op::CheckVersion(ZnodePath(from), src->stat.version));
    Fid replaced_fid;
    auto dst = co_await LookupPath(to);
    if (dst.ok()) {
      if (dst->record.type == FileType::kDirectory) {
        co_return Status(StatusCode::kIsADirectory, to);
      }
      replaced_fid = dst->record.fid;
      ops.push_back(zk::Op::Delete(ZnodePath(to), dst->stat.version));
    } else if (dst.code() != StatusCode::kNotFound) {
      co_return dst.status();
    }
    ops.push_back(zk::Op::Create(ZnodePath(to), src->record.Encode()));
    ops.push_back(zk::Op::Delete(ZnodePath(from), src->stat.version));

    auto multi = co_await zk_.Multi(std::move(ops));
    InvalidateAfterMutation(from);
    InvalidateAfterMutation(to);
    if (multi.ok()) {
      if (!replaced_fid.IsNull()) {
        auto& fs = BackendFor(replaced_fid);
        (void)co_await fs.Unlink(PhysicalPathForFid(replaced_fid));
      }
      co_return Status::Ok();
    }
    if (multi.code() == StatusCode::kBadVersion ||
        multi.code() == StatusCode::kAlreadyExists ||
        multi.code() == StatusCode::kNotFound) {
      continue;  // lost a race; re-resolve (cache dropped above) and retry
    }
    co_return Status(MapZkCode(multi.code()), from);
  }
  co_return Status(StatusCode::kConflict, from);
}

sim::Task<Status> DufsClient::Chmod(std::string path, vfs::Mode mode) {
  for (int attempt = 0; attempt <= config_.race_retries; ++attempt) {
    auto lookup = co_await LookupPath(path);
    if (!lookup.ok()) co_return lookup.status();
    MetaRecord record = lookup->record;
    record.mode = mode;
    auto st = co_await zk_.Set(ZnodePath(path), record.Encode(),
                               lookup->stat.version);
    if (config_.enable_meta_cache) meta_cache_.Invalidate(ZnodePath(path));
    if (st.ok()) co_return Status::Ok();
    if (st.code() != StatusCode::kBadVersion) {
      co_return Status(MapZkCode(st.code()), path);
    }
  }
  co_return Status(StatusCode::kConflict, path);
}

sim::Task<Status> DufsClient::Utimens(std::string path, std::int64_t atime,
                                      std::int64_t mtime) {
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type == FileType::kRegular) {
    // Times live with the physical file and update transparently (§IV-D).
    auto& fs = BackendFor(lookup->record.fid);
    co_return co_await fs.Utimens(PhysicalPathForFid(lookup->record.fid),
                                  atime, mtime);
  }
  MetaRecord record = lookup->record;
  record.atime_override = atime;
  record.mtime_override = mtime;
  auto st = co_await zk_.Set(ZnodePath(path), record.Encode(),
                             lookup->stat.version);
  if (config_.enable_meta_cache) meta_cache_.Invalidate(ZnodePath(path));
  if (!st.ok()) co_return Status(MapZkCode(st.code()), path);
  co_return Status::Ok();
}

sim::Task<Status> DufsClient::Truncate(std::string path, std::uint64_t size) {
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type != FileType::kRegular) {
    co_return Status(StatusCode::kIsADirectory, path);
  }
  auto& fs = BackendFor(lookup->record.fid);
  co_return co_await fs.Truncate(PhysicalPathForFid(lookup->record.fid),
                                 size);
}

sim::Task<Status> DufsClient::Symlink(std::string target,
                                      std::string link_path) {
  if (auto st = vfs::ValidateVirtualPath(link_path); !st.ok()) co_return st;
  if (auto st = co_await CheckParentIsDir(link_path); !st.ok()) co_return st;
  auto created = co_await zk_.Create(
      ZnodePath(link_path), MetaRecord::Symlink(std::move(target)).Encode());
  InvalidateAfterMutation(link_path);
  if (!created.ok()) co_return Status(MapZkCode(created.code()), link_path);
  co_return Status::Ok();
}

sim::Task<Result<std::string>> DufsClient::ReadLink(std::string path) {
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type != FileType::kSymlink) {
    co_return Status(StatusCode::kInvalidArgument, "not a symlink");
  }
  co_return lookup->record.symlink_target;
}

sim::Task<Status> DufsClient::Access(std::string path, vfs::Mode mode) {
  auto attr = co_await GetAttr(std::move(path));
  if (!attr.ok()) co_return attr.status();
  const vfs::Mode perms = attr->mode;
  const vfs::Mode have = (perms | (perms >> 3) | (perms >> 6)) & 07;
  if ((mode & have) != mode) co_return Status(StatusCode::kPermissionDenied);
  co_return Status::Ok();
}

// Fig. 3 — open(): ZooKeeper lookup (B), deterministic mapping (C), then
// the physical open on the back-end (D).
sim::Task<Result<vfs::FileHandle>> DufsClient::Open(std::string path,
                                                    std::uint32_t flags) {
  auto lookup = co_await LookupPath(path);
  if (!lookup.ok() && lookup.code() == StatusCode::kNotFound &&
      (flags & vfs::kCreate)) {
    auto created = co_await Create(path, vfs::kDefaultFileMode);
    if (!created.ok() && created.code() != StatusCode::kAlreadyExists) {
      co_return created.status();
    }
    lookup = co_await LookupPath(path);
  }
  if (!lookup.ok()) co_return lookup.status();
  if (lookup->record.type == FileType::kDirectory) {
    co_return Status(StatusCode::kIsADirectory, path);
  }
  if (lookup->record.type == FileType::kSymlink) {
    co_return Status(StatusCode::kInvalidArgument, "open through symlink");
  }
  std::uint32_t backend = 0;
  auto& fs = BackendFor(lookup->record.fid, &backend);
  auto handle = co_await fs.Open(PhysicalPathForFid(lookup->record.fid),
                                 flags & ~vfs::kCreate);
  if (!handle.ok()) co_return handle.status();
  const vfs::FileHandle fd = next_handle_++;
  open_files_.emplace(fd, OpenState{backend, *handle});
  co_return fd;
}

sim::Task<Status> DufsClient::Release(vfs::FileHandle handle) {
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  const OpenState state = it->second;
  open_files_.erase(it);
  co_return co_await backends_[state.backend]->Release(state.backend_handle);
}

sim::Task<Result<vfs::Bytes>> DufsClient::Read(vfs::FileHandle handle,
                                               std::uint64_t offset,
                                               std::uint64_t length) {
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  co_return co_await backends_[it->second.backend]->Read(
      it->second.backend_handle, offset, length);
}

sim::Task<Result<std::uint64_t>> DufsClient::Write(vfs::FileHandle handle,
                                                   std::uint64_t offset,
                                                   vfs::Bytes data) {
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  co_return co_await backends_[it->second.backend]->Write(
      it->second.backend_handle, offset, std::move(data));
}

sim::Task<Result<vfs::FsStats>> DufsClient::StatFs() {
  std::vector<sim::Task<Result<vfs::FsStats>>> tasks;
  tasks.reserve(backends_.size());
  for (auto* backend : backends_) tasks.push_back(backend->StatFs());
  auto all = co_await sim::WhenAll(std::move(tasks), config_.lookup_fanout);
  vfs::FsStats total;
  for (const auto& stats : all) {
    if (!stats.ok()) co_return stats.status();
    total.total_bytes += stats->total_bytes;
    total.free_bytes += stats->free_bytes;
    total.files += stats->files;
  }
  co_return total;
}

std::size_t DufsClient::EstimateMemoryBytes() const {
  constexpr std::size_t kFixed = 3 * 1024 * 1024;  // process + FUSE channel
  return kFixed + meta_cache_.EstimateMemoryBytes() +
         open_files_.size() * 48;
}

}  // namespace dufs::core
