#include "pfs/lustre.h"

#include <algorithm>

#include "pfs/codec.h"

namespace dufs::pfs {

using vfs::BaseName;
using vfs::DirView;
using vfs::FileAttr;
using vfs::FileType;

namespace {

void EncodeObjectRef(wire::BufferWriter& w, const ObjectRef& ref) {
  w.WriteU32(ref.oss_index);
  w.WriteU64(ref.object_id);
}

Result<ObjectRef> DecodeObjectRef(wire::BufferReader& r) {
  ObjectRef ref;
  auto oss = r.ReadU32();
  DUFS_RETURN_IF_ERROR(oss);
  ref.oss_index = *oss;
  auto id = r.ReadU64();
  DUFS_RETURN_IF_ERROR(id);
  ref.object_id = *id;
  return ref;
}

net::Payload ErrorReply(StatusCode code) {
  wire::BufferWriter w;
  EncodeCode(w, code);
  return w.Take();
}

}  // namespace

// =========================================================== LustreMds ====

LustreMds::LustreMds(net::RpcEndpoint& endpoint,
                     std::vector<net::NodeId> oss_nodes, LustrePerfModel perf)
    : endpoint_(endpoint),
      oss_nodes_(std::move(oss_nodes)),
      perf_(perf),
      root_(std::make_unique<Inode>()),
      read_pool_(endpoint.sim(), perf.read_threads),
      mutation_pipeline_(endpoint.sim(), 1) {
  root_->attr.type = FileType::kDirectory;
  root_->attr.mode = vfs::kDefaultDirMode;
  root_->attr.inode = 1;
  root_->attr.nlink = 2;
}

void LustreMds::Start() {
  journal_mb_ =
      std::make_unique<sim::Mailbox<JournalEntry>>(endpoint_.sim());
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(JournalLoop());

  for (std::uint16_t m = lustre_method::kGetAttr;
       m <= lustre_method::kStatFs; ++m) {
    // Handler closures are stored in the endpoint's handler map, which this
    // MDS owns for its whole lifetime — `this` outlives every invocation.
    endpoint_.RegisterHandler(
        m, [this, m](net::NodeId from,
                     net::Payload req) -> sim::Task<net::RpcResult> {
          ++inflight_;
          ++ops_served_;
          auto result = co_await Handle(m, from, std::move(req));
          --inflight_;
          co_return result;
        });
  }
}

LustreMds::Inode* LustreMds::Lookup(std::string_view path) {
  // Walks the components as views of `path`, skipping empty ones (repeated
  // slashes) as vfs::SplitPath does.
  Inode* cur = root_.get();
  std::size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    if (cur->attr.type != FileType::kDirectory) return nullptr;
    auto it = cur->children.find(path.substr(start, end - start));
    if (it == cur->children.end()) return nullptr;
    cur = it->second.get();
    start = end;
  }
  return cur;
}

Result<LustreMds::Inode*> LustreMds::ParentOf(std::string_view path) {
  if (path == "/" || path.empty()) {
    return Status(StatusCode::kInvalidArgument);
  }
  Inode* parent = Lookup(DirView(path));
  if (parent == nullptr) return Status(StatusCode::kNotFound);
  if (parent->attr.type != FileType::kDirectory) {
    return Status(StatusCode::kNotADirectory);
  }
  return parent;
}

FileAttr LustreMds::NewAttr(FileType type, vfs::Mode mode) {
  FileAttr attr;
  attr.type = type;
  attr.mode = mode;
  attr.inode = next_inode_++;
  attr.nlink = type == FileType::kDirectory ? 2 : 1;
  attr.ctime = attr.mtime = attr.atime = endpoint_.sim().now();
  return attr;
}

sim::Simulation::DelayAwaiter LustreMds::ReadWork(sim::Duration base) {
  const sim::Duration dlm =
      static_cast<sim::Duration>(inflight_) * perf_.dlm_cpu_per_inflight;
  return read_pool_.Serve(base + dlm);
}

sim::Task<void> LustreMds::MutationWork(sim::Duration base) {
  const sim::Duration dlm =
      static_cast<sim::Duration>(inflight_) * perf_.dlm_cpu_per_inflight;
  co_await mutation_pipeline_.Serve(base + dlm);
  // Journal commit (group commit batches concurrent mutations). The entry
  // carries this coroutine itself, so no completion state is allocated.
  struct Enqueue {
    LustreMds* self;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      self->journal_mb_->Send(JournalEntry(256, sim::CaptureSuspended(h)));
    }
    void await_resume() const noexcept {}
  };
  co_await Enqueue{this};
}

sim::Task<void> LustreMds::JournalLoop() {
  for (;;) {
    auto first = co_await journal_mb_->Recv();
    if (!first.has_value()) co_return;
    std::vector<JournalEntry>& batch = journal_batch_;
    batch.push_back(std::move(*first));
    while (journal_mb_->size() > 0 && batch.size() < perf_.max_journal_batch) {
      auto more = co_await journal_mb_->Recv();
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    std::size_t total = 0;
    for (const auto& e : batch) total += e.bytes;
    co_await endpoint_.node().DiskWrite(total);
    for (auto& e : batch) {
      endpoint_.sim().ScheduleHandle(
          0, std::exchange(e.waiter, sim::SuspendedHandle{}));
    }
    batch.clear();
  }
}

sim::Task<net::RpcResult> LustreMds::Handle(std::uint16_t method,
                                            net::NodeId /*from*/,
                                            net::Payload req) {
  namespace m = lustre_method;
  wire::BufferReader r(req);
  wire::BufferWriter w;

  switch (method) {
    case m::kGetAttr: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      co_await ReadWork(perf_.read_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      EncodeCode(w, StatusCode::kOk);
      EncodeAttr(w, node->attr);
      EncodeObjectRef(w, node->object);
      co_return w.Take();
    }
    case m::kMkdir: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      auto mode = r.ReadU32();
      if (!mode.ok()) co_return mode.status();
      co_await MutationWork(perf_.mkdir_cpu);
      auto parent = ParentOf(*path);
      if (!parent.ok()) co_return ErrorReply(parent.code());
      const std::string_view child = BaseName(*path);
      if ((*parent)->children.contains(child)) {
        co_return ErrorReply(StatusCode::kAlreadyExists);
      }
      auto node = std::make_unique<Inode>();
      node->attr = NewAttr(FileType::kDirectory, *mode);
      (*parent)->children.emplace(std::string(child), std::move(node));
      ++(*parent)->attr.nlink;
      (*parent)->attr.mtime = endpoint_.sim().now();
      ++node_count_;
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kRmdir: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      co_await MutationWork(perf_.unlink_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      if (node->attr.type != FileType::kDirectory) {
        co_return ErrorReply(StatusCode::kNotADirectory);
      }
      if (!node->children.empty()) {
        co_return ErrorReply(StatusCode::kNotEmpty);
      }
      auto parent = ParentOf(*path);
      if (!parent.ok()) co_return ErrorReply(parent.code());
      auto& siblings = (*parent)->children;
      siblings.erase(siblings.find(BaseName(*path)));
      --(*parent)->attr.nlink;
      --node_count_;
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kCreate: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      auto mode = r.ReadU32();
      if (!mode.ok()) co_return mode.status();
      co_await MutationWork(perf_.create_cpu);
      auto parent = ParentOf(*path);
      if (!parent.ok()) co_return ErrorReply(parent.code());
      const std::string_view child = BaseName(*path);
      if ((*parent)->children.contains(child)) {
        co_return ErrorReply(StatusCode::kAlreadyExists);
      }
      auto node = std::make_unique<Inode>();
      node->attr = NewAttr(FileType::kRegular, *mode);
      // Lustre pre-creates objects on OSTs; assignment is cheap here.
      node->object.oss_index = next_oss_;
      next_oss_ = (next_oss_ + 1) % static_cast<std::uint32_t>(
                                        std::max<std::size_t>(
                                            oss_nodes_.size(), 1));
      node->object.object_id = next_object_++;
      const FileAttr attr = node->attr;
      const ObjectRef ref = node->object;
      (*parent)->children.emplace(std::string(child), std::move(node));
      (*parent)->attr.mtime = endpoint_.sim().now();
      ++node_count_;
      EncodeCode(w, StatusCode::kOk);
      EncodeAttr(w, attr);
      EncodeObjectRef(w, ref);
      co_return w.Take();
    }
    case m::kUnlink: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      co_await MutationWork(perf_.unlink_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      if (node->attr.type == FileType::kDirectory) {
        co_return ErrorReply(StatusCode::kIsADirectory);
      }
      const ObjectRef ref = node->object;
      auto parent = ParentOf(*path);
      if (!parent.ok()) co_return ErrorReply(parent.code());
      auto& siblings = (*parent)->children;
      siblings.erase(siblings.find(BaseName(*path)));
      --node_count_;
      EncodeCode(w, StatusCode::kOk);
      EncodeObjectRef(w, ref);
      co_return w.Take();
    }
    case m::kReadDir: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      co_await ReadWork(perf_.read_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      if (node->attr.type != FileType::kDirectory) {
        co_return ErrorReply(StatusCode::kNotADirectory);
      }
      EncodeCode(w, StatusCode::kOk);
      w.WriteVarint(node->children.size());
      for (const auto& [name, child] : node->children) {
        w.WriteString(name);
        w.WriteU8(static_cast<std::uint8_t>(child->attr.type));
      }
      co_return w.Take();
    }
    // Rename and SetAttr keep their parsed fields in frames of their own:
    // every local of this switch lives in one coroutine frame, and with
    // them in it the frame outgrows the arena's 2 KiB class.
    case m::kRename:
      co_return co_await HandleRename(std::move(req));
    case m::kSetAttr:
      co_return co_await HandleSetAttr(std::move(req));
    case m::kOpen: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      auto flags = r.ReadU32();
      if (!flags.ok()) co_return flags.status();
      co_await ReadWork(perf_.read_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr && (*flags & vfs::kCreate)) {
        // Re-enter via the create path.
        wire::BufferWriter cw;
        cw.WriteString(*path);
        cw.WriteU32(vfs::kDefaultFileMode);
        auto created =
            co_await Handle(m::kCreate, endpoint_.self(), cw.Take());
        if (!created.ok()) co_return created.status();
        node = Lookup(*path);
      }
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      if (node->attr.type == FileType::kDirectory) {
        co_return ErrorReply(StatusCode::kIsADirectory);
      }
      EncodeCode(w, StatusCode::kOk);
      EncodeObjectRef(w, node->object);
      w.WriteBool((*flags & vfs::kTruncate) != 0);
      co_return w.Take();
    }
    case m::kSymlink: {
      auto target = r.ReadString();
      if (!target.ok()) co_return target.status();
      auto link = r.ReadString();
      if (!link.ok()) co_return link.status();
      co_await MutationWork(perf_.create_cpu);
      auto parent = ParentOf(*link);
      if (!parent.ok()) co_return ErrorReply(parent.code());
      const std::string_view child = BaseName(*link);
      if ((*parent)->children.contains(child)) {
        co_return ErrorReply(StatusCode::kAlreadyExists);
      }
      auto node = std::make_unique<Inode>();
      node->attr = NewAttr(FileType::kSymlink, 0777);
      node->symlink_target = std::move(*target);
      (*parent)->children.emplace(std::string(child), std::move(node));
      ++node_count_;
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kReadLink: {
      auto path = r.ReadString();
      if (!path.ok()) co_return path.status();
      co_await ReadWork(perf_.read_cpu);
      Inode* node = Lookup(*path);
      if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
      if (node->attr.type != FileType::kSymlink) {
        co_return ErrorReply(StatusCode::kInvalidArgument);
      }
      EncodeCode(w, StatusCode::kOk);
      w.WriteString(node->symlink_target);
      co_return w.Take();
    }
    case m::kStatFs: {
      co_await ReadWork(perf_.read_cpu);
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(1ull << 42);
      w.WriteU64(1ull << 41);
      w.WriteU64(node_count_ - 1);
      co_return w.Take();
    }
    default:
      co_return ErrorReply(StatusCode::kUnimplemented);
  }
}

sim::Task<net::RpcResult> LustreMds::HandleRename(net::Payload req) {
  wire::BufferReader r(req);
  auto from_path = r.ReadString();
  if (!from_path.ok()) co_return from_path.status();
  auto to_path = r.ReadString();
  if (!to_path.ok()) co_return to_path.status();
  co_await MutationWork(perf_.rename_cpu);
  Inode* node = Lookup(*from_path);
  if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
  // Onto itself: nothing moves (the target lookup below would find the
  // source and unlink it).
  if (*from_path == *to_path) co_return ErrorReply(StatusCode::kOk);
  if (vfs::IsWithin(*from_path, *to_path)) {
    co_return ErrorReply(StatusCode::kInvalidArgument);
  }
  auto to_parent = ParentOf(*to_path);
  if (!to_parent.ok()) co_return ErrorReply(to_parent.code());
  if (Inode* existing = Lookup(*to_path)) {
    const bool dir = existing->attr.type == FileType::kDirectory;
    if (dir && !existing->children.empty()) {
      co_return ErrorReply(StatusCode::kNotEmpty);
    }
    if (dir != (node->attr.type == FileType::kDirectory)) {
      co_return ErrorReply(dir ? StatusCode::kIsADirectory
                               : StatusCode::kNotADirectory);
    }
    auto& targets = (*to_parent)->children;
    targets.erase(targets.find(BaseName(*to_path)));
    --node_count_;
  }
  auto from_parent = ParentOf(*from_path);
  if (!from_parent.ok()) co_return ErrorReply(from_parent.code());
  auto& sources = (*from_parent)->children;
  const auto source = sources.find(BaseName(*from_path));
  if (source == sources.end()) co_return ErrorReply(StatusCode::kNotFound);
  auto moved = std::move(source->second);
  sources.erase(source);
  (*to_parent)->children.emplace(std::string(BaseName(*to_path)),
                                 std::move(moved));
  co_return ErrorReply(StatusCode::kOk);
}

sim::Task<net::RpcResult> LustreMds::HandleSetAttr(net::Payload req) {
  wire::BufferReader r(req);
  auto path = r.ReadString();
  if (!path.ok()) co_return path.status();
  auto has_mode = r.ReadBool();
  if (!has_mode.ok()) co_return has_mode.status();
  auto mode = r.ReadU32();
  if (!mode.ok()) co_return mode.status();
  auto has_times = r.ReadBool();
  if (!has_times.ok()) co_return has_times.status();
  auto atime = r.ReadI64();
  if (!atime.ok()) co_return atime.status();
  auto mtime = r.ReadI64();
  if (!mtime.ok()) co_return mtime.status();
  co_await MutationWork(perf_.setattr_cpu);
  Inode* node = Lookup(*path);
  if (node == nullptr) co_return ErrorReply(StatusCode::kNotFound);
  if (*has_mode) node->attr.mode = *mode;
  if (*has_times) {
    node->attr.atime = *atime;
    node->attr.mtime = *mtime;
  }
  node->attr.ctime = endpoint_.sim().now();
  co_return ErrorReply(StatusCode::kOk);
}

// =========================================================== LustreOss ====

LustreOss::LustreOss(net::RpcEndpoint& endpoint, LustrePerfModel perf)
    : endpoint_(endpoint), perf_(perf) {}

void LustreOss::Start() {
  for (std::uint16_t m = lustre_method::kObjRead;
       m <= lustre_method::kObjDestroy; ++m) {
    // Stored in the endpoint's handler map; `this` outlives every call.
    endpoint_.RegisterHandler(
        m, [this, m](net::NodeId,
                     net::Payload req) -> sim::Task<net::RpcResult> {
          co_return co_await Handle(m, std::move(req));
        });
  }
}

sim::Task<net::RpcResult> LustreOss::Handle(std::uint16_t method,
                                            net::Payload req) {
  namespace m = lustre_method;
  wire::BufferReader r(req);
  wire::BufferWriter w;
  co_await endpoint_.node().Compute(perf_.oss_op_cpu);

  auto object_id = r.ReadU64();
  if (!object_id.ok()) co_return object_id.status();

  switch (method) {
    case m::kObjRead: {
      auto offset = r.ReadU64();
      if (!offset.ok()) co_return offset.status();
      auto length = r.ReadU64();
      if (!length.ok()) co_return length.status();
      auto& data = objects_[*object_id];  // objects exist lazily
      EncodeCode(w, StatusCode::kOk);
      if (*offset >= data.size()) {
        w.WriteBytes({});
      } else {
        const auto end =
            std::min<std::uint64_t>(*offset + *length, data.size());
        w.WriteBytes(vfs::Bytes(
            data.begin() + static_cast<std::ptrdiff_t>(*offset),
            data.begin() + static_cast<std::ptrdiff_t>(end)));
      }
      co_return w.Take();
    }
    case m::kObjWrite: {
      auto offset = r.ReadU64();
      if (!offset.ok()) co_return offset.status();
      auto bytes = r.ReadBytes();
      if (!bytes.ok()) co_return bytes.status();
      auto& data = objects_[*object_id];
      if (data.size() < *offset + bytes->size()) {
        data.resize(*offset + bytes->size(), 0);
      }
      std::copy(bytes->begin(), bytes->end(),
                data.begin() + static_cast<std::ptrdiff_t>(*offset));
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(bytes->size());
      co_return w.Take();
    }
    case m::kObjTruncate: {
      auto size = r.ReadU64();
      if (!size.ok()) co_return size.status();
      objects_[*object_id].resize(*size, 0);
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kObjGlimpse: {
      EncodeCode(w, StatusCode::kOk);
      auto it = objects_.find(*object_id);
      w.WriteU64(it == objects_.end() ? 0 : it->second.size());
      co_return w.Take();
    }
    case m::kObjDestroy: {
      objects_.erase(*object_id);
      co_return ErrorReply(StatusCode::kOk);
    }
    default:
      co_return ErrorReply(StatusCode::kUnimplemented);
  }
}

// ====================================================== LustreInstance ====

LustreInstance::LustreInstance(net::Network& net, std::string name,
                               std::size_t n_oss, LustrePerfModel perf)
    : name_(std::move(name)) {
  mds_node_ = net.AddNode(name_ + "-mds");
  for (std::size_t i = 0; i < n_oss; ++i) {
    oss_nodes_.push_back(net.AddNode(name_ + "-oss" + std::to_string(i)));
  }
  mds_endpoint_ = std::make_unique<net::RpcEndpoint>(net, mds_node_);
  mds_ = std::make_unique<LustreMds>(*mds_endpoint_, oss_nodes_, perf);
  mds_->Start();
  for (std::size_t i = 0; i < n_oss; ++i) {
    oss_endpoints_.push_back(
        std::make_unique<net::RpcEndpoint>(net, oss_nodes_[i]));
    oss_.push_back(std::make_unique<LustreOss>(*oss_endpoints_[i], perf));
    oss_.back()->Start();
  }
}

// ======================================================== LustreClient ====

LustreClient::LustreClient(net::RpcEndpoint& endpoint,
                           LustreInstance& instance)
    : endpoint_(endpoint), instance_(instance) {}

void LustreClient::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  t_mds_ = obs_.timer("lustre.mds_ns");
  t_oss_ = obs_.timer("lustre.oss_ns");
}

sim::Task<net::RpcResult> LustreClient::CallMds(std::uint16_t method,
                                                net::Payload req) {
  obs::Span span(obs_, "mds-call", "backend");
  span.ArgInt("method", method);
  const sim::SimTime started = endpoint_.sim().now();
  auto result = co_await endpoint_.Call(instance_.mds_node(), method,
                                        std::move(req));
  t_mds_.Record(endpoint_.sim().now() - started);
  co_return result;
}

sim::Task<net::RpcResult> LustreClient::CallOss(std::uint32_t oss_index,
                                                std::uint16_t method,
                                                net::Payload req) {
  const auto& oss = instance_.oss_nodes();
  DUFS_CHECK(oss_index < oss.size());
  obs::Span span(obs_, "oss-call", "backend");
  span.ArgInt("method", method);
  const sim::SimTime started = endpoint_.sim().now();
  auto result = co_await endpoint_.Call(oss[oss_index], method,
                                        std::move(req));
  t_oss_.Record(endpoint_.sim().now() - started);
  co_return result;
}

sim::Task<Result<vfs::FileAttr>> LustreClient::GetAttr(std::string path) {
  wire::BufferWriter w;
  w.WriteString(path);
  auto raw = co_await CallMds(lustre_method::kGetAttr, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto attr = DecodeAttr(r);
  if (!attr.ok()) co_return attr.status();
  auto ref = DecodeObjectRef(r);
  if (!ref.ok()) co_return ref.status();
  if (attr->IsRegular()) {
    // Size lives with the object: glimpse the OSS, like Lustre.
    wire::BufferWriter gw;
    gw.WriteU64(ref->object_id);
    auto glimpse =
        co_await CallOss(ref->oss_index, lustre_method::kObjGlimpse,
                         gw.Take());
    if (!glimpse.ok()) co_return glimpse.status();
    wire::BufferReader gr(*glimpse);
    auto gcode = DecodeCode(gr);
    if (!gcode.ok()) co_return gcode.status();
    auto size = gr.ReadU64();
    if (!size.ok()) co_return size.status();
    attr->size = *size;
  }
  co_return *attr;
}

sim::Task<Status> LustreClient::Mkdir(std::string path, vfs::Mode mode) {
  wire::BufferWriter w;
  w.WriteString(path);
  w.WriteU32(mode);
  auto raw = co_await CallMds(lustre_method::kMkdir, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> LustreClient::Rmdir(std::string path) {
  wire::BufferWriter w;
  w.WriteString(path);
  auto raw = co_await CallMds(lustre_method::kRmdir, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Result<vfs::FileAttr>> LustreClient::Create(std::string path,
                                                      vfs::Mode mode) {
  wire::BufferWriter w;
  w.WriteString(path);
  w.WriteU32(mode);
  auto raw = co_await CallMds(lustre_method::kCreate, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto attr = DecodeAttr(r);
  if (!attr.ok()) co_return attr.status();
  co_return *attr;
}

sim::Task<Status> LustreClient::Unlink(std::string path) {
  wire::BufferWriter w;
  w.WriteString(path);
  auto raw = co_await CallMds(lustre_method::kUnlink, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto ref = DecodeObjectRef(r);
  if (ref.ok() && ref->object_id != 0) {
    // Asynchronous object destruction, as Lustre does on unlink commit.
    wire::BufferWriter dw;
    dw.WriteU64(ref->object_id);
    const auto& oss = instance_.oss_nodes();
    if (ref->oss_index < oss.size()) {
      endpoint_.Notify(oss[ref->oss_index], lustre_method::kObjDestroy,
                       dw.Take());
    }
  }
  co_return Status::Ok();
}

sim::Task<Result<std::vector<vfs::DirEntry>>> LustreClient::ReadDir(
    std::string path) {
  wire::BufferWriter w;
  w.WriteString(path);
  auto raw = co_await CallMds(lustre_method::kReadDir, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto count = r.ReadVarint();
  if (!count.ok()) co_return count.status();
  std::vector<vfs::DirEntry> entries;
  entries.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto name = r.ReadString();
    if (!name.ok()) co_return name.status();
    auto type = r.ReadU8();
    if (!type.ok()) co_return type.status();
    entries.push_back({std::move(*name), static_cast<vfs::FileType>(*type)});
  }
  co_return entries;
}

sim::Task<Status> LustreClient::Rename(std::string from, std::string to) {
  wire::BufferWriter w;
  w.WriteString(from);
  w.WriteString(to);
  auto raw = co_await CallMds(lustre_method::kRename, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

namespace {
net::Payload EncodeSetAttr(const std::string& path, bool has_mode,
                           vfs::Mode mode, bool has_times, std::int64_t atime,
                           std::int64_t mtime) {
  wire::BufferWriter w;
  w.WriteString(path);
  w.WriteBool(has_mode);
  w.WriteU32(mode);
  w.WriteBool(has_times);
  w.WriteI64(atime);
  w.WriteI64(mtime);
  return w.Take();
}
}  // namespace

sim::Task<Status> LustreClient::Chmod(std::string path, vfs::Mode mode) {
  auto raw = co_await CallMds(lustre_method::kSetAttr,
                              EncodeSetAttr(path, true, mode, false, 0, 0));
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> LustreClient::Utimens(std::string path, std::int64_t atime,
                                        std::int64_t mtime) {
  auto raw = co_await CallMds(
      lustre_method::kSetAttr,
      EncodeSetAttr(path, false, 0, true, atime, mtime));
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> LustreClient::Truncate(std::string path,
                                         std::uint64_t size) {
  auto opened = co_await Open(path, vfs::kWrite);
  if (!opened.ok()) co_return opened.status();
  const ObjectRef ref = handles_.at(*opened);
  wire::BufferWriter w;
  w.WriteU64(ref.object_id);
  w.WriteU64(size);
  auto raw =
      co_await CallOss(ref.oss_index, lustre_method::kObjTruncate, w.Take());
  co_await Release(*opened);
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> LustreClient::Symlink(std::string target,
                                        std::string link_path) {
  wire::BufferWriter w;
  w.WriteString(target);
  w.WriteString(link_path);
  auto raw = co_await CallMds(lustre_method::kSymlink, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Result<std::string>> LustreClient::ReadLink(std::string path) {
  wire::BufferWriter w;
  w.WriteString(path);
  auto raw = co_await CallMds(lustre_method::kReadLink, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto target = r.ReadString();
  if (!target.ok()) co_return target.status();
  co_return *target;
}

sim::Task<Status> LustreClient::Access(std::string path, vfs::Mode mode) {
  auto attr = co_await GetAttr(std::move(path));
  if (!attr.ok()) co_return attr.status();
  const vfs::Mode perms = attr->mode;
  const vfs::Mode have = (perms | (perms >> 3) | (perms >> 6)) & 07;
  if ((mode & have) != mode) co_return Status(StatusCode::kPermissionDenied);
  co_return Status::Ok();
}

sim::Task<Result<vfs::FileHandle>> LustreClient::Open(std::string path,
                                                      std::uint32_t flags) {
  wire::BufferWriter w;
  w.WriteString(path);
  w.WriteU32(flags);
  auto raw = co_await CallMds(lustre_method::kOpen, w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto ref = DecodeObjectRef(r);
  if (!ref.ok()) co_return ref.status();
  auto truncate = r.ReadBool();
  if (truncate.ok() && *truncate) {
    wire::BufferWriter tw;
    tw.WriteU64(ref->object_id);
    tw.WriteU64(0);
    (void)co_await CallOss(ref->oss_index, lustre_method::kObjTruncate,
                           tw.Take());
  }
  const vfs::FileHandle handle = next_handle_++;
  handles_.emplace(handle, *ref);
  co_return handle;
}

sim::Task<Status> LustreClient::Release(vfs::FileHandle handle) {
  if (handles_.erase(handle) == 0) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  co_return Status::Ok();
}

sim::Task<Result<vfs::Bytes>> LustreClient::Read(vfs::FileHandle handle,
                                                 std::uint64_t offset,
                                                 std::uint64_t length) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  wire::BufferWriter w;
  w.WriteU64(it->second.object_id);
  w.WriteU64(offset);
  w.WriteU64(length);
  auto raw =
      co_await CallOss(it->second.oss_index, lustre_method::kObjRead,
                       w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code);
  auto bytes = r.ReadBytes();
  if (!bytes.ok()) co_return bytes.status();
  co_return std::move(*bytes);
}

sim::Task<Result<std::uint64_t>> LustreClient::Write(vfs::FileHandle handle,
                                                     std::uint64_t offset,
                                                     vfs::Bytes data) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  wire::BufferWriter w;
  w.WriteU64(it->second.object_id);
  w.WriteU64(offset);
  w.WriteBytes(data);
  auto raw =
      co_await CallOss(it->second.oss_index, lustre_method::kObjWrite,
                       w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code);
  auto n = r.ReadU64();
  if (!n.ok()) co_return n.status();
  co_return *n;
}

sim::Task<Result<vfs::FsStats>> LustreClient::StatFs() {
  auto raw = co_await CallMds(lustre_method::kStatFs, {});
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  vfs::FsStats stats;
  auto total = r.ReadU64();
  if (!total.ok()) co_return total.status();
  stats.total_bytes = *total;
  auto free_bytes = r.ReadU64();
  if (!free_bytes.ok()) co_return free_bytes.status();
  stats.free_bytes = *free_bytes;
  auto files = r.ReadU64();
  if (!files.ok()) co_return files.status();
  stats.files = *files;
  co_return stats;
}

}  // namespace dufs::pfs
