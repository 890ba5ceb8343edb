#include "pfs/pvfs.h"

#include <algorithm>

#include "pfs/codec.h"

namespace dufs::pfs {

using vfs::BaseName;
using vfs::DirName;
using vfs::FileAttr;
using vfs::FileType;
using vfs::SplitPath;

namespace {

net::Payload ErrorReply(StatusCode code) {
  wire::BufferWriter w;
  EncodeCode(w, code);
  return w.Take();
}

}  // namespace

// =========================================================== PvfsServer ===

PvfsServer::PvfsServer(net::RpcEndpoint& endpoint, std::uint32_t index,
                       PvfsPerfModel perf)
    : endpoint_(endpoint),
      index_(index),
      perf_(perf),
      pipeline_(endpoint.sim(), 1),
      trove_disk_(endpoint.sim(), 1) {
  if (index_ == 0) {
    // The filesystem root lives on server 0 with a well-known handle.
    Object root;
    root.type = ObjType::kDir;
    root.attr.type = FileType::kDirectory;
    root.attr.mode = vfs::kDefaultDirMode;
    root.attr.inode = kPvfsRootHandle;
    root.attr.nlink = 2;
    objects_.emplace(kPvfsRootHandle, std::move(root));
  }
}

void PvfsServer::Start() {
  for (std::uint16_t m = pvfs_method::kLookup; m <= pvfs_method::kStatFsObj;
       ++m) {
    // Stored in the endpoint's handler map; `this` outlives every call.
    endpoint_.RegisterHandler(
        m, [this, m](net::NodeId,
                     net::Payload req) -> sim::Task<net::RpcResult> {
          co_return co_await Handle(m, std::move(req));
        });
  }
}

sim::Simulation::DelayAwaiter PvfsServer::ReadWork() {
  return pipeline_.Serve(perf_.read_cpu);
}

sim::Task<void> PvfsServer::MutationWork() {
  co_await pipeline_.Serve(perf_.mutation_cpu);
  // Synchronous metadata commit (Trove/DBPF): one sync write per mutation,
  // no batching — the defining PVFS2 bottleneck.
  co_await trove_disk_.Serve(perf_.sync_write_latency);
}

sim::Task<net::RpcResult> PvfsServer::Handle(std::uint16_t method,
                                             net::Payload req) {
  namespace m = pvfs_method;
  wire::BufferReader r(req);
  wire::BufferWriter w;

  switch (method) {
    case m::kLookup: {
      auto dir = r.ReadU64();
      if (!dir.ok()) co_return dir.status();
      auto name = r.ReadString();
      if (!name.ok()) co_return name.status();
      co_await ReadWork();
      auto it = objects_.find(*dir);
      if (it == objects_.end() || it->second.type != ObjType::kDir) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      auto entry = it->second.entries.find(*name);
      if (entry == it->second.entries.end()) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(entry->second.first);
      w.WriteU8(entry->second.second);
      co_return w.Take();
    }
    case m::kCreateDir:
    case m::kCreateMeta:
    case m::kCreateData: {
      auto mode = r.ReadU32();
      if (!mode.ok()) co_return mode.status();
      auto target = r.ReadString();  // symlink target (kCreateMeta only)
      if (!target.ok()) co_return target.status();
      co_await MutationWork();
      Object obj;
      obj.attr.mode = *mode;
      obj.attr.ctime = obj.attr.mtime = obj.attr.atime =
          endpoint_.sim().now();
      if (method == m::kCreateDir) {
        obj.type = ObjType::kDir;
        obj.attr.type = FileType::kDirectory;
        obj.attr.nlink = 2;
      } else if (method == m::kCreateMeta) {
        obj.type = ObjType::kMeta;
        obj.attr.type =
            target->empty() ? FileType::kRegular : FileType::kSymlink;
        obj.symlink_target = std::move(*target);
      } else {
        obj.type = ObjType::kData;
      }
      const PvfsHandle handle = NewHandle();
      obj.attr.inode = handle;
      objects_.emplace(handle, std::move(obj));
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(handle);
      co_return w.Take();
    }
    case m::kInsertDirent: {
      auto dir = r.ReadU64();
      if (!dir.ok()) co_return dir.status();
      auto name = r.ReadString();
      if (!name.ok()) co_return name.status();
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      auto type = r.ReadU8();
      if (!type.ok()) co_return type.status();
      co_await MutationWork();
      auto it = objects_.find(*dir);
      if (it == objects_.end() || it->second.type != ObjType::kDir) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      if (it->second.entries.count(*name) > 0) {
        co_return ErrorReply(StatusCode::kAlreadyExists);
      }
      it->second.entries.emplace(std::move(*name),
                                 std::make_pair(*handle, *type));
      it->second.attr.mtime = endpoint_.sim().now();
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kRemoveDirent: {
      auto dir = r.ReadU64();
      if (!dir.ok()) co_return dir.status();
      auto name = r.ReadString();
      if (!name.ok()) co_return name.status();
      co_await MutationWork();
      auto it = objects_.find(*dir);
      if (it == objects_.end() || it->second.type != ObjType::kDir) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      auto entry = it->second.entries.find(*name);
      if (entry == it->second.entries.end()) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      const PvfsHandle handle = entry->second.first;
      const std::uint8_t type = entry->second.second;
      it->second.entries.erase(entry);
      it->second.attr.mtime = endpoint_.sim().now();
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(handle);
      w.WriteU8(type);
      co_return w.Take();
    }
    case m::kGetAttrObj: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      co_await ReadWork();
      auto it = objects_.find(*handle);
      if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
      EncodeCode(w, StatusCode::kOk);
      w.WriteU8(static_cast<std::uint8_t>(it->second.type));
      EncodeAttr(w, it->second.attr);
      w.WriteU64(it->second.datafile);
      w.WriteString(it->second.symlink_target);
      w.WriteVarint(it->second.entries.size());
      co_return w.Take();
    }
    // SetAttrObj keeps its seven parsed fields in a frame of its own: every
    // local of this switch lives in one coroutine frame, and with them in it
    // the frame outgrows the arena's 2 KiB class.
    case m::kSetAttrObj:
      co_return co_await HandleSetAttr(std::move(req));
    case m::kReadDirObj: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      co_await ReadWork();
      auto it = objects_.find(*handle);
      if (it == objects_.end() || it->second.type != ObjType::kDir) {
        co_return ErrorReply(StatusCode::kNotFound);
      }
      EncodeCode(w, StatusCode::kOk);
      w.WriteVarint(it->second.entries.size());
      for (const auto& [name, ref] : it->second.entries) {
        w.WriteString(name);
        w.WriteU8(ref.second);
      }
      co_return w.Take();
    }
    case m::kRemoveObj: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      co_await MutationWork();
      auto it = objects_.find(*handle);
      if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
      if (it->second.type == ObjType::kDir && !it->second.entries.empty()) {
        co_return ErrorReply(StatusCode::kNotEmpty);
      }
      objects_.erase(it);
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kDataRead: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      auto offset = r.ReadU64();
      if (!offset.ok()) co_return offset.status();
      auto length = r.ReadU64();
      if (!length.ok()) co_return length.status();
      co_await ReadWork();
      auto it = objects_.find(*handle);
      if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
      const auto& data = it->second.data;
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
    case m::kDataWrite: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      auto offset = r.ReadU64();
      if (!offset.ok()) co_return offset.status();
      auto bytes = r.ReadBytes();
      if (!bytes.ok()) co_return bytes.status();
      co_await ReadWork();  // data path: no sync metadata write
      auto it = objects_.find(*handle);
      if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
      auto& data = it->second.data;
      if (data.size() < *offset + bytes->size()) {
        data.resize(*offset + bytes->size(), 0);
      }
      std::copy(bytes->begin(), bytes->end(),
                data.begin() + static_cast<std::ptrdiff_t>(*offset));
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(bytes->size());
      co_return w.Take();
    }
    case m::kDataTruncate: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      auto size = r.ReadU64();
      if (!size.ok()) co_return size.status();
      co_await ReadWork();
      auto it = objects_.find(*handle);
      if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
      it->second.data.resize(*size, 0);
      co_return ErrorReply(StatusCode::kOk);
    }
    case m::kDataSize: {
      auto handle = r.ReadU64();
      if (!handle.ok()) co_return handle.status();
      co_await ReadWork();
      auto it = objects_.find(*handle);
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(it == objects_.end() ? 0 : it->second.data.size());
      co_return w.Take();
    }
    case m::kStatFsObj: {
      co_await ReadWork();
      EncodeCode(w, StatusCode::kOk);
      w.WriteU64(objects_.size());
      co_return w.Take();
    }
    default:
      co_return ErrorReply(StatusCode::kUnimplemented);
  }
}

sim::Task<net::RpcResult> PvfsServer::HandleSetAttr(net::Payload req) {
  wire::BufferReader r(req);
  auto handle = r.ReadU64();
  if (!handle.ok()) co_return handle.status();
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
  auto datafile = r.ReadU64();
  if (!datafile.ok()) co_return datafile.status();
  co_await MutationWork();
  auto it = objects_.find(*handle);
  if (it == objects_.end()) co_return ErrorReply(StatusCode::kNotFound);
  if (*has_mode) it->second.attr.mode = *mode;
  if (*has_times) {
    it->second.attr.atime = *atime;
    it->second.attr.mtime = *mtime;
  }
  if (*datafile != 0) it->second.datafile = *datafile;
  co_return ErrorReply(StatusCode::kOk);
}

// ========================================================= PvfsInstance ===

PvfsInstance::PvfsInstance(net::Network& net, std::string name,
                           std::size_t n_servers, PvfsPerfModel perf)
    : name_(std::move(name)) {
  for (std::size_t i = 0; i < n_servers; ++i) {
    server_nodes_.push_back(net.AddNode(name_ + "-io" + std::to_string(i)));
    endpoints_.push_back(
        std::make_unique<net::RpcEndpoint>(net, server_nodes_[i]));
    servers_.push_back(std::make_unique<PvfsServer>(
        *endpoints_[i], static_cast<std::uint32_t>(i), perf));
    servers_.back()->Start();
  }
}

// =========================================================== PvfsClient ===

PvfsClient::PvfsClient(net::RpcEndpoint& endpoint, PvfsInstance& instance)
    : endpoint_(endpoint), instance_(instance) {}

void PvfsClient::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  t_call_ = obs_.timer("pvfs.call_ns");
}

sim::Task<net::RpcResult> PvfsClient::CallServer(PvfsHandle handle,
                                                 std::uint16_t method,
                                                 net::Payload req) {
  co_return co_await CallIndex(PvfsServerOf(handle), method, std::move(req));
}

sim::Task<net::RpcResult> PvfsClient::CallIndex(std::uint32_t index,
                                                std::uint16_t method,
                                                net::Payload req) {
  const auto& nodes = instance_.server_nodes();
  DUFS_CHECK(index < nodes.size());
  obs::Span span(obs_, "pvfs-call", "backend");
  span.ArgInt("method", method);
  span.ArgInt("server", index);
  const sim::SimTime started = endpoint_.sim().now();
  auto result = co_await endpoint_.Call(nodes[index], method, std::move(req));
  t_call_.Record(endpoint_.sim().now() - started);
  co_return result;
}

std::uint32_t PvfsClient::PickServer() {
  const auto n = static_cast<std::uint32_t>(instance_.server_nodes().size());
  next_server_ = (next_server_ + 1) % n;
  return next_server_;
}

sim::Task<Result<PvfsClient::ResolvedObject>> PvfsClient::Resolve(
    std::string_view path) {
  ResolvedObject cur{kPvfsRootHandle, 0 /*dir*/};
  for (const auto& part : SplitPath(path)) {
    wire::BufferWriter w;
    w.WriteU64(cur.handle);
    w.WriteString(part);
    auto raw = co_await CallServer(cur.handle, pvfs_method::kLookup,
                                   w.Take());
    if (!raw.ok()) co_return raw.status();
    wire::BufferReader r(*raw);
    auto code = DecodeCode(r);
    if (!code.ok()) co_return code.status();
    if (*code != StatusCode::kOk) co_return Status(*code, std::string(path));
    auto handle = r.ReadU64();
    if (!handle.ok()) co_return handle.status();
    auto type = r.ReadU8();
    if (!type.ok()) co_return type.status();
    cur.handle = *handle;
    cur.type = *type;
  }
  co_return cur;
}

sim::Task<Result<PvfsClient::ResolvedObject>> PvfsClient::ResolveParent(
    std::string_view path) {
  if (path == "/" || path.empty()) {
    co_return Status(StatusCode::kInvalidArgument);
  }
  auto parent = co_await Resolve(DirName(path));
  if (!parent.ok()) co_return parent.status();
  if (parent->type != 0) co_return Status(StatusCode::kNotADirectory);
  co_return *parent;
}

namespace {
struct ObjAttr {
  std::uint8_t type = 0;
  FileAttr attr;
  PvfsHandle datafile = 0;
  std::string symlink_target;
  std::uint64_t entry_count = 0;
};

Result<ObjAttr> DecodeObjAttr(const net::Payload& raw) {
  wire::BufferReader r(raw);
  auto code = DecodeCode(r);
  DUFS_RETURN_IF_ERROR(code);
  if (*code != StatusCode::kOk) return Status(*code);
  ObjAttr out;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  out.type = *type;
  auto attr = DecodeAttr(r);
  DUFS_RETURN_IF_ERROR(attr);
  out.attr = *attr;
  auto datafile = r.ReadU64();
  DUFS_RETURN_IF_ERROR(datafile);
  out.datafile = *datafile;
  auto target = r.ReadString();
  DUFS_RETURN_IF_ERROR(target);
  out.symlink_target = std::move(*target);
  auto entries = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(entries);
  out.entry_count = *entries;
  return out;
}

Result<StatusCode> JustCode(const net::RpcResult& raw) {
  DUFS_RETURN_IF_ERROR(raw);
  wire::BufferReader r(*raw);
  return DecodeCode(r);
}
}  // namespace

sim::Task<Result<vfs::FileAttr>> PvfsClient::GetAttr(std::string path) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  wire::BufferWriter w;
  w.WriteU64(obj->handle);
  auto raw = co_await CallServer(obj->handle, pvfs_method::kGetAttrObj,
                                 w.Take());
  if (!raw.ok()) co_return raw.status();
  auto oa = DecodeObjAttr(*raw);
  if (!oa.ok()) co_return oa.status();
  if (oa->attr.IsRegular() && oa->datafile != 0) {
    // Size lives with the datafile server (PVFS2 getattr fan-out).
    wire::BufferWriter sw;
    sw.WriteU64(oa->datafile);
    auto sraw = co_await CallServer(oa->datafile, pvfs_method::kDataSize,
                                    sw.Take());
    if (!sraw.ok()) co_return sraw.status();
    wire::BufferReader sr(*sraw);
    auto scode = DecodeCode(sr);
    if (!scode.ok()) co_return scode.status();
    auto size = sr.ReadU64();
    if (!size.ok()) co_return size.status();
    oa->attr.size = *size;
  }
  co_return oa->attr;
}

sim::Task<Status> PvfsClient::Mkdir(std::string path, vfs::Mode mode) {
  auto parent = co_await ResolveParent(path);
  if (!parent.ok()) co_return parent.status();
  // 1) create the directory object on a server chosen by placement.
  wire::BufferWriter cw;
  cw.WriteU32(mode);
  cw.WriteString("");
  auto craw =
      co_await CallIndex(PickServer(), pvfs_method::kCreateDir, cw.Take());
  if (!craw.ok()) co_return craw.status();
  wire::BufferReader cr(*craw);
  auto ccode = DecodeCode(cr);
  if (!ccode.ok()) co_return ccode.status();
  if (*ccode != StatusCode::kOk) co_return Status(*ccode);
  auto handle = cr.ReadU64();
  if (!handle.ok()) co_return handle.status();
  // 2) insert the dirent at the parent's server.
  wire::BufferWriter iw;
  iw.WriteU64(parent->handle);
  iw.WriteString(std::string(BaseName(path)));
  iw.WriteU64(*handle);
  iw.WriteU8(0);  // dir
  auto iraw = co_await CallServer(parent->handle,
                                  pvfs_method::kInsertDirent, iw.Take());
  auto icode = JustCode(iraw);
  if (!icode.ok()) co_return icode.status();
  if (*icode != StatusCode::kOk) {
    // Roll back the orphaned object (best-effort, like PVFS2 cleanup).
    wire::BufferWriter rw;
    rw.WriteU64(*handle);
    endpoint_.Notify(
        instance_.server_nodes()[PvfsServerOf(*handle)],
        pvfs_method::kRemoveObj, rw.Take());
    co_return Status(*icode, path);
  }
  co_return Status::Ok();
}

sim::Task<Status> PvfsClient::Rmdir(std::string path) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  if (obj->type != 0) co_return Status(StatusCode::kNotADirectory);
  // Check emptiness + remove the object first (it owns its entries).
  wire::BufferWriter rw;
  rw.WriteU64(obj->handle);
  auto rraw = co_await CallServer(obj->handle, pvfs_method::kRemoveObj,
                                  rw.Take());
  auto rcode = JustCode(rraw);
  if (!rcode.ok()) co_return rcode.status();
  if (*rcode != StatusCode::kOk) co_return Status(*rcode, path);
  auto parent = co_await ResolveParent(path);
  if (!parent.ok()) co_return parent.status();
  wire::BufferWriter dw;
  dw.WriteU64(parent->handle);
  dw.WriteString(std::string(BaseName(path)));
  auto draw = co_await CallServer(parent->handle,
                                  pvfs_method::kRemoveDirent, dw.Take());
  auto dcode = JustCode(draw);
  if (!dcode.ok()) co_return dcode.status();
  co_return Status(*dcode);
}

sim::Task<Result<vfs::FileAttr>> PvfsClient::Create(std::string path,
                                                    vfs::Mode mode) {
  auto parent = co_await ResolveParent(path);
  if (!parent.ok()) co_return parent.status();
  // 1) metafile.
  wire::BufferWriter mw;
  mw.WriteU32(mode);
  mw.WriteString("");
  auto mraw =
      co_await CallIndex(PickServer(), pvfs_method::kCreateMeta, mw.Take());
  if (!mraw.ok()) co_return mraw.status();
  wire::BufferReader mr(*mraw);
  auto mcode = DecodeCode(mr);
  if (!mcode.ok()) co_return mcode.status();
  if (*mcode != StatusCode::kOk) co_return Status(*mcode);
  auto meta = mr.ReadU64();
  if (!meta.ok()) co_return meta.status();
  // 2) datafile.
  wire::BufferWriter dw;
  dw.WriteU32(0);
  dw.WriteString("");
  auto draw =
      co_await CallIndex(PickServer(), pvfs_method::kCreateData, dw.Take());
  if (!draw.ok()) co_return draw.status();
  wire::BufferReader dr(*draw);
  auto dcode = DecodeCode(dr);
  if (!dcode.ok()) co_return dcode.status();
  if (*dcode != StatusCode::kOk) co_return Status(*dcode);
  auto datafile = dr.ReadU64();
  if (!datafile.ok()) co_return datafile.status();
  // 3) link datafile into metafile.
  wire::BufferWriter sw;
  sw.WriteU64(*meta);
  sw.WriteBool(false);
  sw.WriteU32(0);
  sw.WriteBool(false);
  sw.WriteI64(0);
  sw.WriteI64(0);
  sw.WriteU64(*datafile);
  auto sraw = co_await CallServer(*meta, pvfs_method::kSetAttrObj, sw.Take());
  auto scode = JustCode(sraw);
  if (!scode.ok()) co_return scode.status();
  // 4) dirent insert.
  wire::BufferWriter iw;
  iw.WriteU64(parent->handle);
  iw.WriteString(std::string(BaseName(path)));
  iw.WriteU64(*meta);
  iw.WriteU8(1);  // meta
  auto iraw = co_await CallServer(parent->handle,
                                  pvfs_method::kInsertDirent, iw.Take());
  auto icode = JustCode(iraw);
  if (!icode.ok()) co_return icode.status();
  if (*icode != StatusCode::kOk) co_return Status(*icode, path);
  FileAttr attr;
  attr.type = FileType::kRegular;
  attr.mode = mode;
  attr.inode = *meta;
  co_return attr;
}

sim::Task<Status> PvfsClient::Unlink(std::string path) {
  auto parent = co_await ResolveParent(path);
  if (!parent.ok()) co_return parent.status();
  // Fetch the handle first so we can clean up the objects after.
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  if (obj->type == 0) co_return Status(StatusCode::kIsADirectory);
  wire::BufferWriter gw;
  gw.WriteU64(obj->handle);
  auto graw = co_await CallServer(obj->handle, pvfs_method::kGetAttrObj,
                                  gw.Take());
  if (!graw.ok()) co_return graw.status();
  auto oa = DecodeObjAttr(*graw);
  if (!oa.ok()) co_return oa.status();
  wire::BufferWriter dw;
  dw.WriteU64(parent->handle);
  dw.WriteString(std::string(BaseName(path)));
  auto draw = co_await CallServer(parent->handle,
                                  pvfs_method::kRemoveDirent, dw.Take());
  auto dcode = JustCode(draw);
  if (!dcode.ok()) co_return dcode.status();
  if (*dcode != StatusCode::kOk) co_return Status(*dcode, path);
  // Remove metafile synchronously, datafile asynchronously.
  wire::BufferWriter rw;
  rw.WriteU64(obj->handle);
  auto rraw = co_await CallServer(obj->handle, pvfs_method::kRemoveObj,
                                  rw.Take());
  (void)rraw;
  if (oa->datafile != 0) {
    wire::BufferWriter fw;
    fw.WriteU64(oa->datafile);
    endpoint_.Notify(
        instance_.server_nodes()[PvfsServerOf(oa->datafile)],
        pvfs_method::kRemoveObj, fw.Take());
  }
  co_return Status::Ok();
}

sim::Task<Result<std::vector<vfs::DirEntry>>> PvfsClient::ReadDir(
    std::string path) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  if (obj->type != 0) co_return Status(StatusCode::kNotADirectory);
  wire::BufferWriter w;
  w.WriteU64(obj->handle);
  auto raw = co_await CallServer(obj->handle, pvfs_method::kReadDirObj,
                                 w.Take());
  if (!raw.ok()) co_return raw.status();
  wire::BufferReader r(*raw);
  auto code = DecodeCode(r);
  if (!code.ok()) co_return code.status();
  if (*code != StatusCode::kOk) co_return Status(*code, path);
  auto count = r.ReadVarint();
  if (!count.ok()) co_return count.status();
  std::vector<vfs::DirEntry> entries;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto name = r.ReadString();
    if (!name.ok()) co_return name.status();
    auto type = r.ReadU8();
    if (!type.ok()) co_return type.status();
    entries.push_back(
        {std::move(*name),
         *type == 0 ? FileType::kDirectory : FileType::kRegular});
  }
  co_return entries;
}

sim::Task<Status> PvfsClient::Rename(std::string from, std::string to) {
  auto from_parent = co_await ResolveParent(from);
  if (!from_parent.ok()) co_return from_parent.status();
  auto to_parent = co_await ResolveParent(to);
  if (!to_parent.ok()) co_return to_parent.status();
  if (vfs::IsWithin(from, to) && from != to) {
    co_return Status(StatusCode::kInvalidArgument);
  }
  wire::BufferWriter dw;
  dw.WriteU64(from_parent->handle);
  dw.WriteString(std::string(BaseName(from)));
  auto draw = co_await CallServer(from_parent->handle,
                                  pvfs_method::kRemoveDirent, dw.Take());
  if (!draw.ok()) co_return draw.status();
  wire::BufferReader dr(*draw);
  auto dcode = DecodeCode(dr);
  if (!dcode.ok()) co_return dcode.status();
  if (*dcode != StatusCode::kOk) co_return Status(*dcode, from);
  auto handle = dr.ReadU64();
  if (!handle.ok()) co_return handle.status();
  auto type = dr.ReadU8();
  if (!type.ok()) co_return type.status();
  wire::BufferWriter iw;
  iw.WriteU64(to_parent->handle);
  iw.WriteString(std::string(BaseName(to)));
  iw.WriteU64(*handle);
  iw.WriteU8(*type);
  auto iraw = co_await CallServer(to_parent->handle,
                                  pvfs_method::kInsertDirent, iw.Take());
  auto icode = JustCode(iraw);
  if (!icode.ok()) co_return icode.status();
  co_return Status(*icode);
}

sim::Task<Status> PvfsClient::Chmod(std::string path, vfs::Mode mode) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  wire::BufferWriter w;
  w.WriteU64(obj->handle);
  w.WriteBool(true);
  w.WriteU32(mode);
  w.WriteBool(false);
  w.WriteI64(0);
  w.WriteI64(0);
  w.WriteU64(0);
  auto raw = co_await CallServer(obj->handle, pvfs_method::kSetAttrObj,
                                 w.Take());
  auto code = JustCode(raw);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> PvfsClient::Utimens(std::string path, std::int64_t atime,
                                      std::int64_t mtime) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  wire::BufferWriter w;
  w.WriteU64(obj->handle);
  w.WriteBool(false);
  w.WriteU32(0);
  w.WriteBool(true);
  w.WriteI64(atime);
  w.WriteI64(mtime);
  w.WriteU64(0);
  auto raw = co_await CallServer(obj->handle, pvfs_method::kSetAttrObj,
                                 w.Take());
  auto code = JustCode(raw);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> PvfsClient::Truncate(std::string path, std::uint64_t size) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  wire::BufferWriter gw;
  gw.WriteU64(obj->handle);
  auto graw = co_await CallServer(obj->handle, pvfs_method::kGetAttrObj,
                                  gw.Take());
  if (!graw.ok()) co_return graw.status();
  auto oa = DecodeObjAttr(*graw);
  if (!oa.ok()) co_return oa.status();
  if (oa->datafile == 0) co_return Status(StatusCode::kIsADirectory);
  wire::BufferWriter w;
  w.WriteU64(oa->datafile);
  w.WriteU64(size);
  auto raw = co_await CallServer(oa->datafile, pvfs_method::kDataTruncate,
                                 w.Take());
  auto code = JustCode(raw);
  if (!code.ok()) co_return code.status();
  co_return Status(*code);
}

sim::Task<Status> PvfsClient::Symlink(std::string target,
                                      std::string link_path) {
  auto parent = co_await ResolveParent(link_path);
  if (!parent.ok()) co_return parent.status();
  wire::BufferWriter mw;
  mw.WriteU32(0777);
  mw.WriteString(target);
  auto mraw =
      co_await CallIndex(PickServer(), pvfs_method::kCreateMeta, mw.Take());
  if (!mraw.ok()) co_return mraw.status();
  wire::BufferReader mr(*mraw);
  auto mcode = DecodeCode(mr);
  if (!mcode.ok()) co_return mcode.status();
  if (*mcode != StatusCode::kOk) co_return Status(*mcode);
  auto meta = mr.ReadU64();
  if (!meta.ok()) co_return meta.status();
  wire::BufferWriter iw;
  iw.WriteU64(parent->handle);
  iw.WriteString(std::string(BaseName(link_path)));
  iw.WriteU64(*meta);
  iw.WriteU8(1);
  auto iraw = co_await CallServer(parent->handle,
                                  pvfs_method::kInsertDirent, iw.Take());
  auto icode = JustCode(iraw);
  if (!icode.ok()) co_return icode.status();
  co_return Status(*icode);
}

sim::Task<Result<std::string>> PvfsClient::ReadLink(std::string path) {
  auto obj = co_await Resolve(path);
  if (!obj.ok()) co_return obj.status();
  wire::BufferWriter w;
  w.WriteU64(obj->handle);
  auto raw = co_await CallServer(obj->handle, pvfs_method::kGetAttrObj,
                                 w.Take());
  if (!raw.ok()) co_return raw.status();
  auto oa = DecodeObjAttr(*raw);
  if (!oa.ok()) co_return oa.status();
  if (oa->attr.type != FileType::kSymlink) {
    co_return Status(StatusCode::kInvalidArgument, "not a symlink");
  }
  co_return oa->symlink_target;
}

sim::Task<Status> PvfsClient::Access(std::string path, vfs::Mode mode) {
  auto attr = co_await GetAttr(std::move(path));
  if (!attr.ok()) co_return attr.status();
  const vfs::Mode perms = attr->mode;
  const vfs::Mode have = (perms | (perms >> 3) | (perms >> 6)) & 07;
  if ((mode & have) != mode) co_return Status(StatusCode::kPermissionDenied);
  co_return Status::Ok();
}

sim::Task<Result<vfs::FileHandle>> PvfsClient::Open(std::string path,
                                                    std::uint32_t flags) {
  auto obj = co_await Resolve(path);
  if (!obj.ok() && (flags & vfs::kCreate) &&
      obj.code() == StatusCode::kNotFound) {
    auto created = co_await Create(path, vfs::kDefaultFileMode);
    if (!created.ok()) co_return created.status();
    obj = co_await Resolve(path);
  }
  if (!obj.ok()) co_return obj.status();
  if (obj->type == 0) co_return Status(StatusCode::kIsADirectory);
  wire::BufferWriter gw;
  gw.WriteU64(obj->handle);
  auto graw = co_await CallServer(obj->handle, pvfs_method::kGetAttrObj,
                                  gw.Take());
  if (!graw.ok()) co_return graw.status();
  auto oa = DecodeObjAttr(*graw);
  if (!oa.ok()) co_return oa.status();
  if (oa->datafile == 0) co_return Status(StatusCode::kIoError, "no datafile");
  if (flags & vfs::kTruncate) {
    wire::BufferWriter tw;
    tw.WriteU64(oa->datafile);
    tw.WriteU64(0);
    (void)co_await CallServer(oa->datafile, pvfs_method::kDataTruncate,
                              tw.Take());
  }
  const vfs::FileHandle handle = next_handle_++;
  open_files_.emplace(handle, oa->datafile);
  co_return handle;
}

sim::Task<Status> PvfsClient::Release(vfs::FileHandle handle) {
  if (open_files_.erase(handle) == 0) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  co_return Status::Ok();
}

sim::Task<Result<vfs::Bytes>> PvfsClient::Read(vfs::FileHandle handle,
                                               std::uint64_t offset,
                                               std::uint64_t length) {
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  wire::BufferWriter w;
  w.WriteU64(it->second);
  w.WriteU64(offset);
  w.WriteU64(length);
  auto raw = co_await CallServer(it->second, pvfs_method::kDataRead,
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

sim::Task<Result<std::uint64_t>> PvfsClient::Write(vfs::FileHandle handle,
                                                   std::uint64_t offset,
                                                   vfs::Bytes data) {
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    co_return Status(StatusCode::kInvalidArgument, "bad handle");
  }
  wire::BufferWriter w;
  w.WriteU64(it->second);
  w.WriteU64(offset);
  w.WriteBytes(data);
  auto raw = co_await CallServer(it->second, pvfs_method::kDataWrite,
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

sim::Task<Result<vfs::FsStats>> PvfsClient::StatFs() {
  vfs::FsStats stats;
  stats.total_bytes = 1ull << 42;
  stats.free_bytes = 1ull << 41;
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(instance_.server_nodes().size()); ++i) {
    auto raw = co_await CallIndex(i, pvfs_method::kStatFsObj, {});
    if (!raw.ok()) co_return raw.status();
    wire::BufferReader r(*raw);
    auto code = DecodeCode(r);
    if (!code.ok()) co_return code.status();
    auto count = r.ReadU64();
    if (!count.ok()) co_return count.status();
    stats.files += *count;
  }
  co_return stats;
}

}  // namespace dufs::pfs
