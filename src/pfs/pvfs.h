// PVFS2-like parallel filesystem (paper §II / §V).
//
// K combined metadata+data servers. Every filesystem object (directory,
// metafile, datafile) is a handle owned by one server; directory entries
// live with their directory object. The defining behaviours the paper's
// evaluation rests on are modeled explicitly:
//
//  * no client caching: every path component is resolved with a lookup RPC,
//  * namespace operations are multi-RPC protocols touching several servers
//    (create = metafile + datafile + dirent insert),
//  * every metadata mutation does a synchronous Trove/DBPF-style disk write
//    (no group commit) — this is why native PVFS2 metadata throughput is
//    flat and low (Fig. 10, the 23x dir-create gap at 256 procs),
//  * reads go through a single-threaded request pipeline per server.
#pragma once

#include <map>
#include <memory>

#include "common/hash.h"
#include "net/rpc.h"
#include "obs/obs.h"
#include "sim/sync.h"
#include "vfs/filesystem.h"
#include "vfs/path.h"

namespace dufs::pfs {

using PvfsHandle = std::uint64_t;
inline constexpr PvfsHandle kPvfsRootHandle = 1;  // server 0, id 1

inline std::uint32_t PvfsServerOf(PvfsHandle h) {
  return static_cast<std::uint32_t>(h >> 48);
}

struct PvfsPerfModel {
  sim::Duration read_cpu = sim::Us(55);      // lookup/getattr/readdir
  sim::Duration mutation_cpu = sim::Us(70);  // before the sync disk write
  sim::Duration sync_write_latency = sim::Ms(5.2);  // multiple DBPF B-tree syncs per mutation
};

// RPC method ids (PVFS owns 300-339).
namespace pvfs_method {
inline constexpr std::uint16_t kLookup = 300;
inline constexpr std::uint16_t kCreateDir = 301;
inline constexpr std::uint16_t kCreateMeta = 302;
inline constexpr std::uint16_t kCreateData = 303;
inline constexpr std::uint16_t kInsertDirent = 304;
inline constexpr std::uint16_t kRemoveDirent = 305;
inline constexpr std::uint16_t kGetAttrObj = 306;
inline constexpr std::uint16_t kSetAttrObj = 307;
inline constexpr std::uint16_t kReadDirObj = 308;
inline constexpr std::uint16_t kRemoveObj = 309;
inline constexpr std::uint16_t kDataRead = 310;
inline constexpr std::uint16_t kDataWrite = 311;
inline constexpr std::uint16_t kDataTruncate = 312;
inline constexpr std::uint16_t kDataSize = 313;
inline constexpr std::uint16_t kStatFsObj = 314;
}  // namespace pvfs_method

class PvfsServer {
 public:
  PvfsServer(net::RpcEndpoint& endpoint, std::uint32_t index,
             PvfsPerfModel perf);

  void Start();
  std::size_t object_count() const { return objects_.size(); }

 private:
  enum class ObjType : std::uint8_t { kDir = 0, kMeta = 1, kData = 2 };

  struct Object {
    ObjType type = ObjType::kMeta;
    vfs::FileAttr attr;
    std::map<std::string, std::pair<PvfsHandle, std::uint8_t>> entries;
    PvfsHandle datafile = 0;        // metafiles
    std::string symlink_target;     // symlink metafiles
    vfs::Bytes data;                // datafiles
  };

  sim::Task<net::RpcResult> Handle(std::uint16_t method, net::Payload req);
  sim::Task<net::RpcResult> HandleSetAttr(net::Payload req);
  sim::Simulation::DelayAwaiter ReadWork();
  sim::Task<void> MutationWork();
  PvfsHandle NewHandle() {
    return (static_cast<PvfsHandle>(index_) << 48) | next_id_++;
  }

  net::RpcEndpoint& endpoint_;
  std::uint32_t index_;
  PvfsPerfModel perf_;
  HashMap<PvfsHandle, Object> objects_;
  std::uint64_t next_id_ = 100;
  sim::FifoServer pipeline_;
  sim::FifoServer trove_disk_;
};

class PvfsInstance {
 public:
  PvfsInstance(net::Network& net, std::string name, std::size_t n_servers = 2,
               PvfsPerfModel perf = {});

  const std::string& name() const { return name_; }
  const std::vector<net::NodeId>& server_nodes() const {
    return server_nodes_;
  }

 private:
  std::string name_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  std::vector<std::unique_ptr<PvfsServer>> servers_;
};

class PvfsClient : public vfs::FileSystem {
 public:
  PvfsClient(net::RpcEndpoint& endpoint, PvfsInstance& instance);

  std::string name() const override { return "pvfs:" + instance_.name(); }

  sim::Task<Result<vfs::FileAttr>> GetAttr(std::string path) override;
  sim::Task<Status> Mkdir(std::string path, vfs::Mode mode) override;
  sim::Task<Status> Rmdir(std::string path) override;
  sim::Task<Result<vfs::FileAttr>> Create(std::string path,
                                          vfs::Mode mode) override;
  sim::Task<Status> Unlink(std::string path) override;
  sim::Task<Result<std::vector<vfs::DirEntry>>> ReadDir(
      std::string path) override;
  sim::Task<Status> Rename(std::string from, std::string to) override;
  sim::Task<Status> Chmod(std::string path, vfs::Mode mode) override;
  sim::Task<Status> Utimens(std::string path, std::int64_t atime,
                            std::int64_t mtime) override;
  sim::Task<Status> Truncate(std::string path, std::uint64_t size) override;
  sim::Task<Status> Symlink(std::string target,
                            std::string link_path) override;
  sim::Task<Result<std::string>> ReadLink(std::string path) override;
  sim::Task<Status> Access(std::string path, vfs::Mode mode) override;
  sim::Task<Result<vfs::FileHandle>> Open(std::string path,
                                          std::uint32_t flags) override;
  sim::Task<Status> Release(vfs::FileHandle handle) override;
  sim::Task<Result<vfs::Bytes>> Read(vfs::FileHandle handle,
                                     std::uint64_t offset,
                                     std::uint64_t length) override;
  sim::Task<Result<std::uint64_t>> Write(vfs::FileHandle handle,
                                         std::uint64_t offset,
                                         vfs::Bytes data) override;
  sim::Task<Result<vfs::FsStats>> StatFs() override;

  // Optional: backend-call spans (pvfs-call) + a latency timer.
  void AttachObs(obs::NodeObs node_obs);

 private:
  struct ResolvedObject {
    PvfsHandle handle = 0;
    std::uint8_t type = 0;  // ObjType on the wire
  };

  sim::Task<net::RpcResult> CallServer(PvfsHandle handle,
                                       std::uint16_t method, net::Payload req);
  sim::Task<net::RpcResult> CallIndex(std::uint32_t index,
                                      std::uint16_t method, net::Payload req);
  // Component-by-component resolution — one lookup RPC per component, no
  // caching (PVFS2 semantics).
  sim::Task<Result<ResolvedObject>> Resolve(std::string_view path);
  sim::Task<Result<ResolvedObject>> ResolveParent(std::string_view path);
  std::uint32_t PickServer();  // round-robin placement for new objects

  net::RpcEndpoint& endpoint_;
  PvfsInstance& instance_;
  std::uint32_t next_server_ = 0;
  HashMap<vfs::FileHandle, PvfsHandle> open_files_;  // -> datafile
  vfs::FileHandle next_handle_ = 1;
  obs::NodeObs obs_;
  obs::Timer t_call_;
};

}  // namespace dufs::pfs
