// Lustre-like parallel filesystem (paper §II-A).
//
// One instance = one MDS node + M OSS nodes. The MDS owns the whole
// namespace — a real directory tree with attributes and object layouts —
// and is the single metadata server the paper identifies as the
// bottleneck. The defining performance behaviour is modeled explicitly:
//
//  * a serialized metadata-mutation pipeline (journal/transaction thread),
//  * journal group commit to a spinning disk,
//  * a small read thread pool for getattr/readdir,
//  * DLM lock-management overhead that grows with the number of in-flight
//    client requests (lock grant/callback traffic) — this term is what
//    makes native Lustre throughput *fall* as client processes grow
//    (Figs. 8/10), and `bench/ablation_contention` sweeps it.
//
// Data: each regular file gets one object on an OSS (round-robin). File
// sizes live with the object, so file stat() needs an OSS "glimpse", as in
// Lustre.
#pragma once

#include <coroutine>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "net/rpc.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "vfs/filesystem.h"
#include "vfs/path.h"

namespace dufs::pfs {

struct LustrePerfModel {
  // MDS read path (getattr/readdir/lookup): small thread pool.
  std::size_t read_threads = 4;
  sim::Duration read_cpu = sim::Us(95);
  // MDS mutation path: serialized transaction pipeline.
  sim::Duration mkdir_cpu = sim::Us(150);
  sim::Duration create_cpu = sim::Us(45);
  sim::Duration unlink_cpu = sim::Us(70);
  sim::Duration rename_cpu = sim::Us(130);
  sim::Duration setattr_cpu = sim::Us(70);
  // DLM lock-management cost added to *every* MDS op, per in-flight
  // request (lock grants, revocation callbacks, export handling).
  sim::Duration dlm_cpu_per_inflight = sim::Us(1.3);
  // Journal group commit.
  std::size_t max_journal_batch = 24;
  // OSS object operations.
  sim::Duration oss_op_cpu = sim::Us(25);
};

// RPC method ids (Lustre owns 200-239).
namespace lustre_method {
inline constexpr std::uint16_t kGetAttr = 200;
inline constexpr std::uint16_t kMkdir = 201;
inline constexpr std::uint16_t kRmdir = 202;
inline constexpr std::uint16_t kCreate = 203;
inline constexpr std::uint16_t kUnlink = 204;
inline constexpr std::uint16_t kReadDir = 205;
inline constexpr std::uint16_t kRename = 206;
inline constexpr std::uint16_t kSetAttr = 207;
inline constexpr std::uint16_t kOpen = 208;
inline constexpr std::uint16_t kSymlink = 209;
inline constexpr std::uint16_t kReadLink = 210;
inline constexpr std::uint16_t kStatFs = 211;
inline constexpr std::uint16_t kObjRead = 220;
inline constexpr std::uint16_t kObjWrite = 221;
inline constexpr std::uint16_t kObjTruncate = 222;
inline constexpr std::uint16_t kObjGlimpse = 223;
inline constexpr std::uint16_t kObjDestroy = 224;
}  // namespace lustre_method

// Object location: which OSS and which object id.
struct ObjectRef {
  std::uint32_t oss_index = 0;
  std::uint64_t object_id = 0;
};

// The MDS server component. Lives on its own node.
class LustreMds {
 public:
  LustreMds(net::RpcEndpoint& endpoint, std::vector<net::NodeId> oss_nodes,
            LustrePerfModel perf);

  void Start();

  std::uint64_t ops_served() const { return ops_served_; }
  std::size_t namespace_size() const { return node_count_; }
  std::size_t inflight() const { return inflight_; }

 private:
  struct Inode {
    vfs::FileAttr attr;
    // std::less<> finds and erases by a path's string_view components.
    std::map<std::string, std::unique_ptr<Inode>, std::less<>> children;
    std::string symlink_target;
    ObjectRef object;  // regular files
  };

  // Request handlers.
  sim::Task<net::RpcResult> Handle(std::uint16_t method, net::NodeId from,
                                   net::Payload req);
  sim::Task<net::RpcResult> HandleRename(net::Payload req);
  sim::Task<net::RpcResult> HandleSetAttr(net::Payload req);

  Inode* Lookup(std::string_view path);
  Result<Inode*> ParentOf(std::string_view path);
  vfs::FileAttr NewAttr(vfs::FileType type, vfs::Mode mode);

  // Models the per-op MDS CPU: base + DLM term; reads go through the
  // thread pool, mutations through the serialized pipeline + journal.
  sim::Simulation::DelayAwaiter ReadWork(sim::Duration base);
  sim::Task<void> MutationWork(sim::Duration base);

  // One mutation's journal write. It carries the suspended MutationWork
  // frame, which JournalLoop resumes after the fsync.
  struct JournalEntry {
    std::size_t bytes = 0;
    sim::SuspendedHandle waiter;  // owned until scheduled

    JournalEntry(std::size_t b, sim::SuspendedHandle w) : bytes(b), waiter(w) {}
    JournalEntry(JournalEntry&& o) noexcept
        : bytes(o.bytes),
          waiter(std::exchange(o.waiter, sim::SuspendedHandle{})) {}
    // An entry dropped unscheduled (shutdown) frees its waiter's context.
    ~JournalEntry() { prof::FreeSnapshot(waiter.ctx); }
  };
  sim::Task<void> JournalLoop();

  net::RpcEndpoint& endpoint_;
  std::vector<net::NodeId> oss_nodes_;
  LustrePerfModel perf_;
  std::unique_ptr<Inode> root_;
  std::size_t node_count_ = 1;
  std::uint64_t next_inode_ = 2;
  std::uint64_t next_object_ = 1;
  std::uint32_t next_oss_ = 0;
  std::size_t inflight_ = 0;
  std::uint64_t ops_served_ = 0;
  sim::FifoServer read_pool_;
  sim::FifoServer mutation_pipeline_;
  std::unique_ptr<sim::Mailbox<JournalEntry>> journal_mb_;
  std::vector<JournalEntry> journal_batch_;  // JournalLoop's, reused
};

// An OSS server: object store keyed by object id.
class LustreOss {
 public:
  LustreOss(net::RpcEndpoint& endpoint, LustrePerfModel perf);
  void Start();

  std::size_t object_count() const { return objects_.size(); }

 private:
  sim::Task<net::RpcResult> Handle(std::uint16_t method, net::Payload req);

  net::RpcEndpoint& endpoint_;
  LustrePerfModel perf_;
  HashMap<std::uint64_t, vfs::Bytes> objects_;
};

// A whole Lustre filesystem instance: MDS + OSSes, built onto nodes the
// caller adds to the network.
class LustreInstance {
 public:
  LustreInstance(net::Network& net, std::string name, std::size_t n_oss = 2,
                 LustrePerfModel perf = {});

  const std::string& name() const { return name_; }
  net::NodeId mds_node() const { return mds_node_; }
  const std::vector<net::NodeId>& oss_nodes() const { return oss_nodes_; }
  LustreMds& mds() { return *mds_; }

 private:
  std::string name_;
  net::NodeId mds_node_;
  std::vector<net::NodeId> oss_nodes_;
  std::unique_ptr<net::RpcEndpoint> mds_endpoint_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> oss_endpoints_;
  std::unique_ptr<LustreMds> mds_;
  std::vector<std::unique_ptr<LustreOss>> oss_;
};

// Client-side filesystem: implements vfs::FileSystem by talking to one
// Lustre instance over the simulated network.
class LustreClient : public vfs::FileSystem {
 public:
  LustreClient(net::RpcEndpoint& endpoint, LustreInstance& instance);

  std::string name() const override { return "lustre:" + instance_.name(); }

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

  // Optional: backend-call spans (mds-call / oss-call) + latency timers.
  void AttachObs(obs::NodeObs node_obs);

 private:
  sim::Task<net::RpcResult> CallMds(std::uint16_t method, net::Payload req);
  sim::Task<net::RpcResult> CallOss(std::uint32_t oss_index,
                                    std::uint16_t method, net::Payload req);

  net::RpcEndpoint& endpoint_;
  LustreInstance& instance_;
  HashMap<vfs::FileHandle, ObjectRef> handles_;
  vfs::FileHandle next_handle_ = 1;
  obs::NodeObs obs_;
  obs::Timer t_mds_;
  obs::Timer t_oss_;
};

}  // namespace dufs::pfs
