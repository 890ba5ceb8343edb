// DUFS — the Distributed Union File System (paper §IV).
//
// A DufsClient merges N back-end parallel-filesystem mounts into one virtual
// namespace:
//
//   * ALL namespace metadata lives in the coordination service: one znode
//     per virtual file/directory under <prefix>/ns, with a MetaRecord in the
//     data field. Directory operations never touch a back-end (§IV-B).
//   * each file's contents live on exactly one back-end, at a physical path
//     derived from its FID (Fig. 4); the back-end is chosen by the
//     deterministic placement policy (§IV-F), so data placement needs no
//     coordination;
//   * FIDs are (client instance id ++ local counter); instance ids are made
//     unique by a ZooKeeper sequential znode claimed at Mount() (§IV-E);
//   * rename is an atomic ZooKeeper multi (check+create+delete); directory
//     renames move the subtree in one multi up to a configured size;
//   * the client itself is stateless (§IV-I): everything lives in ZooKeeper
//     or on the back-ends, so client memory stays bounded (Fig. 11).
#pragma once

#include <memory>

#include "common/hash.h"
#include "core/mapping.h"
#include "core/meta_cache.h"
#include "core/meta_schema.h"
#include "core/physical_path.h"
#include "obs/obs.h"
#include "vfs/filesystem.h"
#include "vfs/path.h"
#include "zk/client.h"

namespace dufs::core {

struct DufsConfig {
  std::string meta_prefix = "/dufs";
  std::string placement = "md5-mod-n";  // or "consistent-hash"
  // Largest directory subtree a rename may move atomically (znode count).
  std::size_t dir_rename_limit = 256;
  // Retries for optimistic multi-op races (rename vs concurrent mutation).
  int race_retries = 3;
  // --- metadata fast path (DESIGN.md "Metadata fast path") ---------------
  // Client metadata cache: positive attr/dentry + negative lookups, kept
  // coherent by one-shot ZooKeeper watches + own-write invalidation.
  bool enable_meta_cache = true;
  MetaCacheConfig meta_cache;
  // Concurrent ZooKeeper/back-end requests per fan-out operation (ReadDir
  // child lookups, rename subtree reads, format). 1 = fully serial (the
  // pre-fast-path behavior, kept for ablation).
  std::size_t lookup_fanout = 32;
  // Server-side path resolution (DESIGN.md §13): metadata hot paths issue
  // one compound ZooKeeper op per cache miss (ResolvePath / ResolveCreate /
  // ResolveDelete / ReadDirPlus) and seed the cache from the returned
  // prefix. Off = the FUSE-faithful ablation, resolving dentry-by-dentry
  // like the kernel VFS against the paper's prototype: a cold depth-D path
  // costs O(D) round trips instead of one.
  bool compound_ops = true;
};

class DufsClient : public vfs::FileSystem {
 public:
  DufsClient(zk::ZkClient& zk, std::vector<vfs::FileSystem*> backends,
             DufsConfig config = {});

  // Connects the coordination session, creates the metadata skeleton and
  // claims a unique client-instance id. Must succeed before any operation.
  sim::Task<Status> Mount();
  bool mounted() const { return client_id_ != 0; }
  std::uint64_t client_id() const { return client_id_; }

  // One-time back-end preparation: creates the static FID directory
  // hierarchy on every back-end (paper §IV-G). Run once per filesystem by
  // one client, like mkfs. Every client relies on it and keeps no
  // per-directory state: Create makes only the file, so on a back-end
  // never formatted it fails with that back-end's error.
  sim::Task<Status> FormatBackends();

  const DufsConfig& config() const { return config_; }
  PlacementPolicy& placement() { return *placement_; }
  std::size_t backend_count() const { return backends_.size(); }
  const MetaCache& meta_cache() const { return meta_cache_; }

  // Client-resident memory (Fig. 11): caches + fd table, bounded.
  std::size_t EstimateMemoryBytes() const;

  // Optional: per-op root spans + latency timers + cache counters. Spans
  // opened here are the roots of the client-op -> zk-rpc -> quorum-round ->
  // fsync-batch chain.
  void AttachObs(obs::NodeObs node_obs);

  std::string name() const override { return "dufs"; }

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

 private:
  struct OpenState {
    std::uint32_t backend = 0;
    vfs::FileHandle backend_handle = 0;
  };

  // "/a/b" -> "<prefix>/ns/a/b"; "/" -> "<prefix>/ns".
  std::string ZnodePath(std::string_view virtual_path) const;
  std::string NsRoot() const { return config_.meta_prefix + "/ns"; }

  Fid NextFid();
  vfs::FileSystem& BackendFor(const Fid& fid, std::uint32_t* index = nullptr);

  // Reads a path's MetaRecord (+ znode stat/version). Served from the
  // metadata cache when possible; a miss fetches with a one-shot data watch
  // so the cached copy is invalidated on any remote mutation.
  struct Lookup {
    MetaRecord record;
    zk::ZnodeStat stat;
  };
  // Dispatches on config_.compound_ops: one server-side resolution
  // (LookupCompound) or a per-component walk (LookupWalk) built from the
  // single full-path probe (LookupSingle).
  sim::Task<Result<Lookup>> LookupPath(std::string virtual_path);
  sim::Task<Result<Lookup>> LookupCompound(std::string virtual_path);
  sim::Task<Result<Lookup>> LookupWalk(std::string virtual_path);
  sim::Task<Result<Lookup>> LookupSingle(std::string virtual_path);

  // The one seeder for compound-op replies. Seeds the metadata cache from
  // the reply to `type` on `znode_path`: positive entries for every prefix
  // component (and the terminal when its record rode back), a negative
  // entry for the first missing component on a partial miss, and a
  // positive entry per listed child. The server registered matching
  // one-shot watches, so every seeded entry is invalidated on remote change
  // exactly like a LookupSingle fill. Appends each listed child to
  // `listing` when one is given, and returns the reply's code mapped onto
  // the filesystem's (MapCompoundCode in dufs_client.cc). When `terminal`
  // is given and the terminal's record rode back, it receives that record,
  // decoded once for the cache and the caller both.
  StatusCode SeedFromReply(zk::OpType type, const std::string& znode_path,
                           const zk::CompoundReply& reply,
                           std::vector<vfs::DirEntry>* listing = nullptr,
                           std::optional<MetaRecord>* terminal = nullptr);

  // Own-write invalidation: drops `virtual_path` (and, when `subtree`, all
  // cached descendants) plus the parent's cached attr (child count/mtime
  // change with every namespace mutation).
  void InvalidateAfterMutation(const std::string& virtual_path,
                               bool subtree = false);

  // Fast parent-is-a-directory check through the metadata cache (FUSE's
  // dentry cache plays this role in the paper's prototype).
  sim::Task<Status> CheckParentIsDir(std::string virtual_path);

  sim::Task<Status> RenameSubtree(std::string from, std::string to,
                                  Lookup src);

  vfs::FileAttr AttrFromDir(const MetaRecord& record,
                            const zk::ZnodeStat& stat) const;

  zk::ZkClient& zk_;
  std::vector<vfs::FileSystem*> backends_;
  DufsConfig config_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::uint64_t client_id_ = 0;
  std::uint64_t fid_counter_ = 0;
  MetaCache meta_cache_;  // keyed by znode path
  // SeedFromReply's reused buffers: the op path split once, and every path
  // it seeds. Used only inside that call, which never suspends.
  std::vector<std::string_view> split_;
  std::string seed_path_;
  HashMap<vfs::FileHandle, OpenState> open_files_;
  vfs::FileHandle next_handle_ = 1;

  friend class OpScope;  // dufs_client.cc: per-op span + timer RAII
  obs::NodeObs obs_;
  obs::Counter c_cache_hits_;
  obs::Counter c_cache_misses_;
  obs::Timer t_stat_;
  obs::Timer t_create_;
  obs::Timer t_readdir_;
  obs::Timer t_unlink_;
  obs::Timer t_mkdir_;
  obs::Timer t_rename_;
};

}  // namespace dufs::core
