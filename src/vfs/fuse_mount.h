// FUSE-substitute dispatcher (paper §II-B, §IV-C).
//
// A FuseMount is what an application on a client node sees: POSIX-style
// calls with integer fds. It translates them onto a FileSystem
// implementation — exactly the role libfuse plays for DUFS — charging the
// client node the FUSE context-switch overhead per operation.
#pragma once


#include "common/hash.h"
#include "net/network.h"
#include "vfs/filesystem.h"
#include "vfs/path.h"

namespace dufs::vfs {

struct FuseConfig {
  // Two kernel/user crossings + request marshalling per operation.
  sim::Duration per_op_overhead = sim::Us(14);
};

class FuseMount {
 public:
  FuseMount(net::Node& client_node, FileSystem& fs, FuseConfig config = {});

  FileSystem& fs() { return fs_; }

  // POSIX-style entry points (the subset mdtest and the examples need; all
  // paths are virtual paths under this mount).
  sim::Task<Result<FileAttr>> Stat(std::string path);
  sim::Task<Status> Mkdir(std::string path, Mode mode = kDefaultDirMode);
  sim::Task<Status> Rmdir(std::string path);
  sim::Task<Result<int>> Creat(std::string path, Mode mode = kDefaultFileMode);
  // Create without opening (mknod) — what mdtest's create phase measures.
  sim::Task<Status> Mknod(std::string path, Mode mode = kDefaultFileMode);
  sim::Task<Result<int>> Open(std::string path, std::uint32_t flags);
  sim::Task<Status> Close(int fd);
  sim::Task<Result<Bytes>> Read(int fd, std::uint64_t offset,
                                std::uint64_t length);
  sim::Task<Result<std::uint64_t>> Write(int fd, std::uint64_t offset,
                                         Bytes data);
  sim::Task<Status> Unlink(std::string path);
  sim::Task<Result<std::vector<DirEntry>>> ReadDir(std::string path);
  sim::Task<Status> Rename(std::string from, std::string to);
  sim::Task<Status> Chmod(std::string path, Mode mode);
  sim::Task<Status> Truncate(std::string path, std::uint64_t size);
  sim::Task<Status> Access(std::string path, Mode mode);
  sim::Task<Status> Symlink(std::string target, std::string link_path);
  sim::Task<Result<std::string>> ReadLink(std::string path);
  sim::Task<Result<FsStats>> StatFs();
  sim::Task<Status> Utimens(std::string path, std::int64_t atime,
                            std::int64_t mtime);

  // Client-side memory footprint (Fig. 11's "Dummy FUSE"/"DUFS" curves):
  // just the fd table plus fixed process state — bounded regardless of how
  // many files exist.
  std::size_t EstimateMemoryBytes() const;

  std::uint64_t ops_dispatched() const { return ops_dispatched_; }
  std::size_t open_fds() const { return fds_.size(); }

 private:
  sim::Task<void> Overhead();

  net::Node& node_;
  FileSystem& fs_;
  FuseConfig config_;
  HashMap<int, FileHandle> fds_;
  int next_fd_ = 3;
  std::uint64_t ops_dispatched_ = 0;
};

}  // namespace dufs::vfs
