// In-memory local filesystem.
//
// Plays two roles: (a) the "local filesystem" a dummy FUSE layer forwards to
// in the paper's Fig. 11 baseline, and (b) a fast correct back-end for unit
// tests. All semantics are real (hierarchy, handles that survive unlink,
// symlinks, rename with subtree moves); latency is a small constant.
#pragma once

#include <map>
#include <memory>

#include "common/hash.h"
#include "sim/simulation.h"
#include "vfs/filesystem.h"
#include "vfs/path.h"

namespace dufs::vfs {

struct MemFsConfig {
  sim::Duration op_latency = sim::Duration{0};  // simulated per-op cost
};

class MemFs : public FileSystem {
 public:
  using Config = MemFsConfig;

  explicit MemFs(sim::Simulation& sim, std::string name = "memfs",
                 MemFsConfig config = MemFsConfig{});

  std::string name() const override { return name_; }

  sim::Task<Result<FileAttr>> GetAttr(std::string path) override;
  sim::Task<Status> Mkdir(std::string path, Mode mode) override;
  sim::Task<Status> Rmdir(std::string path) override;
  sim::Task<Result<FileAttr>> Create(std::string path, Mode mode) override;
  sim::Task<Status> Unlink(std::string path) override;
  sim::Task<Result<std::vector<DirEntry>>> ReadDir(std::string path) override;
  sim::Task<Status> Rename(std::string from, std::string to) override;
  sim::Task<Status> Chmod(std::string path, Mode mode) override;
  sim::Task<Status> Utimens(std::string path, std::int64_t atime,
                            std::int64_t mtime) override;
  sim::Task<Status> Truncate(std::string path, std::uint64_t size) override;
  sim::Task<Status> Symlink(std::string target,
                            std::string link_path) override;
  sim::Task<Result<std::string>> ReadLink(std::string path) override;
  sim::Task<Status> Access(std::string path, Mode mode) override;

  sim::Task<Result<FileHandle>> Open(std::string path,
                                     std::uint32_t flags) override;
  sim::Task<Status> Release(FileHandle handle) override;
  sim::Task<Result<Bytes>> Read(FileHandle handle, std::uint64_t offset,
                                std::uint64_t length) override;
  sim::Task<Result<std::uint64_t>> Write(FileHandle handle,
                                         std::uint64_t offset,
                                         Bytes data) override;
  sim::Task<Result<FsStats>> StatFs() override;

  std::size_t file_count() const { return file_count_; }
  std::size_t open_handles() const { return handles_.size(); }

 private:
  struct Node {
    FileAttr attr;
    std::map<std::string, std::shared_ptr<Node>> children;  // directories
    Bytes data;                                             // regular files
    std::string target;                                     // symlinks
  };

  sim::Task<void> Latency();
  std::shared_ptr<Node> Lookup(std::string_view path) const;
  Result<std::shared_ptr<Node>> LookupOr(std::string_view path) const;
  // Returns the parent node and validates the child name.
  Result<std::shared_ptr<Node>> ParentOf(std::string_view path) const;
  FileAttr NewAttr(FileType type, Mode mode);

  sim::Simulation& sim_;
  std::string name_;
  Config config_;
  std::shared_ptr<Node> root_;
  HashMap<FileHandle, std::shared_ptr<Node>> handles_;
  FileHandle next_handle_ = 1;
  std::uint64_t next_inode_ = 2;  // 1 is the root
  std::size_t file_count_ = 0;
};

}  // namespace dufs::vfs
