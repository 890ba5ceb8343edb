#include "vfs/naive_mirror.h"

namespace dufs::vfs {

// Each mutation hands Fanout a value-capturing lambda coroutine (the frame
// must not reference this function's locals; under ASan with
// detect_stack_use_after_return such a reference is a reported
// stack-use-after-return, see tests/compile/lifetime_probe.cc). The closure is always bound to a named local first: GCC 12
// miscompiles a *temporary* closure with non-trivially-destructible
// captures passed straight into a coroutine parameter (the capture is
// destroyed twice; glibc aborts with "munmap_chunk(): invalid pointer").
// An lvalue argument takes the plain copy-construction path and is fine.

sim::Task<Result<FileAttr>> NaiveMirrorFs::GetAttr(std::string path) {
  co_return co_await backends_[0]->GetAttr(std::move(path));
}

sim::Task<Status> NaiveMirrorFs::Mkdir(std::string path, Mode mode) {
  auto op = [path, mode](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Mkdir(path, mode);
  };
  co_return co_await Fanout(op);
}

sim::Task<Status> NaiveMirrorFs::Rmdir(std::string path) {
  auto op = [path](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Rmdir(path);
  };
  co_return co_await Fanout(op);
}

sim::Task<Result<FileAttr>> NaiveMirrorFs::Create(std::string path,
                                                  Mode mode) {
  Result<FileAttr> first = Status(StatusCode::kInternal);
  bool have_first = false;
  for (FileSystem* fs : backends_) {
    auto r = co_await fs->Create(path, mode);
    if (!have_first) {
      first = std::move(r);
      have_first = true;
    }
  }
  co_return first;
}

sim::Task<Status> NaiveMirrorFs::Unlink(std::string path) {
  auto op = [path](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Unlink(path);
  };
  co_return co_await Fanout(op);
}

sim::Task<Result<std::vector<DirEntry>>> NaiveMirrorFs::ReadDir(
    std::string path) {
  co_return co_await backends_[0]->ReadDir(std::move(path));
}

sim::Task<Status> NaiveMirrorFs::Rename(std::string from, std::string to) {
  auto op = [from, to](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Rename(from, to);
  };
  co_return co_await Fanout(op);
}

sim::Task<Status> NaiveMirrorFs::Chmod(std::string path, Mode mode) {
  auto op = [path, mode](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Chmod(path, mode);
  };
  co_return co_await Fanout(op);
}

sim::Task<Status> NaiveMirrorFs::Utimens(std::string path, std::int64_t atime,
                                         std::int64_t mtime) {
  auto op = [path, atime, mtime](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Utimens(path, atime, mtime);
  };
  co_return co_await Fanout(op);
}

sim::Task<Status> NaiveMirrorFs::Truncate(std::string path,
                                          std::uint64_t size) {
  auto op = [path, size](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Truncate(path, size);
  };
  co_return co_await Fanout(op);
}

sim::Task<Status> NaiveMirrorFs::Symlink(std::string target,
                                         std::string link_path) {
  auto op = [target, link_path](FileSystem& fs) -> sim::Task<Status> {
    co_return co_await fs.Symlink(target, link_path);
  };
  co_return co_await Fanout(op);
}

sim::Task<Result<std::string>> NaiveMirrorFs::ReadLink(std::string path) {
  co_return co_await backends_[0]->ReadLink(std::move(path));
}

sim::Task<Status> NaiveMirrorFs::Access(std::string path, Mode mode) {
  co_return co_await backends_[0]->Access(std::move(path), mode);
}

sim::Task<Result<FileHandle>> NaiveMirrorFs::Open(std::string path,
                                                  std::uint32_t flags) {
  // Data lives on backend 0 in this strawman.
  co_return co_await backends_[0]->Open(std::move(path), flags);
}

sim::Task<Status> NaiveMirrorFs::Release(FileHandle handle) {
  co_return co_await backends_[0]->Release(handle);
}

sim::Task<Result<Bytes>> NaiveMirrorFs::Read(FileHandle handle,
                                             std::uint64_t offset,
                                             std::uint64_t length) {
  co_return co_await backends_[0]->Read(handle, offset, length);
}

sim::Task<Result<std::uint64_t>> NaiveMirrorFs::Write(FileHandle handle,
                                                      std::uint64_t offset,
                                                      Bytes data) {
  co_return co_await backends_[0]->Write(handle, offset, std::move(data));
}

sim::Task<Result<FsStats>> NaiveMirrorFs::StatFs() {
  co_return co_await backends_[0]->StatFs();
}

}  // namespace dufs::vfs
