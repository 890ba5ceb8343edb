// Quickstart: bring up a simulated cluster (ZooKeeper ensemble + two Lustre
// instances + client nodes), mount DUFS, and walk the public API:
// directories, files, data IO, rename, symlinks, readdir, statfs.
//
//   $ ./quickstart
#include <cstdio>

#include "mdtest/testbed.h"
#include "sim/task.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

// Steps that failed; main exits 1 unless this stays 0.
int failures = 0;

bool Check(bool ok) {
  if (!ok) ++failures;
  return ok;
}

const char* OkStr(const Status& s) { return Check(s.ok()) ? "ok" : "FAILED"; }

sim::Task<void> Tour(Testbed& tb) {
  auto& fuse = *tb.client(0).fuse;  // the POSIX-style mount applications use

  std::printf("== DUFS quickstart ==\n");
  std::printf("cluster: %zu ZooKeeper servers, %zu Lustre instances, "
              "%zu client nodes\n\n",
              tb.zk_server_count(), tb.config().backend_instances,
              tb.client_count());

  // Directories are metadata-only: they live entirely in the coordination
  // service and never touch a back-end.
  auto st = co_await fuse.Mkdir("/projects");
  std::printf("mkdir /projects                -> %s\n", OkStr(st));
  st = co_await fuse.Mkdir("/projects/dufs");
  std::printf("mkdir /projects/dufs           -> %s\n", OkStr(st));

  // Files: the znode stores the FID; contents land on one back-end chosen
  // by MD5(fid) mod N.
  auto fd = co_await fuse.Creat("/projects/dufs/notes.txt");
  std::printf("creat /projects/dufs/notes.txt -> fd %d\n", fd.value_or(-1));
  if (!Check(fd.ok())) co_return;
  auto wrote = co_await fuse.Write(*fd, 0,
                                   vfs::ToBytes("decentralized metadata!"));
  std::printf("write 23 bytes                 -> %llu bytes\n",
              static_cast<unsigned long long>(wrote.value_or(0)));
  Check(wrote.value_or(0) == 23);
  st = co_await fuse.Close(*fd);
  Check(st.ok());

  auto attr = co_await fuse.Stat("/projects/dufs/notes.txt");
  if (!Check(attr.ok())) co_return;
  Check(attr->size == 23);
  std::printf("stat                           -> size=%llu mode=%o\n",
              static_cast<unsigned long long>(attr->size), attr->mode);

  // Rename never moves data: only the znode changes (the FID indirection).
  st = co_await fuse.Rename("/projects/dufs/notes.txt",
                            "/projects/dufs/README");
  std::printf("rename notes.txt -> README     -> %s\n", OkStr(st));

  auto fd2 = co_await fuse.Open("/projects/dufs/README", vfs::kRead);
  if (!Check(fd2.ok())) co_return;
  auto data = co_await fuse.Read(*fd2, 0, 64);
  if (!Check(data.ok())) co_return;
  Check(vfs::FromBytes(*data) == "decentralized metadata!");
  std::printf("read back                      -> \"%s\"\n",
              vfs::FromBytes(*data).c_str());
  (void)co_await fuse.Close(*fd2);

  st = co_await fuse.Symlink("/projects/dufs/README", "/projects/link");
  Check(st.ok());
  auto target = co_await fuse.ReadLink("/projects/link");
  if (!Check(target.ok())) co_return;
  std::printf("symlink + readlink             -> %s\n", target->c_str());

  // A second client node sees everything instantly (one namespace).
  auto& other = *tb.client(1).fuse;
  auto entries = co_await other.ReadDir("/projects/dufs");
  if (!Check(entries.ok())) co_return;
  std::printf("readdir from another client    -> %zu entries:",
              entries->size());
  for (const auto& e : *entries) std::printf(" %s", e.name.c_str());
  std::printf("\n");

  auto stats = co_await fuse.StatFs();
  if (!Check(stats.ok())) co_return;
  std::printf("statfs                         -> %llu physical files across "
              "%zu back-ends\n",
              static_cast<unsigned long long>(stats->files),
              tb.config().backend_instances);

  Check((co_await fuse.Unlink("/projects/link")).ok());
  Check((co_await fuse.Unlink("/projects/dufs/README")).ok());
  Check((co_await fuse.Rmdir("/projects/dufs")).ok());
  st = co_await fuse.Rmdir("/projects");
  std::printf("cleanup                        -> %s\n", OkStr(st));
}

}  // namespace

int main() {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 2;
  config.backend = BackendKind::kLustre;
  config.backend_instances = 2;
  Testbed tb(config);
  tb.MountAll();
  sim::RunTask(tb.sim(), Tour(tb));
  std::printf("\nsimulated time: %.3f ms, events: %llu\n",
              static_cast<double>(tb.sim().now()) / sim::kMillisecond,
              static_cast<unsigned long long>(tb.sim().events_processed()));
  if (failures > 0) {
    std::printf("%d step(s) FAILED\n", failures);
    return 1;
  }
  return 0;
}
