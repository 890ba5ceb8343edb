// Full-stack DUFS integration tests: DufsClient over a replicated ZooKeeper
// ensemble and real back-end filesystem instances, via the Testbed.
#include "core/dufs_client.h"

#include <gtest/gtest.h>

#include <set>

#include "core/meta_schema.h"
#include "core/physical_path.h"
#include "mdtest/testbed.h"
#include "sim/task.h"
#include "testutil/co_assert.h"

namespace dufs::core {
namespace {

using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

TestbedConfig SmallConfig(BackendKind backend = BackendKind::kMemFs) {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 2;
  config.backend = backend;
  config.backend_instances = 2;
  return config;
}

TEST(MetaRecordTest, EncodeDecodeRoundTrip) {
  MetaRecord rec = MetaRecord::File(Fid{7, 42}, 0640);
  auto back = MetaRecord::Decode(rec.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, vfs::FileType::kRegular);
  EXPECT_EQ(back->fid, (Fid{7, 42}));
  EXPECT_EQ(back->mode, 0640u);

  MetaRecord link = MetaRecord::Symlink("/elsewhere");
  auto link2 = MetaRecord::Decode(link.Encode());
  ASSERT_TRUE(link2.ok());
  EXPECT_EQ(link2->symlink_target, "/elsewhere");

  MetaRecord dir = MetaRecord::Dir(0711);
  dir.mtime_override = 99;
  auto dir2 = MetaRecord::Decode(dir.Encode());
  ASSERT_TRUE(dir2.ok());
  EXPECT_EQ(dir2->mode, 0711u);
  ASSERT_TRUE(dir2->mtime_override.has_value());
  EXPECT_EQ(*dir2->mtime_override, 99);
  EXPECT_FALSE(dir2->atime_override.has_value());
}

TEST(MetaRecordTest, DecodeGarbageFails) {
  EXPECT_FALSE(MetaRecord::Decode({1, 2, 3}).ok());
}

TEST(DufsTest, MountAssignsUniqueClientIds) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  EXPECT_TRUE(tb.client(0).dufs->mounted());
  EXPECT_TRUE(tb.client(1).dufs->mounted());
  EXPECT_NE(tb.client(0).dufs->client_id(), tb.client(1).dufs->client_id());
  EXPECT_NE(tb.client(0).dufs->client_id(), 0u);
}

TEST(DufsTest, MkdirStatRmdirThroughZooKeeperOnly) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/d", 0750));
    auto attr = co_await fs.GetAttr("/d");
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_TRUE(attr->IsDir());
    EXPECT_EQ(attr->mode, 0750u);
    CO_ASSERT_OK(co_await fs.Rmdir("/d"));
    EXPECT_EQ((co_await fs.GetAttr("/d")).code(), StatusCode::kNotFound);
  }(tb));
}

TEST(DufsTest, DirectoryOpsVisibleAcrossClients) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    CO_ASSERT_OK(co_await t.client(0).dufs->Mkdir("/shared", 0755));
    // Client 1 (different node, different ZK session server) sees it.
    auto attr = co_await t.client(1).dufs->GetAttr("/shared");
    EXPECT_TRUE(attr.ok());
  }(tb));
}

TEST(DufsTest, FileCreateWriteReadAcrossClients) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs0 = *t.client(0).dufs;
    auto& fs1 = *t.client(1).dufs;
    auto created = co_await fs0.Create("/data.bin", 0644);
    CO_ASSERT_TRUE(created.ok());
    auto h0 = co_await fs0.Open("/data.bin", vfs::kWrite);
    CO_ASSERT_TRUE(h0.ok());
    (void)co_await fs0.Write(*h0, 0, vfs::ToBytes("across clients"));
    CO_ASSERT_OK(co_await fs0.Release(*h0));
    // Client 1 reads the same contents through its own mounts.
    auto h1 = co_await fs1.Open("/data.bin", vfs::kRead);
    CO_ASSERT_TRUE(h1.ok());
    auto data = co_await fs1.Read(*h1, 7, 7);
    CO_ASSERT_TRUE(data.ok());
    EXPECT_EQ(vfs::FromBytes(*data), "clients");
    CO_ASSERT_OK(co_await fs1.Release(*h1));
  }(tb));
}

TEST(DufsTest, FileStatMergesZkAndBackend) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/f", 0604);
    auto h = co_await fs.Open("/f", vfs::kWrite);
    (void)co_await fs.Write(*h, 0, vfs::ToBytes("12345"));
    (void)co_await fs.Release(*h);
    auto attr = co_await fs.GetAttr("/f");
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 5u);        // from the physical file
    EXPECT_EQ(attr->mode, 0604u);     // from the znode record
    EXPECT_TRUE(attr->IsRegular());
  }(tb));
}

TEST(DufsTest, CreateErrors) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    EXPECT_EQ((co_await fs.Create("/no/parent", 0644)).code(),
              StatusCode::kNotFound);
    (void)co_await fs.Create("/dup", 0644);
    EXPECT_EQ((co_await fs.Create("/dup", 0644)).code(),
              StatusCode::kAlreadyExists);
    // Parent must be a directory, not a file.
    EXPECT_EQ((co_await fs.Create("/dup/child", 0644)).code(),
              StatusCode::kNotADirectory);
  }(tb));
}

TEST(DufsTest, UnlinkRemovesZnodeAndPhysicalFile) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/victim", 0644);
    CO_ASSERT_OK(co_await fs.Unlink("/victim"));
    EXPECT_EQ((co_await fs.GetAttr("/victim")).code(), StatusCode::kNotFound);
    // Re-creating with the same name produces fresh contents (new FID).
    (void)co_await fs.Create("/victim", 0644);
    auto attr = co_await fs.GetAttr("/victim");
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 0u);
  }(tb));
}

TEST(DufsTest, RmdirOnlyWhenEmpty) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/d", 0755));
    (void)co_await fs.Create("/d/f", 0644);
    EXPECT_EQ((co_await fs.Rmdir("/d")).code(), StatusCode::kNotEmpty);
    CO_ASSERT_OK(co_await fs.Unlink("/d/f"));
    CO_ASSERT_OK(co_await fs.Rmdir("/d"));
    EXPECT_EQ((co_await fs.Rmdir("/d")).code(), StatusCode::kNotFound);
    (void)co_await fs.Create("/file", 0644);
    EXPECT_EQ((co_await fs.Rmdir("/file")).code(),
              StatusCode::kNotADirectory);
    EXPECT_EQ((co_await fs.Unlink("/file")).code(), StatusCode::kOk);
  }(tb));
}

TEST(DufsTest, ReadDirListsTypes) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/dir", 0755));
    CO_ASSERT_OK(co_await fs.Mkdir("/dir/sub", 0755));
    (void)co_await fs.Create("/dir/file", 0644);
    auto entries = co_await fs.ReadDir("/dir");
    CO_ASSERT_TRUE(entries.ok());
    CO_ASSERT_EQ(entries->size(), 2u);
    EXPECT_EQ((*entries)[0].name, "file");
    EXPECT_EQ((*entries)[0].type, vfs::FileType::kRegular);
    EXPECT_EQ((*entries)[1].name, "sub");
    EXPECT_EQ((*entries)[1].type, vfs::FileType::kDirectory);
  }(tb));
}

TEST(DufsTest, RenameFileIsAtomicAndKeepsContents) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/old", 0644);
    auto h = co_await fs.Open("/old", vfs::kWrite);
    (void)co_await fs.Write(*h, 0, vfs::ToBytes("payload"));
    (void)co_await fs.Release(*h);
    CO_ASSERT_OK(co_await fs.Rename("/old", "/new"));
    EXPECT_EQ((co_await fs.GetAttr("/old")).code(), StatusCode::kNotFound);
    // No physical data moved: contents intact under the new name (§IV-A).
    auto h2 = co_await fs.Open("/new", vfs::kRead);
    CO_ASSERT_TRUE(h2.ok());
    auto data = co_await fs.Read(*h2, 0, 7);
    EXPECT_EQ(vfs::FromBytes(*data), "payload");
    (void)co_await fs.Release(*h2);
  }(tb));
}

TEST(DufsTest, RenameOverwritesFileAndCleansOldContents) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/src", 0644);
    (void)co_await fs.Create("/dst", 0644);
    CO_ASSERT_OK(co_await fs.Rename("/src", "/dst"));
    EXPECT_EQ((co_await fs.GetAttr("/src")).code(), StatusCode::kNotFound);
    EXPECT_TRUE((co_await fs.GetAttr("/dst")).ok());
  }(tb));
}

TEST(DufsTest, RenameDirectoryMovesSubtree) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/a", 0755));
    CO_ASSERT_OK(co_await fs.Mkdir("/a/b", 0755));
    (void)co_await fs.Create("/a/b/f", 0644);
    CO_ASSERT_OK(co_await fs.Rename("/a", "/z"));
    EXPECT_TRUE((co_await fs.GetAttr("/z/b/f")).ok());
    EXPECT_EQ((co_await fs.GetAttr("/a")).code(), StatusCode::kNotFound);
    // Other clients observe the move atomically.
    EXPECT_TRUE((co_await t.client(1).dufs->GetAttr("/z/b")).ok());
  }(tb));
}

TEST(DufsTest, RenameHugeDirectoryRefused) {
  auto config = SmallConfig();
  Testbed tb(config);
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/big", 0755));
    for (int i = 0; i < 300; ++i) {
      CO_ASSERT_OK(
          co_await fs.Mkdir("/big/d" + std::to_string(i), 0755));
    }
    // 301 znodes > dir_rename_limit (256): refused, nothing moved.
    EXPECT_EQ((co_await fs.Rename("/big", "/huge")).code(),
              StatusCode::kCrossDevice);
    EXPECT_TRUE((co_await fs.GetAttr("/big/d0")).ok());
    EXPECT_EQ((co_await fs.GetAttr("/huge")).code(), StatusCode::kNotFound);
  }(tb));
}

TEST(DufsTest, ChmodUpdatesRecord) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/f", 0644);
    CO_ASSERT_OK(co_await fs.Chmod("/f", 0400));
    auto attr = co_await fs.GetAttr("/f");
    EXPECT_EQ(attr->mode, 0400u);
    EXPECT_EQ((co_await fs.Access("/f", 02)).code(),
              StatusCode::kPermissionDenied);
    CO_ASSERT_OK(co_await fs.Access("/f", 04));
  }(tb));
}

TEST(DufsTest, UtimensFilesGoToBackendDirsToZk) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/f", 0644);
    CO_ASSERT_OK(co_await fs.Utimens("/f", 111, 222));
    auto attr = co_await fs.GetAttr("/f");
    EXPECT_EQ(attr->mtime, 222);
    CO_ASSERT_OK(co_await fs.Mkdir("/d", 0755));
    CO_ASSERT_OK(co_await fs.Utimens("/d", 333, 444));
    auto dattr = co_await fs.GetAttr("/d");
    EXPECT_EQ(dattr->mtime, 444);
    EXPECT_EQ(dattr->atime, 333);
  }(tb));
}

TEST(DufsTest, SymlinkStoredInZooKeeper) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Symlink("/target", "/link"));
    auto target = co_await t.client(1).dufs->ReadLink("/link");
    CO_ASSERT_TRUE(target.ok());
    EXPECT_EQ(*target, "/target");
    auto attr = co_await fs.GetAttr("/link");
    EXPECT_EQ(attr->type, vfs::FileType::kSymlink);
  }(tb));
}

TEST(DufsTest, TruncateViaFid) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    (void)co_await fs.Create("/t", 0644);
    CO_ASSERT_OK(co_await fs.Truncate("/t", 1024));
    auto attr = co_await fs.GetAttr("/t");
    EXPECT_EQ(attr->size, 1024u);
  }(tb));
}

TEST(DufsTest, FilesSpreadAcrossBackends) {
  Testbed tb(SmallConfig(BackendKind::kMemFs));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    for (int i = 0; i < 40; ++i) {
      CO_ASSERT_TRUE(
          (co_await fs.Create("/f" + std::to_string(i), 0644)).ok());
    }
    // Both back-end mounts should hold a share of the physical files
    // (MD5 placement is fair).
    auto s0 = co_await t.client(0).backend_mounts[0]->StatFs();
    auto s1 = co_await t.client(0).backend_mounts[1]->StatFs();
    CO_ASSERT_TRUE(s0.ok());
    CO_ASSERT_TRUE(s1.ok());
    EXPECT_GT(s0->files, 5u);
    EXPECT_GT(s1->files, 5u);
  }(tb));
}

TEST(DufsTest, WorksOverLustreBackends) {
  Testbed tb(SmallConfig(BackendKind::kLustre));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/d", 0755));
    auto created = co_await fs.Create("/d/file", 0644);
    CO_ASSERT_TRUE(created.ok());
    auto h = co_await fs.Open("/d/file", vfs::kWrite);
    CO_ASSERT_TRUE(h.ok());
    (void)co_await fs.Write(*h, 0, vfs::ToBytes("on lustre"));
    (void)co_await fs.Release(*h);
    auto attr = co_await fs.GetAttr("/d/file");
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 9u);
    CO_ASSERT_OK(co_await fs.Unlink("/d/file"));
    CO_ASSERT_OK(co_await fs.Rmdir("/d"));
  }(tb));
}

TEST(DufsTest, WorksOverPvfsBackends) {
  Testbed tb(SmallConfig(BackendKind::kPvfs));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    auto created = co_await fs.Create("/pf", 0644);
    CO_ASSERT_TRUE(created.ok());
    auto h = co_await fs.Open("/pf", vfs::kWrite);
    CO_ASSERT_TRUE(h.ok());
    (void)co_await fs.Write(*h, 0, vfs::ToBytes("on pvfs"));
    (void)co_await fs.Release(*h);
    auto attr = co_await fs.GetAttr("/pf");
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 7u);
  }(tb));
}

TEST(DufsTest, ConcurrentCreatesInOneDirectoryAllSucceedOnce) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  // 2 clients x 20 racing creates of the *same* 20 names: exactly one
  // winner per name (ZooKeeper linearizes), and every file resolves.
  int successes = 0, conflicts = 0;
  sim::RunTask(tb.sim(), [](Testbed& t, int& wins, int& losses)
                             -> sim::Task<void> {
    sim::Barrier done(t.sim(), 3);
    for (std::size_t c = 0; c < 2; ++c) {
      t.sim().Spawn([](Testbed& t2, std::size_t client, int& w, int& l,
                       sim::Barrier b) -> sim::Task<void> {
        for (int i = 0; i < 20; ++i) {
          auto r = co_await t2.client(client).dufs->Create(
              "/race" + std::to_string(i), 0644);
          if (r.ok()) {
            ++w;
          } else if (r.code() == StatusCode::kAlreadyExists) {
            ++l;
          }
        }
        co_await b.Arrive();
      }(t, c, wins, losses, done));
    }
    co_await done.Arrive();
    for (int i = 0; i < 20; ++i) {
      auto attr =
          co_await t.client(0).dufs->GetAttr("/race" + std::to_string(i));
      EXPECT_TRUE(attr.ok()) << i;
    }
  }(tb, successes, conflicts));
  EXPECT_EQ(successes, 20);
  EXPECT_EQ(conflicts, 20);
}

TEST(DufsTest, FidsUniqueAcrossClients) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  // Unique FIDs imply unique physical paths; colliding paths would surface
  // as kAlreadyExists from the backend. Create many files from both clients.
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      auto a = co_await t.client(0).dufs->Create("/a" + std::to_string(i),
                                                 0644);
      auto b = co_await t.client(1).dufs->Create("/b" + std::to_string(i),
                                                 0644);
      EXPECT_TRUE(a.ok());
      EXPECT_TRUE(b.ok());
    }
  }(tb));
}

TEST(DufsTest, CreatesLeaveOnlyTheFormattedSkeleton) {
  // Every physical parent exists from the format on, so creates from every
  // client make files only: each back-end holds exactly the skeleton's
  // directories, and its files are the ones created.
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    constexpr int kPerClient = 64;
    for (std::size_t c = 0; c < t.client_count(); ++c) {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string path =
            "/c" + std::to_string(c) + "-" + std::to_string(i);
        CO_ASSERT_TRUE((co_await t.client(c).dufs->Create(path, 0644)).ok());
      }
    }
    const auto skeleton = StaticPhysicalSkeleton();
    const std::set<std::string> want(skeleton.begin(), skeleton.end());
    std::size_t files = 0;
    std::size_t reads = 0;
    for (auto& mount : t.client(0).backend_mounts) {
      std::set<std::string> dirs;
      std::vector<std::string> pending{"/"};
      while (!pending.empty()) {
        const std::string dir = std::move(pending.back());
        pending.pop_back();
        auto listing = co_await mount->ReadDir(dir);
        CO_ASSERT_TRUE(listing.ok());
        for (const auto& entry : *listing) {
          const std::string child = vfs::JoinPath(dir, entry.name);
          if (entry.type == vfs::FileType::kDirectory) {
            dirs.insert(child);
            pending.push_back(child);
          } else {
            ++files;
          }
        }
        // Yield now and then: MemFs completes synchronously.
        if (++reads % 64 == 0) co_await t.sim().Delay(0);
      }
      EXPECT_EQ(dirs, want);
    }
    EXPECT_EQ(files, kPerClient * t.client_count());
  }(tb));
}

TEST(DufsTest, CreateOnUnformattedBackendFailsAndLeavesNoZnode) {
  Testbed tb(SmallConfig());
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mount());  // no FormatBackends
    // The physical parent is missing, so the back-end's ENOENT comes back
    // and the znode create is rolled back.
    auto created = co_await fs.Create("/f", 0644);
    EXPECT_EQ(created.code(), StatusCode::kNotFound);
    EXPECT_EQ((co_await fs.GetAttr("/f")).code(), StatusCode::kNotFound);
    auto znode = co_await t.client(0).zk->Exists("/dufs/ns/f");
    EXPECT_EQ(znode.code(), StatusCode::kNotFound);
    auto listing = co_await fs.ReadDir("/");
    CO_ASSERT_TRUE(listing.ok());
    EXPECT_TRUE(listing->empty());
  }(tb));
}

TEST(DufsTest, ClientMemoryBounded) {
  Testbed tb(SmallConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& dufs = *t.client(0).dufs;
    const auto before = dufs.EstimateMemoryBytes();
    for (int i = 0; i < 400; ++i) {
      CO_ASSERT_OK(co_await dufs.Mkdir("/m" + std::to_string(i), 0755));
    }
    // Directory creations add znodes in ZooKeeper, not client state
    // (Fig. 11: DUFS memory is flat). Allow only cache growth.
    EXPECT_LT(dufs.EstimateMemoryBytes(), before + 16 * 1024);
  }(tb));
  EXPECT_GT(tb.ZkMemoryBytes(), 400u * 300);  // ZK grew instead
}

TEST(DufsTest, SurvivesZkFollowerCrash) {
  auto config = SmallConfig();
  config.zk_servers = 3;
  Testbed tb(config);
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    CO_ASSERT_OK(co_await fs.Mkdir("/before", 0755));
    t.net().node(t.zk_nodes()[2]).Crash();  // a follower
    CO_ASSERT_OK(co_await fs.Mkdir("/after", 0755));
    EXPECT_TRUE((co_await fs.GetAttr("/after")).ok());
  }(tb));
}

TEST(DufsTest, BackendDownFailsFileOpsButNotDirOps) {
  Testbed tb(SmallConfig(BackendKind::kLustre));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& fs = *t.client(0).dufs;
    // Knock out both Lustre MDSes: file creation must fail...
    t.net().node(t.lustre(0)->mds_node()).Crash();
    t.net().node(t.lustre(1)->mds_node()).Crash();
    auto created = co_await fs.Create("/f", 0644);
    EXPECT_FALSE(created.ok());
    // ...but the znode rollback ran, and directory metadata (ZooKeeper
    // only) is unaffected.
    EXPECT_EQ((co_await fs.GetAttr("/f")).code(), StatusCode::kNotFound);
    CO_ASSERT_OK(co_await fs.Mkdir("/dirs-still-work", 0755));
  }(tb));
}

}  // namespace
}  // namespace dufs::core
