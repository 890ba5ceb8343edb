#include "zk/znode.h"

#include <gtest/gtest.h>

namespace dufs::zk {
namespace {

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(PathTest, ValidatePath) {
  EXPECT_TRUE(ValidatePath("/").ok());
  EXPECT_TRUE(ValidatePath("/a").ok());
  EXPECT_TRUE(ValidatePath("/a/b/c").ok());
  EXPECT_FALSE(ValidatePath("").ok());
  EXPECT_FALSE(ValidatePath("a/b").ok());
  EXPECT_FALSE(ValidatePath("/a/").ok());
  EXPECT_FALSE(ValidatePath("/a//b").ok());
  EXPECT_FALSE(ValidatePath("/a/./b").ok());
  EXPECT_FALSE(ValidatePath("/a/../b").ok());
}

TEST(PathTest, ParentAndBase) {
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
  EXPECT_EQ(BaseName("/a/b/c"), "c");
  EXPECT_EQ(BaseName("/a"), "a");
}

class DataTreeTest : public ::testing::Test {
 protected:
  Zxid zxid_ = 0;
  DataTree tree_;

  Result<std::string> Create(std::string_view path,
                             std::string_view data = "",
                             CreateMode mode = CreateMode::kPersistent,
                             SessionId session = 0) {
    ++zxid_;
    return tree_.Create(path, Bytes(data), mode, session, zxid_, zxid_ * 10);
  }
};

TEST_F(DataTreeTest, RootExists) {
  EXPECT_TRUE(tree_.Exists("/"));
  EXPECT_EQ(tree_.node_count(), 1u);
}

TEST_F(DataTreeTest, CreateAndFind) {
  auto created = Create("/a", "hello");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, "/a");
  auto node = tree_.Find("/a");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->data, Bytes("hello"));
  EXPECT_EQ((*node)->stat.czxid, 1);
  EXPECT_EQ((*node)->stat.version, 0);
  EXPECT_EQ(tree_.node_count(), 2u);
}

TEST_F(DataTreeTest, CreateNested) {
  ASSERT_TRUE(Create("/a").ok());
  ASSERT_TRUE(Create("/a/b").ok());
  auto created = Create("/a/b/c", "x");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, "/a/b/c");
}

TEST_F(DataTreeTest, CreateWithoutParentFails) {
  auto r = Create("/a/b");
  EXPECT_EQ(r.code(), StatusCode::kNotFound);
}

TEST_F(DataTreeTest, CreateDuplicateFails) {
  ASSERT_TRUE(Create("/a").ok());
  EXPECT_EQ(Create("/a").code(), StatusCode::kAlreadyExists);
}

TEST_F(DataTreeTest, CreateUpdatesParentStat) {
  ASSERT_TRUE(Create("/a").ok());
  ASSERT_TRUE(Create("/a/b").ok());
  auto stat = tree_.Stat("/a");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->num_children, 1);
  EXPECT_EQ(stat->cversion, 1);
  EXPECT_EQ(stat->pzxid, 2);
}

TEST_F(DataTreeTest, SequentialCreateAppendsCounter) {
  ASSERT_TRUE(Create("/q").ok());
  auto a = Create("/q/job-", "", CreateMode::kPersistentSequential);
  auto b = Create("/q/job-", "", CreateMode::kPersistentSequential);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, "/q/job-0000000000");
  EXPECT_EQ(*b, "/q/job-0000000001");
}

TEST_F(DataTreeTest, SequentialCountersPerParent) {
  ASSERT_TRUE(Create("/p1").ok());
  ASSERT_TRUE(Create("/p2").ok());
  auto a = Create("/p1/n-", "", CreateMode::kPersistentSequential);
  auto b = Create("/p2/n-", "", CreateMode::kPersistentSequential);
  EXPECT_EQ(*a, "/p1/n-0000000000");
  EXPECT_EQ(*b, "/p2/n-0000000000");
}

TEST_F(DataTreeTest, EphemeralCannotHaveChildren) {
  ASSERT_TRUE(Create("/e", "", CreateMode::kEphemeral, 42).ok());
  EXPECT_EQ(Create("/e/child").code(), StatusCode::kInvalidArgument);
}

TEST_F(DataTreeTest, EphemeralsOfSession) {
  ASSERT_TRUE(Create("/dir").ok());
  ASSERT_TRUE(Create("/dir/e1", "", CreateMode::kEphemeral, 7).ok());
  ASSERT_TRUE(Create("/dir/e2", "", CreateMode::kEphemeral, 7).ok());
  ASSERT_TRUE(Create("/dir/e3", "", CreateMode::kEphemeral, 8).ok());
  auto paths = tree_.EphemeralsOf(7);
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(DataTreeTest, DeleteLeaf) {
  ASSERT_TRUE(Create("/a").ok());
  EXPECT_TRUE(tree_.Delete("/a", kAnyVersion, ++zxid_).ok());
  EXPECT_FALSE(tree_.Exists("/a"));
  EXPECT_EQ(tree_.node_count(), 1u);
}

TEST_F(DataTreeTest, DeleteNonEmptyFails) {
  ASSERT_TRUE(Create("/a").ok());
  ASSERT_TRUE(Create("/a/b").ok());
  EXPECT_EQ(tree_.Delete("/a", kAnyVersion, ++zxid_).code(),
            StatusCode::kNotEmpty);
}

TEST_F(DataTreeTest, DeleteMissingFails) {
  EXPECT_EQ(tree_.Delete("/nope", kAnyVersion, ++zxid_).code(),
            StatusCode::kNotFound);
}

TEST_F(DataTreeTest, DeleteRootFails) {
  EXPECT_EQ(tree_.Delete("/", kAnyVersion, ++zxid_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DataTreeTest, DeleteWithVersionCheck) {
  ASSERT_TRUE(Create("/a").ok());
  ASSERT_TRUE(tree_.SetData("/a", Bytes("x"), kAnyVersion, ++zxid_, 0).ok());
  EXPECT_EQ(tree_.Delete("/a", 0, ++zxid_).code(), StatusCode::kBadVersion);
  EXPECT_TRUE(tree_.Delete("/a", 1, ++zxid_).ok());
}

TEST_F(DataTreeTest, SetDataBumpsVersion) {
  ASSERT_TRUE(Create("/a", "v0").ok());
  auto stat = tree_.SetData("/a", Bytes("v1"), 0, ++zxid_, 99);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->version, 1);
  EXPECT_EQ(stat->mtime, 99);
  EXPECT_EQ(stat->data_length, 2);
  EXPECT_EQ(tree_.SetData("/a", Bytes("v2"), 0, ++zxid_, 0).code(),
            StatusCode::kBadVersion);
}

TEST_F(DataTreeTest, GetChildrenSorted) {
  ASSERT_TRUE(Create("/d").ok());
  ASSERT_TRUE(Create("/d/zz").ok());
  ASSERT_TRUE(Create("/d/aa").ok());
  ASSERT_TRUE(Create("/d/mm").ok());
  auto children = tree_.GetChildren("/d");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"aa", "mm", "zz"}));
}

TEST_F(DataTreeTest, SerializeRoundTrip) {
  ASSERT_TRUE(Create("/a", "data-a").ok());
  ASSERT_TRUE(Create("/a/b", "data-b").ok());
  ASSERT_TRUE(Create("/c", "", CreateMode::kEphemeral, 5).ok());
  ASSERT_TRUE(Create("/a/seq-", "", CreateMode::kPersistentSequential).ok());

  wire::BufferWriter w;
  tree_.Serialize(w);
  auto data = w.Take();
  wire::BufferReader r(data);
  auto restored = DataTree::Deserialize(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->node_count(), tree_.node_count());
  EXPECT_EQ((*restored)->Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ((*restored)->EphemeralsOf(5).size(), 1u);
  // Sequence counters must survive: the next sequential name continues.
  auto next = (*restored)->Create("/a/seq-", {},
                                  CreateMode::kPersistentSequential, 0, 100,
                                  0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, "/a/seq-0000000001");
}

TEST_F(DataTreeTest, FingerprintChangesWithContent) {
  const auto fp0 = tree_.Fingerprint();
  ASSERT_TRUE(Create("/a").ok());
  const auto fp1 = tree_.Fingerprint();
  EXPECT_NE(fp0, fp1);
  ASSERT_TRUE(tree_.SetData("/a", Bytes("x"), kAnyVersion, ++zxid_, 0).ok());
  EXPECT_NE(fp1, tree_.Fingerprint());
}

TEST_F(DataTreeTest, MemoryEstimateGrowsLinearly) {
  ASSERT_TRUE(Create("/base").ok());
  const auto before = tree_.EstimateMemoryBytes();
  constexpr int kN = 1000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Create("/base/node" + std::to_string(i), "0123456789").ok());
  }
  const auto after = tree_.EstimateMemoryBytes();
  const double per_node =
      static_cast<double>(after - before) / static_cast<double>(kN);
  // Fig. 11 calibration target: ~417 bytes per znode (±25%).
  EXPECT_GT(per_node, 300);
  EXPECT_LT(per_node, 550);
}

TEST_F(DataTreeTest, CreateUnderMissingInteriorFails) {
  ASSERT_TRUE(Create("/a").ok());
  EXPECT_EQ(Create("/a/b/c").code(), StatusCode::kNotFound);
  EXPECT_EQ(Create("/a//c").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Create("/").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree_.node_count(), 2u);
}

TEST_F(DataTreeTest, DeleteUnderMissingParentFails) {
  ASSERT_TRUE(Create("/a").ok());
  EXPECT_EQ(tree_.Delete("/a/b/c", kAnyVersion, ++zxid_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree_.Delete("/a/", kAnyVersion, ++zxid_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(tree_.Exists("/a"));
}

TEST_F(DataTreeTest, CreateChildUnderResolvedParent) {
  ASSERT_TRUE(Create("/d").ok());
  const DataTree::Znode* dir = *tree_.Find("/d");
  auto child = tree_.CreateChild(*dir, "f", Bytes("xy"),
                                 CreateMode::kPersistent, 0, 7, 70);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ((*child)->name, "f");
  EXPECT_EQ((*child)->stat.czxid, 7);
  EXPECT_EQ((*child)->stat.data_length, 2);
  EXPECT_EQ(*tree_.Find("/d/f"), *child);
  EXPECT_EQ(dir->stat.num_children, 1);
  EXPECT_EQ(dir->stat.cversion, 1);
  EXPECT_EQ(dir->stat.pzxid, 7);
  EXPECT_EQ(tree_.node_count(), 3u);
}

TEST_F(DataTreeTest, CreateChildErrorPathsLeaveTheParentAlone) {
  ASSERT_TRUE(Create("/d").ok());
  ASSERT_TRUE(Create("/d/f").ok());
  ASSERT_TRUE(Create("/e", "", CreateMode::kEphemeral, 9).ok());
  const DataTree::Znode* dir = *tree_.Find("/d");
  const ZnodeStat before = dir->stat;
  EXPECT_EQ(tree_.CreateChild(*dir, "f", {}, CreateMode::kPersistent, 0, 50, 0)
                .code(),
            StatusCode::kAlreadyExists);
  const DataTree::Znode* eph = *tree_.Find("/e");
  EXPECT_EQ(tree_.CreateChild(*eph, "x", {}, CreateMode::kPersistent, 0, 51, 0)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dir->stat, before);
  EXPECT_EQ(tree_.node_count(), 4u);
}

TEST_F(DataTreeTest, SequentialNameClashStillAdvancesTheCounter) {
  ASSERT_TRUE(Create("/q").ok());
  ASSERT_TRUE(Create("/q/n0000000000").ok());
  // The counter hands out 0, which is taken: the create fails but the next
  // one gets 1, on every replica alike.
  EXPECT_EQ(Create("/q/n", "", CreateMode::kPersistentSequential).code(),
            StatusCode::kAlreadyExists);
  auto next = Create("/q/n", "", CreateMode::kPersistentSequential);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, "/q/n0000000001");
}

TEST_F(DataTreeTest, DeleteChildHandsBackThePreDeleteNode) {
  ASSERT_TRUE(Create("/d").ok());
  ASSERT_TRUE(Create("/d/f", "rec", CreateMode::kEphemeral, 4).ok());
  const DataTree::Znode* dir = *tree_.Find("/d");
  auto removed = tree_.DeleteChild(*dir, "f", 0, 30);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ((*removed)->name, "f");
  EXPECT_EQ((*removed)->data, Bytes("rec"));
  EXPECT_EQ((*removed)->stat.ephemeral_owner, 4u);
  EXPECT_FALSE(tree_.Exists("/d/f"));
  EXPECT_TRUE(tree_.EphemeralsOf(4).empty());
  EXPECT_EQ(dir->stat.num_children, 0);
  EXPECT_EQ(dir->stat.pzxid, 30);
  EXPECT_EQ(tree_.node_count(), 2u);
}

TEST_F(DataTreeTest, DeleteChildErrorPathsKeepTheNode) {
  ASSERT_TRUE(Create("/d").ok());
  ASSERT_TRUE(Create("/d/sub").ok());
  ASSERT_TRUE(Create("/d/sub/x").ok());
  const DataTree::Znode* dir = *tree_.Find("/d");
  const ZnodeStat before = dir->stat;
  EXPECT_EQ(tree_.DeleteChild(*dir, "nope", kAnyVersion, 40).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree_.DeleteChild(*dir, "sub", kAnyVersion, 41).code(),
            StatusCode::kNotEmpty);
  const DataTree::Znode* sub = *tree_.Find("/d/sub");
  EXPECT_EQ(tree_.DeleteChild(*sub, "x", 3, 42).code(),
            StatusCode::kBadVersion);
  EXPECT_EQ(dir->stat, before);
  EXPECT_TRUE(tree_.Exists("/d/sub/x"));
  EXPECT_EQ(tree_.node_count(), 4u);
}

TEST_F(DataTreeTest, StatOnMissingReturnsNotFound) {
  EXPECT_EQ(tree_.Stat("/ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_.GetChildren("/ghost").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dufs::zk
