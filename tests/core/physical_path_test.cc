#include "core/physical_path.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.h"

namespace dufs::core {
namespace {

// The ancestor directories of a physical path, shallowest first
// ("/f/e/d/name" -> "/f", "/f/e", "/f/e/d").
std::vector<std::string> AncestorDirs(const std::string& path) {
  std::vector<std::string> dirs;
  for (auto slash = path.find('/', 1); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    dirs.push_back(path.substr(0, slash));
  }
  return dirs;
}

TEST(PhysicalPathTest, MatchesPaperLayout) {
  // Paper Fig. 4 (adapted to 128-bit FIDs and a pre-creatable skeleton):
  // trailing hex chars become the directory levels, the leading chars the
  // file name.
  const Fid fid = *Fid::FromHex("0123456789abcdef0123456789abcdef");
  EXPECT_EQ(PhysicalPathForFid(fid), "/f/e/d/0123456789abcdef0123456789abc");
}

TEST(PhysicalPathTest, DirsArePrefixes) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Fid fid{rng.NextU64(), rng.NextU64()};
    const std::string path = PhysicalPathForFid(fid);
    const std::string hex = fid.ToHex();
    const auto dirs = AncestorDirs(path);
    ASSERT_EQ(dirs.size(), 3u) << path;
    // Each level is one more trailing hex char, deepest last.
    EXPECT_EQ(dirs[0], (std::string{'/', hex[31]}));
    EXPECT_EQ(dirs[1], dirs[0] + '/' + hex[30]);
    EXPECT_EQ(dirs[2], dirs[1] + '/' + hex[29]);
    EXPECT_EQ(path.substr(0, dirs[2].size() + 1), dirs[2] + '/');
  }
}

TEST(PhysicalPathTest, RoundTrip) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const Fid fid{rng.NextU64(), rng.NextU64()};
    auto back = FidFromPhysicalPath(PhysicalPathForFid(fid));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, fid);
  }
}

TEST(PhysicalPathTest, RejectsMalformedPaths) {
  EXPECT_FALSE(FidFromPhysicalPath("").has_value());
  EXPECT_FALSE(FidFromPhysicalPath("/f/e/d").has_value());
  EXPECT_FALSE(FidFromPhysicalPath("/z/z/z/zzzzzzzzzzzzzzzzzzzzzzzzzzzzz")
                   .has_value());
  EXPECT_FALSE(
      FidFromPhysicalPath("f/e/d/0123456789abcdef0123456789abc").has_value());
}

TEST(PhysicalPathTest, InjectiveOnDistinctFids) {
  // Distinct FIDs must land on distinct physical paths (no overwrites).
  std::unordered_set<std::string> seen;
  for (std::uint64_t c = 1; c <= 4; ++c) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      EXPECT_TRUE(seen.insert(PhysicalPathForFid(Fid{c, i})).second);
    }
  }
}

TEST(PhysicalPathTest, SequentialFidsSpreadDirectories) {
  // The trailing-char layout must avoid piling sequential creates from one
  // client into one directory (paper §IV-G: "avoid congestion due to file
  // creation at a single directory level").
  std::unordered_set<std::string> leaf_dirs;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    leaf_dirs.insert(AncestorDirs(PhysicalPathForFid(Fid{7, i}))[2]);
  }
  EXPECT_EQ(leaf_dirs.size(), 4096u);  // all 16^3 leaves hit
}

TEST(PhysicalPathTest, SkeletonCoversAllDirs) {
  // Exhaustive: FIDs 0..4095 end in every 3-hex-char tail, so their
  // ancestors are every directory a physical file can have. The skeleton
  // is exactly that set, which is why a formatted back-end needs no mkdir.
  const auto skeleton = StaticPhysicalSkeleton();
  EXPECT_EQ(skeleton.size(), 16u + 256u + 4096u);
  const std::unordered_set<std::string> dirs(skeleton.begin(),
                                             skeleton.end());
  EXPECT_EQ(dirs.size(), skeleton.size());
  std::unordered_set<std::string> ancestors;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    for (const auto& dir : AncestorDirs(PhysicalPathForFid(Fid{3, i}))) {
      ancestors.insert(dir);
    }
  }
  EXPECT_EQ(ancestors, dirs);
  // Parents appear before children (safe creation order).
  std::unordered_set<std::string> seen{"/"};
  for (const auto& dir : skeleton) {
    const auto slash = dir.rfind('/');
    const std::string parent = slash == 0 ? "/" : dir.substr(0, slash);
    EXPECT_TRUE(seen.count(parent) > 0) << dir;
    seen.insert(dir);
  }
}

}  // namespace
}  // namespace dufs::core
