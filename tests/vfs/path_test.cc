#include "vfs/path.h"

#include <gtest/gtest.h>

namespace dufs::vfs {
namespace {

TEST(VfsPathTest, Split) {
  EXPECT_EQ(SplitPath("/"), (std::vector<std::string>{}));
  EXPECT_EQ(SplitPath("/a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitPath("//a///b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitPath(""), (std::vector<std::string>{}));
}

TEST(VfsPathTest, Join) {
  EXPECT_EQ(JoinPath("/", "a"), "/a");
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("", "a"), "/a");
}

TEST(VfsPathTest, Normalize) {
  EXPECT_EQ(NormalizePath("/a/./b"), "/a/b");
  EXPECT_EQ(NormalizePath("/a/b/../c"), "/a/c");
  EXPECT_EQ(NormalizePath("/../.."), "/");
  EXPECT_EQ(NormalizePath("//a//b//"), "/a/b");
  EXPECT_EQ(NormalizePath("/"), "/");
}

TEST(VfsPathTest, Validate) {
  EXPECT_TRUE(ValidateVirtualPath("/").ok());
  EXPECT_TRUE(ValidateVirtualPath("/a/b").ok());
  EXPECT_FALSE(ValidateVirtualPath("a/b").ok());
  EXPECT_FALSE(ValidateVirtualPath("/a/").ok());
  EXPECT_FALSE(ValidateVirtualPath("/a/../b").ok());
  EXPECT_FALSE(ValidateVirtualPath("").ok());
}

// The component-stack normalization NormalizePath computes in one string.
std::string StackNormalize(std::string_view path) {
  std::vector<std::string> stack;
  for (auto& part : SplitPath(path)) {
    if (part == ".") continue;
    if (part == "..") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    stack.push_back(std::move(part));
  }
  std::string out;
  for (const auto& part : stack) out += "/" + part;
  return out.empty() ? "/" : out;
}

// Every string of up to 7 characters over {'/', '.', 'a'}: NormalizePath
// matches the stack reference, and ValidateVirtualPath accepts exactly the
// absolute paths without a trailing slash that NormalizePath leaves alone.
TEST(VfsPathTest, NormalizeAndValidateAgreeWithTheStackReference) {
  std::vector<std::string> paths{""};
  for (std::size_t begin = 0, len = 0; len < 7; ++len) {
    const std::size_t end = paths.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (char c : {'/', '.', 'a'}) paths.push_back(paths[i] + c);
    }
    begin = end;
  }
  std::size_t valid = 0;
  for (const std::string& path : paths) {
    const std::string normal = NormalizePath(path);
    EXPECT_EQ(normal, StackNormalize(path)) << path;
    const bool expected = !path.empty() && path[0] == '/' &&
                          (path.size() == 1 || path.back() != '/') &&
                          normal == path;
    EXPECT_EQ(ValidateVirtualPath(path).ok(), expected) << path;
    valid += expected ? 1 : 0;
  }
  EXPECT_GT(valid, 10u);
}

TEST(VfsPathTest, DirAndBase) {
  EXPECT_EQ(DirName("/a/b"), "/a");
  EXPECT_EQ(DirName("/a"), "/");
  EXPECT_EQ(DirName("/"), "/");
  EXPECT_EQ(BaseName("/a/b"), "b");
  EXPECT_EQ(DirView("/a/b/c"), "/a/b");
  EXPECT_EQ(DirView("/a"), "/");
  EXPECT_EQ(DirView("/"), "/");
}

TEST(VfsPathTest, IsWithin) {
  EXPECT_TRUE(IsWithin("/a", "/a"));
  EXPECT_TRUE(IsWithin("/a", "/a/b"));
  EXPECT_TRUE(IsWithin("/", "/anything"));
  EXPECT_FALSE(IsWithin("/a", "/ab"));
  EXPECT_FALSE(IsWithin("/a/b", "/a"));
}

}  // namespace
}  // namespace dufs::vfs
