// Virtual-path utilities (the VFS dialect: normalization allowed, unlike the
// strict znode paths).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dufs::vfs {

// Splits "/a/b/c" -> {"a","b","c"}; "/" -> {}.
std::vector<std::string> SplitPath(std::string_view path);

// Joins a parent path with a child name ("/a" + "b" -> "/a/b").
std::string JoinPath(std::string_view parent, std::string_view child);

// Resolves ".", "..", duplicate slashes. "/a/./b/../c" -> "/a/c".
// ".." above the root clamps at the root.
std::string NormalizePath(std::string_view path);

// Accepts absolute, normalized paths ("/", "/a/b"); rejects anything else.
// One pass over `path`, no allocation.
Status ValidateVirtualPath(std::string_view path);

std::string DirName(std::string_view path);   // "/a/b" -> "/a"; "/a" -> "/"
std::string_view DirView(std::string_view path);  // the same, as a view
std::string_view BaseName(std::string_view path);  // "/a/b" -> "b"

// True if `path` == `ancestor` or lies beneath it.
bool IsWithin(std::string_view ancestor, std::string_view path);

}  // namespace dufs::vfs
