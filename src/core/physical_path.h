// FID -> physical path codec (paper §IV-G, Fig. 4).
//
// The paper's example — FID 0123456789abcdef stored as cdef/89ab/4567/0123 —
// splits the hex representation into four components: the *trailing* groups
// become the directory hierarchy (hot, low-entropy bits spread file creates
// across many directories) and the leading group is the file name. Our FIDs
// are 128-bit, and each directory level is one hex char from the tail, so
// the 16 + 256 + 4096 directories can be created at format time; the
// remaining 29 hex chars are the file name.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fid.h"

namespace dufs::core {

// "/f/e/d/0123456789abcdef0123456789abc" for the fid whose hex is
// 0123456789abcdef0123456789abcdef (trailing chars "f","e","d" become the
// directory levels; the remaining 29 chars the file name).
std::string PhysicalPathForFid(const Fid& fid);

// Every directory of the static hierarchy (16 + 256 + 4096 paths, parents
// first) — created once per back-end at format time (paper §IV-G: "this
// directory hierarchy is static and identical between all the back-end
// mount-points").
std::vector<std::string> StaticPhysicalSkeleton();

// Inverse of PhysicalPathForFid (used by fsck-style tooling and tests).
std::optional<Fid> FidFromPhysicalPath(std::string_view path);

}  // namespace dufs::core
