#include "core/physical_path.h"

namespace dufs::core {

// Layout (paper Fig. 4, adapted): the FID hex string is split into path
// components — trailing characters become the directory levels, the rest is
// the file name. The paper's 64-bit example uses 4-hex-char groups; with
// one hex char per level (16^3 = 4096 leaf directories) the static
// hierarchy can actually be pre-created at format time, which is what the
// paper assumes ("this directory hierarchy is static and identical between
// all the back-end mount-points").
namespace {
constexpr std::size_t kDirLevels = 3;
constexpr std::size_t kGroup = 1;  // hex chars per directory level
constexpr std::size_t kNameLen = 32 - kDirLevels * kGroup;  // 29
constexpr char kHexChars[] = "0123456789abcdef";
}  // namespace

std::string PhysicalPathForFid(const Fid& fid) {
  const std::string hex = fid.ToHex();  // 32 chars
  std::string path;
  path.reserve(2 * kDirLevels + 1 + kNameLen);
  for (std::size_t level = 0; level < kDirLevels; ++level) {
    path.push_back('/');
    path.append(hex.substr(32 - (level + 1) * kGroup, kGroup));
  }
  path.push_back('/');
  path.append(hex.substr(0, kNameLen));
  return path;
}

std::vector<std::string> StaticPhysicalSkeleton() {
  std::vector<std::string> dirs;
  dirs.reserve(16 + 256 + 4096);
  for (int a = 0; a < 16; ++a) {
    std::string l1 = {'/', kHexChars[a]};
    dirs.push_back(l1);
  }
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      std::string l2 = {'/', kHexChars[a], '/', kHexChars[b]};
      dirs.push_back(l2);
    }
  }
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      for (int c = 0; c < 16; ++c) {
        std::string l3 = {'/', kHexChars[a], '/', kHexChars[b],
                          '/', kHexChars[c]};
        dirs.push_back(l3);
      }
    }
  }
  return dirs;
}

std::optional<Fid> FidFromPhysicalPath(std::string_view path) {
  // Expected shape: /g/g/g/<29 hex chars>.
  if (path.size() != (1 + kGroup) * kDirLevels + 1 + kNameLen) {
    return std::nullopt;
  }
  std::string hex(32, '0');
  std::size_t pos = 0;
  for (std::size_t level = 0; level < kDirLevels; ++level) {
    if (path[pos] != '/') return std::nullopt;
    ++pos;
    for (std::size_t k = 0; k < kGroup; ++k) {
      hex[32 - (level + 1) * kGroup + k] = path[pos + k];
    }
    pos += kGroup;
  }
  if (path[pos] != '/') return std::nullopt;
  ++pos;
  for (std::size_t k = 0; k < kNameLen; ++k) hex[k] = path[pos + k];
  return Fid::FromHex(hex);
}

}  // namespace dufs::core
