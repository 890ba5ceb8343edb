// What DUFS stores in each znode's data field (paper §IV-D/E).
//
// ZooKeeper's standard znode stat supplies ctime/mtime and child counts for
// directories; the custom data field carries the DUFS record: node kind,
// the FID for files, the permission mode, and the symlink target. File
// sizes and data times live with the physical file on the back-end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fid.h"
#include "common/status.h"
#include "vfs/types.h"

namespace dufs::core {

struct MetaRecord {
  vfs::FileType type = vfs::FileType::kDirectory;
  Fid fid;              // files only
  vfs::Mode mode = vfs::kDefaultDirMode;
  std::string symlink_target;
  // Explicit time overrides for directories (utimens on a directory cannot
  // be expressed through znode stats, which ZooKeeper owns).
  std::optional<std::int64_t> atime_override;
  std::optional<std::int64_t> mtime_override;

  std::vector<std::uint8_t> Encode() const;
  // Reads a record in place, say a znode's data inside a compound reply.
  static Result<MetaRecord> Decode(const std::uint8_t* data, std::size_t size);
  static Result<MetaRecord> Decode(const std::vector<std::uint8_t>& bytes) {
    return Decode(bytes.data(), bytes.size());
  }

  static MetaRecord Dir(vfs::Mode mode) {
    MetaRecord r;
    r.type = vfs::FileType::kDirectory;
    r.mode = mode;
    return r;
  }
  static MetaRecord File(const Fid& fid, vfs::Mode mode) {
    MetaRecord r;
    r.type = vfs::FileType::kRegular;
    r.fid = fid;
    r.mode = mode;
    return r;
  }
  static MetaRecord Symlink(std::string target) {
    MetaRecord r;
    r.type = vfs::FileType::kSymlink;
    r.mode = 0777;
    r.symlink_target = std::move(target);
    return r;
  }
};

}  // namespace dufs::core
