#include "core/meta_schema.h"

#include "wire/buffer.h"

namespace dufs::core {

std::vector<std::uint8_t> MetaRecord::Encode() const {
  wire::BufferWriter w;
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteU64(fid.client_id);
  w.WriteU64(fid.counter);
  w.WriteU32(mode);
  w.WriteString(symlink_target);
  w.WriteBool(atime_override.has_value());
  w.WriteI64(atime_override.value_or(0));
  w.WriteBool(mtime_override.has_value());
  w.WriteI64(mtime_override.value_or(0));
  return w.Take();
}

Result<MetaRecord> MetaRecord::Decode(const std::uint8_t* data,
                                      std::size_t size) {
  wire::BufferReader r(data, size);
  MetaRecord rec;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  rec.type = static_cast<vfs::FileType>(*type);
  auto client = r.ReadU64();
  DUFS_RETURN_IF_ERROR(client);
  rec.fid.client_id = *client;
  auto counter = r.ReadU64();
  DUFS_RETURN_IF_ERROR(counter);
  rec.fid.counter = *counter;
  auto mode = r.ReadU32();
  DUFS_RETURN_IF_ERROR(mode);
  rec.mode = *mode;
  auto target = r.ReadString();
  DUFS_RETURN_IF_ERROR(target);
  rec.symlink_target = std::move(*target);
  auto has_atime = r.ReadBool();
  DUFS_RETURN_IF_ERROR(has_atime);
  auto atime = r.ReadI64();
  DUFS_RETURN_IF_ERROR(atime);
  if (*has_atime) rec.atime_override = *atime;
  auto has_mtime = r.ReadBool();
  DUFS_RETURN_IF_ERROR(has_mtime);
  auto mtime = r.ReadI64();
  DUFS_RETURN_IF_ERROR(mtime);
  if (*has_mtime) rec.mtime_override = *mtime;
  return rec;
}

}  // namespace dufs::core
