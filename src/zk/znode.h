// The ZooKeeper data model: a tree of znodes with full stat structures,
// version checks, sequential and ephemeral nodes (paper §II-C / §IV-D).
//
// DataTree is a *real* data structure (not a model): every replica holds one
// and applies committed transactions to it in zxid order. All mutation
// entry points take the zxid/time stamps so replicas stay byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "wire/buffer.h"

namespace dufs::zk {

using Zxid = std::int64_t;
using SessionId = std::uint64_t;

struct ZnodeStat {
  Zxid czxid = 0;   // zxid of the create
  Zxid mzxid = 0;   // zxid of the last data modification
  Zxid pzxid = 0;   // zxid of the last child-list change
  std::int64_t ctime = 0;  // creation time (sim ns)
  std::int64_t mtime = 0;  // last-modification time (sim ns)
  std::int32_t version = 0;    // data version
  std::int32_t cversion = 0;   // children version
  SessionId ephemeral_owner = 0;  // 0 = persistent
  std::int32_t num_children = 0;
  std::int32_t data_length = 0;

  // One fixed block on the wire: the fields in declaration order, each
  // little-endian at its full width.
  static constexpr std::size_t kEncodedSize = 5 * 8 + 2 * 4 + 8 + 2 * 4;
  void EncodeTo(std::uint8_t* out) const;  // writes kEncodedSize bytes
  static ZnodeStat DecodeFrom(const std::uint8_t* in);
  void Encode(wire::BufferWriter& w) const { EncodeTo(w.Extend(kEncodedSize)); }
  static Result<ZnodeStat> Decode(wire::BufferReader& r);
  friend bool operator==(const ZnodeStat&, const ZnodeStat&) = default;
};

enum class CreateMode : std::uint8_t {
  kPersistent = 0,
  kEphemeral = 1,
  kPersistentSequential = 2,
  kEphemeralSequential = 3,
};

inline bool IsEphemeral(CreateMode m) {
  return m == CreateMode::kEphemeral || m == CreateMode::kEphemeralSequential;
}
inline bool IsSequential(CreateMode m) {
  return m == CreateMode::kPersistentSequential ||
         m == CreateMode::kEphemeralSequential;
}

// Version wildcard accepted by Delete/SetData (matches ZooKeeper's -1).
inline constexpr std::int32_t kAnyVersion = -1;

// Path syntax: "/" or "/seg(/seg)*"; segments non-empty, no '/', not "."/"..".
Status ValidatePath(std::string_view path);
// Parent of "/a/b" is "/a"; parent of "/a" is "/". Precondition: valid, != "/".
std::string ParentPath(std::string_view path);
// The same as a view into `path`.
std::string_view ParentView(std::string_view path);
// Basename of "/a/b" is "b".
std::string_view BaseName(std::string_view path);
// Components of "/a/b/c" are ["a", "b", "c"]; "/" has none. The views alias
// `path`, so the caller keeps the backing string alive. Precondition: valid.
std::vector<std::string_view> PathComponents(std::string_view path);
// Same, into `out` (cleared first), so a caller can reuse one buffer.
void PathComponents(std::string_view path, std::vector<std::string_view>& out);

class DataTree {
 public:
  struct Znode;

  // A znode's children, owned: a flat open-addressing table whose slots
  // hold only the child pointer. A child's key is its own Znode::name, so a
  // name is stored once and a child costs one 8-byte slot, not a map node.
  //
  //   * A leaf has no slot array. The first child allocates 2 slots, and
  //     the array doubles before the load passes 1/2, so a probe run always
  //     ends at an empty slot. It never shrinks: a directory that empties
  //     and fills again allocates nothing.
  //   * A name's home slot is its hash masked to the array; collisions
  //     probe linearly. Erase shifts later entries of the run back into the
  //     hole (backward-shift deletion, as in PathTable), so there are no
  //     tombstones.
  //   * Slot order is hash order, and no output may depend on it: the only
  //     way to visit the children is in name order (byte-wise, as
  //     std::string compares), which sorts a snapshot of the pointers.
  //
  // PathTable is not used here: its 32-byte slots and 16-slot minimum would
  // cost ~512 bytes per non-empty directory on every replica (DESIGN.md
  // §16.2).
  class ChildTable {
   public:
    ChildTable() = default;
    ChildTable(const ChildTable&) = delete;
    ChildTable& operator=(const ChildTable&) = delete;
    ~ChildTable();

    // The child named `name`, or null.
    Znode* Find(std::string_view name) const;
    // Adds `child`, whose name must be absent, and returns it.
    Znode* Insert(std::unique_ptr<Znode> child);
    // Unlinks the child named `name` and hands it back; null when absent.
    std::unique_ptr<Znode> Erase(std::string_view name);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    // Slot count: 0 for a leaf, else a power of two at least 2 * size().
    std::size_t capacity() const { return capacity_; }

    // The children in name order, into `out` (cleared first), so a caller
    // can reuse one buffer.
    void SortedInto(std::vector<const Znode*>& out) const;
    // Calls `visit(const Znode&)` on each child in name order.
    template <typename Visit>
    void ForEachInNameOrder(Visit&& visit) const {
      std::vector<const Znode*> order;
      SortedInto(order);
      for (const Znode* child : order) visit(*child);
    }

   private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t SlotOf(std::string_view name) const;
    // Puts `child` in the first empty slot of its probe run.
    void Place(Znode* child);
    void Grow();

    Znode** slots_ = nullptr;  // null = empty slot
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;
  };

  struct Znode {
    std::string name;  // path component (empty for the root)
    std::vector<std::uint8_t> data;
    ZnodeStat stat;
    std::uint64_t next_sequence = 0;  // counter for sequential children
    ChildTable children;
  };

  DataTree();

  // --- mutations (called only when applying committed txns) -------------
  // Each walks `path` once. Create returns the actual created path (differs
  // from `path` for sequential nodes, which get a zero-padded 10-digit
  // suffix appended).
  Result<std::string> Create(std::string_view path,
                             std::vector<std::uint8_t> data, CreateMode mode,
                             SessionId session, Zxid zxid, std::int64_t time);
  Status Delete(std::string_view path, std::int32_t expected_version,
                Zxid zxid);
  // The same mutations under a parent the caller has already resolved (a
  // compound op's walk), so they walk nothing. `parent` must be a node of
  // this tree. CreateChild names the node `name` plus the sequential suffix
  // when `mode` asks for one, and returns it. DeleteChild unlinks `name`
  // and hands the removed node back, so its pre-delete stat and data stay
  // readable until the caller drops it.
  Result<const Znode*> CreateChild(const Znode& parent, std::string_view name,
                                   std::vector<std::uint8_t> data,
                                   CreateMode mode, SessionId session,
                                   Zxid zxid, std::int64_t time);
  Result<std::unique_ptr<Znode>> DeleteChild(const Znode& parent,
                                             std::string_view name,
                                             std::int32_t expected_version,
                                             Zxid zxid);
  Result<ZnodeStat> SetData(std::string_view path,
                            std::vector<std::uint8_t> data,
                            std::int32_t expected_version, Zxid zxid,
                            std::int64_t time);

  // --- reads -------------------------------------------------------------
  Result<const Znode*> Find(std::string_view path) const;
  Result<ZnodeStat> Stat(std::string_view path) const;
  Result<std::vector<std::string>> GetChildren(std::string_view path) const;
  bool Exists(std::string_view path) const { return Find(path).ok(); }

  // All ephemeral paths owned by `session` (session-close cleanup).
  std::vector<std::string> EphemeralsOf(SessionId session) const;

  std::size_t node_count() const { return node_count_; }

  // Byte-level memory estimate of the replica's in-memory state, modeling
  // the JVM heap footprint the paper measures in Fig. 11 (znode objects,
  // the path hash index, child maps, string/array headers).
  std::size_t EstimateMemoryBytes() const;

  // --- snapshots (fuzzy snapshot + restore, used on server restart) ------
  void Serialize(wire::BufferWriter& w) const;
  static Result<std::unique_ptr<DataTree>> Deserialize(wire::BufferReader& r);

  // Structural digest for replica-consistency checks in tests.
  std::uint64_t Fingerprint() const;

  const Znode& root() const { return *root_; }

 private:
  Znode* FindMutable(std::string_view path);
  // Walks a path ValidatePath accepted; null when a component is missing.
  const Znode* Walk(std::string_view path) const;
  static void SerializeNode(const Znode& n, wire::BufferWriter& w);
  static Result<std::unique_ptr<Znode>> DeserializeNode(wire::BufferReader& r);

  std::unique_ptr<Znode> root_;
  std::size_t node_count_ = 1;  // includes the root
  std::size_t ephemeral_count_ = 0;
};

// The path walk's step, inline: one hash, then a probe that reads each
// candidate's own name.
inline DataTree::Znode* DataTree::ChildTable::Find(
    std::string_view name) const {
  const std::size_t i = SlotOf(name);
  return i == kNone ? nullptr : slots_[i];
}

inline std::size_t DataTree::ChildTable::SlotOf(std::string_view name) const {
  if (size_ == 0) return kNone;
  const std::size_t mask = capacity_ - 1;
  for (std::size_t i = std::hash<std::string_view>{}(name) & mask;;
       i = (i + 1) & mask) {
    const Znode* child = slots_[i];
    if (child == nullptr) return kNone;
    if (child->name == name) return i;
  }
}

}  // namespace dufs::zk
