#include "zk/znode.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"

namespace dufs::zk {

void ZnodeStat::EncodeTo(std::uint8_t* out) const {
  using wire::StoreLE;
  StoreLE(out, static_cast<std::uint64_t>(czxid));
  StoreLE(out + 8, static_cast<std::uint64_t>(mzxid));
  StoreLE(out + 16, static_cast<std::uint64_t>(pzxid));
  StoreLE(out + 24, static_cast<std::uint64_t>(ctime));
  StoreLE(out + 32, static_cast<std::uint64_t>(mtime));
  StoreLE(out + 40, static_cast<std::uint32_t>(version));
  StoreLE(out + 44, static_cast<std::uint32_t>(cversion));
  StoreLE(out + 48, ephemeral_owner);
  StoreLE(out + 56, static_cast<std::uint32_t>(num_children));
  StoreLE(out + 60, static_cast<std::uint32_t>(data_length));
}

ZnodeStat ZnodeStat::DecodeFrom(const std::uint8_t* in) {
  using wire::LoadLE;
  ZnodeStat s;
  s.czxid = static_cast<Zxid>(LoadLE<std::uint64_t>(in));
  s.mzxid = static_cast<Zxid>(LoadLE<std::uint64_t>(in + 8));
  s.pzxid = static_cast<Zxid>(LoadLE<std::uint64_t>(in + 16));
  s.ctime = static_cast<std::int64_t>(LoadLE<std::uint64_t>(in + 24));
  s.mtime = static_cast<std::int64_t>(LoadLE<std::uint64_t>(in + 32));
  s.version = static_cast<std::int32_t>(LoadLE<std::uint32_t>(in + 40));
  s.cversion = static_cast<std::int32_t>(LoadLE<std::uint32_t>(in + 44));
  s.ephemeral_owner = LoadLE<std::uint64_t>(in + 48);
  s.num_children = static_cast<std::int32_t>(LoadLE<std::uint32_t>(in + 56));
  s.data_length = static_cast<std::int32_t>(LoadLE<std::uint32_t>(in + 60));
  return s;
}

Result<ZnodeStat> ZnodeStat::Decode(wire::BufferReader& r) {
  auto block = r.ReadBlock(kEncodedSize);
  DUFS_RETURN_IF_ERROR(block);
  return DecodeFrom(*block);
}

Status ValidatePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Status(StatusCode::kInvalidArgument, "path must start with '/'");
  }
  if (path == "/") return Status::Ok();
  if (path.back() == '/') {
    return Status(StatusCode::kInvalidArgument, "trailing slash");
  }
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    const auto seg = path.substr(start, end - start);
    if (seg.empty()) {
      return Status(StatusCode::kInvalidArgument, "empty path segment");
    }
    if (seg == "." || seg == "..") {
      return Status(StatusCode::kInvalidArgument, "relative path segment");
    }
    start = end + 1;
  }
  return Status::Ok();
}

std::string ParentPath(std::string_view path) {
  return std::string(ParentView(path));
}

std::string_view ParentView(std::string_view path) {
  DUFS_CHECK(path.size() > 1 && path[0] == '/');
  const auto pos = path.rfind('/');
  return path.substr(0, pos == 0 ? 1 : pos);
}

std::string_view BaseName(std::string_view path) {
  const auto pos = path.rfind('/');
  return path.substr(pos + 1);
}

std::vector<std::string_view> PathComponents(std::string_view path) {
  std::vector<std::string_view> out;
  PathComponents(path, out);
  return out;
}

void PathComponents(std::string_view path,
                    std::vector<std::string_view>& out) {
  out.clear();
  if (path.size() <= 1) return;
  std::size_t start = 1;
  while (start <= path.size()) {
    auto end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    out.push_back(path.substr(start, end - start));
    start = end + 1;
  }
}

DataTree::ChildTable::~ChildTable() {
  for (std::uint32_t i = 0; i < capacity_; ++i) delete slots_[i];
  delete[] slots_;
}

void DataTree::ChildTable::Place(Znode* child) {
  const std::size_t mask = capacity_ - 1;
  std::size_t i = std::hash<std::string_view>{}(child->name) & mask;
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = child;
}

void DataTree::ChildTable::Grow() {
  Znode** const old = slots_;
  const std::uint32_t old_capacity = capacity_;
  capacity_ = old_capacity == 0 ? 2 : old_capacity * 2;
  slots_ = new Znode*[capacity_]();
  for (std::uint32_t i = 0; i < old_capacity; ++i) {
    if (old[i] != nullptr) Place(old[i]);
  }
  delete[] old;
}

DataTree::Znode* DataTree::ChildTable::Insert(std::unique_ptr<Znode> child) {
  if ((size_ + 1) * 2 > capacity_) Grow();
  Znode* placed = child.release();
  Place(placed);
  ++size_;
  return placed;
}

std::unique_ptr<DataTree::Znode> DataTree::ChildTable::Erase(
    std::string_view name) {
  std::size_t hole = SlotOf(name);
  if (hole == kNone) return nullptr;
  std::unique_ptr<Znode> removed(slots_[hole]);
  const std::size_t mask = capacity_ - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j] != nullptr;
       j = (j + 1) & mask) {
    // The entry at j may move back into the hole only if the hole lies on
    // its probe path, i.e. cyclically within [home(j), j).
    const std::size_t home =
        std::hash<std::string_view>{}(slots_[j]->name) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = nullptr;
  --size_;
  return removed;
}

void DataTree::ChildTable::SortedInto(std::vector<const Znode*>& out) const {
  out.clear();
  out.reserve(size_);
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    if (slots_[i] != nullptr) out.push_back(slots_[i]);
  }
  std::sort(out.begin(), out.end(), [](const Znode* a, const Znode* b) {
    return a->name < b->name;
  });
}

DataTree::DataTree() : root_(std::make_unique<Znode>()) {}

const DataTree::Znode* DataTree::Walk(std::string_view path) const {
  const Znode* cur = root_.get();
  if (path == "/") return cur;
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    cur = cur->children.Find(path.substr(start, end - start));
    if (cur == nullptr) return nullptr;
    start = end + 1;
  }
  return cur;
}

Result<const DataTree::Znode*> DataTree::Find(std::string_view path) const {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  const Znode* node = Walk(path);
  if (node == nullptr) return Status(StatusCode::kNotFound, std::string(path));
  return node;
}

DataTree::Znode* DataTree::FindMutable(std::string_view path) {
  auto found = static_cast<const DataTree*>(this)->Find(path);
  return found.ok() ? const_cast<Znode*>(*found) : nullptr;
}

Result<std::string> DataTree::Create(std::string_view path,
                                     std::vector<std::uint8_t> data,
                                     CreateMode mode, SessionId session,
                                     Zxid zxid, std::int64_t time) {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  if (path == "/") return Status(StatusCode::kAlreadyExists, "/");
  const Znode* parent = Walk(ParentView(path));
  if (parent == nullptr) {
    return Status(StatusCode::kNotFound,
                  "parent " + std::string(ParentView(path)));
  }
  const std::string_view base = BaseName(path);
  auto child = CreateChild(*parent, base, std::move(data), mode, session, zxid,
                           time);
  DUFS_RETURN_IF_ERROR(child);
  std::string created(path.substr(0, path.size() - base.size()));
  created += (*child)->name;
  return created;
}

Result<const DataTree::Znode*> DataTree::CreateChild(
    const Znode& parent_node, std::string_view base,
    std::vector<std::uint8_t> data, CreateMode mode, SessionId session,
    Zxid zxid, std::int64_t time) {
  // Every node is owned by this tree; callers only ever hold it const.
  Znode& parent = const_cast<Znode&>(parent_node);
  if (parent.stat.ephemeral_owner != 0) {
    // ZooKeeper forbids children under ephemeral nodes.
    return Status(StatusCode::kInvalidArgument, "parent is ephemeral");
  }

  std::string name(base);
  if (IsSequential(mode)) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%010llu",
                  static_cast<unsigned long long>(parent.next_sequence++));
    name += suffix;
  }
  if (parent.children.Find(name) != nullptr) {
    return Status(StatusCode::kAlreadyExists, name);
  }

  auto node = std::make_unique<Znode>();
  node->name = std::move(name);
  node->data = std::move(data);
  node->stat.czxid = zxid;
  node->stat.mzxid = zxid;
  node->stat.pzxid = zxid;
  node->stat.ctime = time;
  node->stat.mtime = time;
  node->stat.data_length = static_cast<std::int32_t>(node->data.size());
  if (IsEphemeral(mode)) {
    DUFS_CHECK(session != 0);
    node->stat.ephemeral_owner = session;
    ++ephemeral_count_;
  }
  const Znode* created = parent.children.Insert(std::move(node));
  parent.stat.pzxid = zxid;
  ++parent.stat.cversion;
  ++parent.stat.num_children;
  ++node_count_;
  return created;
}

Status DataTree::Delete(std::string_view path, std::int32_t expected_version,
                        Zxid zxid) {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  if (path == "/") {
    return Status(StatusCode::kInvalidArgument, "cannot delete the root");
  }
  const Znode* parent = Walk(ParentView(path));
  if (parent == nullptr) {
    return Status(StatusCode::kNotFound, std::string(path));
  }
  return DeleteChild(*parent, BaseName(path), expected_version, zxid)
      .status();
}

Result<std::unique_ptr<DataTree::Znode>> DataTree::DeleteChild(
    const Znode& parent_node, std::string_view name,
    std::int32_t expected_version, Zxid zxid) {
  Znode& parent = const_cast<Znode&>(parent_node);
  const Znode* found = parent.children.Find(name);
  if (found == nullptr) {
    return Status(StatusCode::kNotFound, std::string(name));
  }
  const Znode& node = *found;
  if (!node.children.empty()) {
    return Status(StatusCode::kNotEmpty, std::string(name));
  }
  if (expected_version != kAnyVersion &&
      expected_version != node.stat.version) {
    return Status(StatusCode::kBadVersion, std::string(name));
  }
  if (node.stat.ephemeral_owner != 0) --ephemeral_count_;

  std::unique_ptr<Znode> removed = parent.children.Erase(name);
  parent.stat.pzxid = zxid;
  ++parent.stat.cversion;
  --parent.stat.num_children;
  --node_count_;
  return removed;
}

Result<ZnodeStat> DataTree::SetData(std::string_view path,
                                    std::vector<std::uint8_t> data,
                                    std::int32_t expected_version, Zxid zxid,
                                    std::int64_t time) {
  Znode* node = FindMutable(path);
  if (node == nullptr) return Status(StatusCode::kNotFound, std::string(path));
  if (expected_version != kAnyVersion &&
      expected_version != node->stat.version) {
    return Status(StatusCode::kBadVersion, std::string(path));
  }
  node->data = std::move(data);
  node->stat.data_length = static_cast<std::int32_t>(node->data.size());
  node->stat.mzxid = zxid;
  node->stat.mtime = time;
  ++node->stat.version;
  return node->stat;
}

Result<ZnodeStat> DataTree::Stat(std::string_view path) const {
  auto node = Find(path);
  if (!node.ok()) return node.status();
  return (*node)->stat;
}

Result<std::vector<std::string>> DataTree::GetChildren(
    std::string_view path) const {
  auto node = Find(path);
  if (!node.ok()) return node.status();
  std::vector<std::string> names;
  names.reserve((*node)->children.size());
  (*node)->children.ForEachInNameOrder(
      [&](const Znode& child) { names.push_back(child.name); });
  return names;
}

namespace {
void CollectEphemerals(const DataTree::Znode& node, const std::string& prefix,
                       SessionId session, std::vector<std::string>& out) {
  node.children.ForEachInNameOrder([&](const DataTree::Znode& child) {
    const std::string child_path =
        prefix == "/" ? "/" + child.name : prefix + "/" + child.name;
    if (child.stat.ephemeral_owner == session) out.push_back(child_path);
    CollectEphemerals(child, child_path, session, out);
  });
}

// Constants calibrated against the paper's Fig. 11: one million znodes
// occupy ~417 MB of ZooKeeper (JVM) heap, i.e. ~417 bytes each for mdtest
// paths. Breakdown: DataNode object + Stat (~120B), ConcurrentHashMap path
// index entry + path String (~2x path bytes for UTF-16 + ~90B headers),
// parent child-set entry (~50B), data array (+16B header).
struct MemoryModel {
  static constexpr std::size_t kZnodeFixed = 130;
  static constexpr std::size_t kIndexEntry = 96;
  static constexpr std::size_t kChildEntry = 52;
  static constexpr std::size_t kPerNamedByte = 3;  // name appears in path
                                                   // index (UTF-16) + child
                                                   // set key
};

std::size_t NodeMemory(const DataTree::Znode& node, std::size_t depth) {
  std::size_t bytes = MemoryModel::kZnodeFixed + MemoryModel::kIndexEntry +
                      MemoryModel::kChildEntry +
                      MemoryModel::kPerNamedByte * node.name.size() +
                      // full path stored in the index: approximate by depth
                      // * average segment length via the name itself
                      2 * depth * 8 + node.data.size() + 16;
  node.children.ForEachInNameOrder([&](const DataTree::Znode& child) {
    bytes += NodeMemory(child, depth + 1);
  });
  return bytes;
}
}  // namespace

std::vector<std::string> DataTree::EphemeralsOf(SessionId session) const {
  std::vector<std::string> out;
  CollectEphemerals(*root_, "/", session, out);
  return out;
}

std::size_t DataTree::EstimateMemoryBytes() const {
  return NodeMemory(*root_, 0);
}

void DataTree::SerializeNode(const Znode& n, wire::BufferWriter& w) {
  w.WriteString(n.name);
  w.WriteBytes(n.data);
  n.stat.Encode(w);
  w.WriteU64(n.next_sequence);
  w.WriteVarint(n.children.size());
  n.children.ForEachInNameOrder(
      [&](const Znode& child) { SerializeNode(child, w); });
}

void DataTree::Serialize(wire::BufferWriter& w) const {
  SerializeNode(*root_, w);
}

Result<std::unique_ptr<DataTree::Znode>> DataTree::DeserializeNode(
    wire::BufferReader& r) {
  auto node = std::make_unique<Znode>();
  auto name = r.ReadString();
  DUFS_RETURN_IF_ERROR(name);
  node->name = std::move(*name);
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  node->data = std::move(*data);
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  node->stat = *stat;
  auto seq = r.ReadU64();
  DUFS_RETURN_IF_ERROR(seq);
  node->next_sequence = *seq;
  auto n_children = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_children);
  for (std::uint64_t i = 0; i < *n_children; ++i) {
    auto child = DeserializeNode(r);
    DUFS_RETURN_IF_ERROR(child);
    if (node->children.Find((*child)->name) != nullptr) {
      return Status(StatusCode::kInvalidArgument,
                    "snapshot: duplicate child " + (*child)->name);
    }
    node->children.Insert(std::move(*child));
  }
  return node;
}

Result<std::unique_ptr<DataTree>> DataTree::Deserialize(
    wire::BufferReader& r) {
  auto root = DeserializeNode(r);
  DUFS_RETURN_IF_ERROR(root);
  auto tree = std::make_unique<DataTree>();
  tree->root_ = std::move(*root);
  // Recount nodes and ephemerals.
  std::size_t nodes = 0, ephemerals = 0;
  struct Counter {
    static void Walk(const Znode& n, std::size_t& nodes,
                     std::size_t& ephemerals) {
      ++nodes;
      if (n.stat.ephemeral_owner != 0) ++ephemerals;
      n.children.ForEachInNameOrder(
          [&](const Znode& child) { Walk(child, nodes, ephemerals); });
    }
  };
  Counter::Walk(*tree->root_, nodes, ephemerals);
  tree->node_count_ = nodes;
  tree->ephemeral_count_ = ephemerals;
  return tree;
}

std::uint64_t DataTree::Fingerprint() const {
  // FNV-1a over a canonical serialization.
  wire::BufferWriter w;
  Serialize(w);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : w.data()) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace dufs::zk
